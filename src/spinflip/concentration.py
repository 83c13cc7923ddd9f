"""Concentration measurements: exponential moments, variances, and the
conservation-under-dynamics pipelines.

Two inequality families are measured exactly:

    GCB:  log E_mu e^{f - E_mu f} <= C ||delta f||_2^2
    UVB:  Var_mu(f)               <= C ||delta f||_2^2

Empirical constants are sups over finite test-function families and a
lambda-grid, so they are lower bounds on any valid constant; certified
constants for product measures (1/8 and 1/4) come from the Hoeffding moment
bound and the Efron-Stein inequality, which hold for every function, and are
what the conservation pipelines consume as the initial-measure input.

Every number here (the log-moment at every lambda, the variance, the
H-integral, and S(t)f, which ||delta S(t)f|| needs) is a sum over the levels
l of a member f against its law P(f = l), so one reader, `_Laws`, serves the
two scans and the four checks.  A scan reads the law under its measure nu as
the push-forward of nu's marginal on f's support, 2^|support| patterns, not
f at every state.  Scans and checks prepare a family's members (||delta
f||_2^2 and the level tables) once, in the _Orbits the family keeps per
group of site maps: a check's group is the rate automorphisms, a scan's
the identity alone, under which only a bitwise copy joins an earlier
member.

The pipelines measure the per-start constants the theorems quantify over,
exactly and for every Dirac start, and assert the composite bounds term by
term.  One batched `evolve_functions` call of 2 1{f = l} - 1 for every
level but the most frequent of every member gives the law under each start
delta_sigma S(t), and by duality, <mu S(t), g> = <mu, S(t) g>, under mu S(t).
No measure is evolved, so no array grows with the square of the 2^N states.

The theorems assume translation-invariant rates, and a rate automorphism g
(RateModel.automorphisms: a site map that carries every rate term onto its
image bitwise) commutes with S(t).  So a member f' = f o g, f'(s) = f(g(s)),
has under the start s the law f has under g(s), and the checks evolve and
read one representative per orbit of the family (_Orbits).  A member joins
an earlier representative only when g maps its support onto the
representative's and the re-keyed tables are bitwise equal, and it keeps
its own g, so the family need not be closed under the group.  Its maxima
over starts are the representative's, its per-start vectors the
representative's moved by g (lattice.permute_states), and its law under
mu S(t) the representative's laws against mu moved by g^-1: no invariance
of mu is assumed, and Dirac, product and fixed-boundary starts stay exact.
A family without orbits, or rates with no automorphism but the identity,
makes every member its own representative, and each evolves and reads its
own laws.
Constant family members are skipped by every scan, since ||delta f||_2 = 0
leaves their ratios undefined.

    exponential moments:  lhs <= D_t ||delta f||^2 + C_mu ||delta S(t)f||^2,
                          and C(mu S(t)) <= D_t + K(t) C_mu
    variances:            C(mu S(t)) <= C_mu K(t) + int C(sigma, t) dmu
    time-integrated:      Var under every start <= 2 chat int_0^t K(s)^2 ds
    (H, J, C):            int H(f - E f) d(mu S(t)) <= J((2 C_start
                          + 2 C_mu sqrt(K(t))) ||delta f||_2)

K(t) is the squared 2->2 norm of e^{t Gamma}, read from the rate model's
cached `dynamics.GammaResult` in closed form, e^{2 t alpha}: Gamma is normal
for translation-invariant rates on a torus, and one that is not raises, as
the theorems assume translation invariance.  The Lipschitz contraction runs
through the transposed matrix, which has the same singular values, so
one-sided bounds here are unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .dynamics import RateModel, engine_for, gamma_matrix
from .dynamics import k_of_t  # noqa: F401  (re-exported; tracers look it up here)
from .entropy import marginal
from .gibbs import probs_of
from .lattice import (
    Observable,
    Torus,
    bit_tensor,
    lipschitz_norm,
    lipschitz_vector,
    lipschitz_vector_dense,
    permute_states,
)

DEFAULT_LAMBDA_GRID = tuple(
    s * 0.25 * 2**k for k in range(4) for s in (1.0, -1.0)
)

# float slack of every conservation check's comparison of a measured side
# with its bound
_TOL = 1e-9


def product_gcb_constant() -> float:
    """Valid GCB constant for every product measure on +-1 spins: the
    Hoeffding bound gives each conditional increment the moment factor
    e^{delta_i^2 / 8}, and the factors tensorize."""
    return 0.125


def product_uvb_constant() -> float:
    """Valid UVB constant for every product measure on +-1 spins, by the
    Efron-Stein inequality: Var <= sum_i (delta_i / 2)^2."""
    return 0.25


class TestFunctionFamily:
    """Finite family of observables plus a lambda-grid of scale multipliers.

    Empirical constants maximize over members x grid; deterministic from the
    seed so reports are reproducible.
    """

    __test__ = False  # keeps pytest from collecting the class by its name

    def __init__(self, members, lambda_grid=DEFAULT_LAMBDA_GRID, label="family"):
        self.members = list(members)
        if not self.members:
            raise ValueError("family must be nonempty")
        self.lambda_grid = tuple(float(l) for l in lambda_grid)
        if any(l == 0 for l in self.lambda_grid):
            raise ValueError("zero scale makes the ratio undefined")
        self.label = label
        # _Orbits per group of site maps, with the members they were found for
        self._orbits = {}

    def __len__(self):
        return len(self.members)

    @classmethod
    def monomials(cls, torus: Torus, k_max: int, max_count: int = 40, lambda_grid=DEFAULT_LAMBDA_GRID):
        """All sigma_A with 1 <= |A| <= k_max in lexicographic order, capped
        at max_count >= 1 members."""
        if max_count <= 0:
            raise ValueError(f"max_count {max_count} leaves no room for a member")
        members = []
        for size in range(1, k_max + 1):
            for sites in combinations(torus.sites(), size):
                members.append(Observable.monomial(torus, sites))
                if len(members) >= max_count:
                    return cls(members, lambda_grid, f"monomials:{k_max}")
        return cls(members, lambda_grid, f"monomials:{k_max}")

    @classmethod
    def random_combinations(
        cls,
        torus: Torus,
        count: int,
        seed: int,
        max_terms: int = 3,
        k_max: int = 3,
        lambda_grid=DEFAULT_LAMBDA_GRID,
    ):
        """Seeded sparse monomial combinations with coefficients in [-1, 1]."""
        if k_max > torus.n_sites:
            raise ValueError(f"k_max {k_max} exceeds the {torus.n_sites} sites")
        rng = np.random.default_rng(seed)
        members = []
        for _ in range(count):
            n_terms = int(rng.integers(1, max_terms + 1))
            terms = []
            for _ in range(n_terms):
                size = int(rng.integers(1, k_max + 1))
                sites = rng.choice(torus.n_sites, size=size, replace=False)
                terms.append((float(rng.uniform(-1.0, 1.0)), [int(s) for s in sites]))
            members.append(Observable.monomial_sum(torus, terms))
        return cls(members, lambda_grid, f"random:{count}:{seed}")

    def labeled(self):
        for idx, f in enumerate(self.members):
            yield f"f{idx}[{','.join(map(str, f.support))}]", f


@dataclass
class ConcentrationReport:
    kind: str  # "gcb" or "uvb"
    best_constant: float
    best_label: str
    rows: list = field(repr=False)
    bound: float | None = None
    violations: list = field(default_factory=list)
    family_label: str = ""

    @property
    def holds(self) -> bool:
        return not self.violations


def _scan(kind: str, mu, family: TestFunctionFamily, bound, lams) -> ConcentrationReport:
    """One report row per (member, lam): the log-moment at lam over lam^2
    ||delta f||_2^2, or with lam None the variance over ||delta f||_2^2, read
    from the member's law under mu, the push-forward of mu's marginal on its
    support.  The members are the family's cached _Orbits under the
    identity alone, so a bitwise copy of an earlier member reads that
    member's law.  The best label is the first row's within 1e-12 relative
    of the largest ratio, so members that tie up to rounding (the translates
    of one member under a translation-invariant mu) name the first of them,
    whichever route evolved mu."""
    probs = probs_of(mu)
    orbits = _orbits(family, np.arange(family.members[0].torus.n_sites)[None, :])
    law = [np.bincount(at, weights=marginal(probs, f.support), minlength=levels.size)
           for f, (levels, at) in zip(orbits.fs, orbits.tables)]
    laws = _Laws(orbits.tables, np.concatenate(law)[:, None])
    l2sq = orbits.rep_l2sq
    ratios = orbits.spread(np.array([
        laws.variance()[:, 0] / l2sq if lam is None else laws.log_moment(lam)[:, 0] / (lam * lam * l2sq) for lam in lams
    ]))
    rows = [
        {"label": label, "lam": lam, "ratio": ratio, "lipschitz_sq": w}
        for label, w, row in zip(orbits.labels, orbits.l2sq.tolist(), ratios.T.tolist())
        for lam, ratio in zip(lams, row)
    ]
    best = max(rows, key=lambda r: r["ratio"])
    top = best["ratio"]
    # an infinite top ties nothing (inf - inf is NaN) and keeps its own row
    first = next((r for r in rows if r["ratio"] >= top - 1e-12 * abs(top)), best)
    violations = []
    if bound is not None:
        violations = [r for r in rows if r["ratio"] > bound * (1 + 1e-9) + 1e-12]
    return ConcentrationReport(kind, top, first["label"], rows, bound, violations, family.label)


def empirical_gcb_constant(
    mu, family: TestFunctionFamily, bound: float | None = None
) -> ConcentrationReport:
    """C-hat = max over members x lambda-grid of the ratio
    log E_mu e^{lambda (f - E_mu f)} / (lambda^2 ||delta f||_2^2).
    A lower bound on any valid GCB constant for mu."""
    return _scan("gcb", mu, family, bound, family.lambda_grid)


def check_uvb(
    mu, family: TestFunctionFamily, bound: float | None = None
) -> ConcentrationReport:
    """C-hat_var = max over members of Var_mu(f) / ||delta f||_2^2.
    Scale invariant, so the lambda-grid plays no role here."""
    return _scan("uvb", mu, family, bound, (None,))


@dataclass
class PsiReport:
    t: float
    steps: int
    direct_sup: float
    integral_sup: float
    gap: float


def psi_identity_check(rates: RateModel, t: float, f: Observable, steps: int = 64) -> PsiReport:
    """psi(t; f, f) = S(t)(f^2) - (S(t)f)^2 against the variation-of-constants
    form 2 int_0^t S(t-s) Gamma_half(S(s)f, S(s)f) ds, composite Simpson in s.
    Gamma_half is the halved quadratic form (L(f^2) - 2 f L f)/2, so with the
    unhalved carre du champ sum_i c(i, .) (f(.^i) - f)^2 tabulated here the
    prefactor is one.  The gap shrinks at fourth order in the step count."""
    if t < 0:
        raise ValueError("t must be >= 0")
    engine = engine_for(rates)
    v = f.dense_values()
    ex, ex2 = engine.evolve_functions(np.column_stack([v, v * v]), t).T
    direct = ex2 - ex**2
    if t == 0:
        return PsiReport(0.0, 0, float(np.max(np.abs(direct))), 0.0, float(np.max(np.abs(direct))))
    if steps < 2 or steps % 2:
        raise ValueError("steps must be even and >= 2")
    h = float(t) / steps
    n = rates.torus.n_sites

    def gamma_of(vals):
        tensor = bit_tensor(vals, n)
        out = np.zeros(vals.size)
        for i, rate in enumerate(engine.rate_table):
            diff = (np.flip(tensor, n - 1 - i) - tensor).reshape(-1)
            out += rate * (diff * diff)
        return out

    # composite Simpson: 1, 4, 2, ..., 2, 4, 1 times h / 3
    weights = np.full(steps + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    weights *= h / 3.0

    g_acc = np.column_stack([v, weights[0] * gamma_of(v)])
    for k in range(1, steps + 1):
        g_acc = engine.evolve_functions(g_acc, h)
        g_acc[:, 1] += weights[k] * gamma_of(g_acc[:, 0])
    integral = g_acc[:, 1]
    gap = float(np.max(np.abs(direct - integral)))
    return PsiReport(float(t), steps, float(np.max(np.abs(direct))), float(np.max(np.abs(integral))), gap)


class _Laws:
    """Member laws P(f = l), one row per level (each member's levels a
    contiguous run) and one column per measure: every Dirac start, mu S(t),
    or one measure's support marginals.  `tables` holds each member's
    (levels, level index of every table pattern).  Readers sum over a
    member's levels by products with the 0/1 (members, levels) matrix
    `member`, giving (members, measures); `runs` lists each member's levels,
    padded with its last, for maxima."""

    def __init__(self, tables, law: np.ndarray):
        self.tables, self.law = tables, law
        sizes = np.array([levels.size for levels, _ in tables])
        self.levels = np.concatenate([levels for levels, _ in tables])
        self.owner = np.repeat(np.arange(sizes.size), sizes)
        self.member = np.equal.outer(np.arange(sizes.size), self.owner).astype(float)
        self.runs = np.cumsum(sizes)[:, None] - np.maximum(sizes[:, None] - np.arange(sizes.max()), 1)
        self.mean = self.total(self.levels)

    def total(self, x: np.ndarray) -> np.ndarray:
        """sum_l law_l x_l, x per level or per level and measure"""
        return (self.member * x) @ self.law if x.ndim == 1 else self.member @ (self.law * x)

    def centered(self, lam: float) -> np.ndarray:
        return lam * (self.levels[:, None] - self.mean[self.owner])

    def h_integral(self, h, lam: float) -> np.ndarray:
        """E h(lam (f - E f)), where h may overflow to +inf: a level of no
        mass adds 0, and a member whose charged levels meet inf reads inf,
        without a product 0 * inf in the others' sums"""
        v = np.where(self.law != 0, h(self.centered(lam)), 0.0)
        inf = np.isposinf(v)
        return np.where(self.member @ inf > 0, np.inf, self.total(np.where(inf, 0.0, v)))

    def log_moment(self, lam: float) -> np.ndarray:
        """log E e^{lam (f - E f)}, each sum shifted by the member's largest
        lam l of positive mass under that measure; a level of no mass adds
        e^{-inf} = 0, so a point mass reads 0 at every lam"""
        x = np.where(self.law > 0, lam * self.levels[:, None], -np.inf)
        top = x[self.runs].max(axis=1)
        return np.log(self.total(np.exp(x - top[self.owner]))) + (top - lam * self.mean)

    def variance(self) -> np.ndarray:
        return self.total(self.centered(1.0) ** 2)

    def mean_lipschitz(self) -> np.ndarray:
        """||delta E f||_2 per member, E f read as a function of the start"""
        n = self.law.shape[1].bit_length() - 1
        return np.array([lipschitz_norm(lipschitz_vector_dense(n, v), 2.0) for v in self.mean])


class _Orbits:
    """The non-constant members of a family on the orbits of a group of site
    maps, identity first: the rate automorphisms for the checks, the
    identity alone for the scans.  Member m is its
    representative r = of[m] moved by its own map g, a row of `group`:
    f_m(s) = f_r(g(s)), g(s) carrying the spin at site i to site g[i], as
    lattice.permute_states moves a state vector.  A member joins the first
    earlier representative and the first map for which that holds exactly:
    g maps its support onto the representative's and the re-keyed tables
    are bitwise equal, so a family need not be closed under the group.  A
    representative is its own image under the identity.

    As g commutes with S(t), f_m's law under the start s is f_r's under
    g(s): a maximum over starts is the representative's, a per-start vector
    is the representative's moved by g, and the law under mu S(t) is f_r's
    laws against mu moved by g^-1, s -> mu(g^-1(s)).  `labels` and `l2sq`
    are per member (||delta f||_2^2 is the representative's, as g permutes
    sites); `fs`, `tables` (levels, level index of every pattern of the
    member's table: each pattern covers as many states, so the table gives
    the levels and their frequencies), `rep_l2sq` and `rows` (each one's
    law rows) per representative; `groups` lists (map index, its members)
    per map in use, the identity first."""

    def __init__(self, family: TestFunctionFamily, group: np.ndarray):
        members = family.members
        # rank[k, i]: the key bit of site i in representative k's table, -1
        # off its support; reps[k] and rep_of[m] index members
        reps, rank, sizes, rep_of, maps = [], np.zeros((0, group.shape[1]), dtype=np.intp), [], [], []
        for m, f in enumerate(members):
            sup = np.array(f.support, dtype=np.intp)
            # every map at once: g maps the support onto a representative's
            # when the images of its sites lie in it and the sizes agree
            pos = rank[:, group[:, sup]]
            k, g = np.nonzero((pos >= 0).all(axis=2) & (np.array(sizes, dtype=int) == sup.size)[:, None])
            # then the tables of those candidates: key bit j of f is key bit
            # pos[k, g, j] of the representative
            bits = (np.arange(1 << sup.size)[:, None] >> np.arange(sup.size)) & 1
            tables = np.array([members[reps[c]].table for c in k]).reshape(k.size, bits.shape[0])
            hit = np.flatnonzero((tables[np.arange(k.size), bits @ (1 << pos[k, g]).T] == f.table[:, None]).all(axis=0))
            if hit.size:
                rep_of.append(reps[k[hit[0]]])
                maps.append(g[hit[0]])
            else:
                rep_of.append(m)
                maps.append(0)
                reps.append(m)
                rank = np.vstack([rank, np.full(group.shape[1], -1)])
                rank[-1, sup] = np.arange(sup.size)
                sizes.append(sup.size)
        l2sq = np.array([lipschitz_norm(lipschitz_vector(members[r]), 2.0) ** 2 for r in reps])
        if not np.any(l2sq > 0):
            raise ValueError("family contains only constant functions")
        kept = [r for r, w in zip(reps, l2sq) if w > 0]
        self.rep_l2sq, self.fs = l2sq[l2sq > 0], [members[r] for r in kept]
        self.tables = [np.unique(f.table, return_inverse=True) for f in self.fs]
        row = {r: k for k, r in enumerate(kept)}
        keep = [m for m, r in enumerate(rep_of) if r in row]
        labels = [label for label, _ in family.labeled()]
        self.labels = [labels[m] for m in keep]
        self.of = np.array([row[rep_of[m]] for m in keep])
        self.l2sq = self.rep_l2sq[self.of]
        ends = np.cumsum([levels.size for levels, _ in self.tables])
        self.rows = [np.arange(end - levels.size, end) for end, (levels, _) in zip(ends, self.tables)]
        self.group = group
        maps = np.array([maps[m] for m in keep])
        self.groups = [(g, np.flatnonzero(maps == g)) for g in np.unique(maps)]

    def spread(self, x: np.ndarray) -> np.ndarray:
        """Per representative along the last axis to per member"""
        return x[..., self.of]

    def measures(self, probs: np.ndarray):
        """(members, mu moved by g^-1) for each group's map g, one at a time"""
        n = self.group.shape[1]
        for g, ms in self.groups:
            yield ms, permute_states(probs, n, np.argsort(self.group[g])) if g else probs

    def max_over_members(self, per_start: np.ndarray) -> np.ndarray:
        """The largest member's value at each start, from one row per
        representative: each group's representatives' maximum, moved by its
        map"""
        n = self.group.shape[1]
        return np.max([permute_states(per_start[self.of[ms]].max(axis=0), n, self.group[g]) for g, ms in self.groups],
                      axis=0)

    def under(self, laws: "_Laws", probs: np.ndarray) -> "_Laws":
        """Every member's laws under mu S(t), one column: its
        representative's laws against mu moved by g^-1"""
        parts = [None] * self.of.size
        for ms, moved in self.measures(probs):
            law = laws.law @ moved
            for m in ms:
                parts[m] = law[self.rows[self.of[m]]]
        return _Laws([self.tables[r] for r in self.of], np.concatenate(parts)[:, None])


def _orbits(family: TestFunctionFamily, group: np.ndarray) -> _Orbits:
    """The family's _Orbits under the site maps of group, kept on the family
    per group while its members stay the same objects"""
    members, orbits = family._orbits.get(group.tobytes(), ((), None))
    if orbits is None or len(members) != len(family.members) or any(
        a is not b for a, b in zip(members, family.members)
    ):
        orbits = _Orbits(family, group)
        family._orbits[group.tobytes()] = (tuple(family.members), orbits)
    return orbits


def family_summary(rates: RateModel, family: TestFunctionFamily) -> dict:
    """What a conservation check reads of the family under these rates: its
    non-constant members, their orbits under the rate automorphisms and the
    law columns one check evolves"""
    orbits = _orbits(family, rates.automorphisms)
    columns = sum(levels.size - 1 for levels, _ in orbits.tables)
    return {"members": len(orbits.labels), "orbits": len(orbits.fs), "law_columns": columns}


def _member_laws(rates: RateModel, t: float, family: TestFunctionFamily):
    """The family's _Orbits under the rate automorphisms and the laws under
    every Dirac start of their representatives, from one batched
    evolution.  A representative evolves
    c_l = 2 1{f = l} - 1 for each level l but its most frequent (a monomial
    is its own c_l, one half-column under the fold) and reads P(f = l) =
    (1 + S(t)c_l)/2, the dropped level's as 1 minus the others.  In exact
    arithmetic the truncated series sum_k w_k P^k (P stochastic, >= 0; W =
    sum_k w_k) maps c_l into [-W, W]: for k evolved levels an entry is off by
    at most k (1 - W)/2 (1 - W <= tail_tol) plus rounding, a few 2^-53 per
    term, and negative by at most (k/2 - 1)(1 - W) plus rounding.  A reader
    carries that error times the range it sums, far inside _TOL: no clip."""
    orbits = _orbits(family, rates.automorphisms)
    tables = orbits.tables
    dropped = [int(np.argmax(np.bincount(at))) for _, at in tables]
    columns = [Observable(f.torus, f.support, 2.0 * (at == k) - 1.0).dense_values()
               for f, (levels, at), d in zip(orbits.fs, tables, dropped) for k in range(levels.size) if k != d]
    evolved = (1.0 + engine_for(rates).evolve_functions(np.column_stack(columns), t).T) / 2.0
    parts = np.split(evolved, np.cumsum([levels.size - 1 for levels, _ in tables])[:-1])
    law = np.vstack([np.insert(part, d, 1.0 - part.sum(axis=0), axis=0) for part, d in zip(parts, dropped)])
    return orbits, _Laws(tables, law)


@dataclass
class TheoremReport:
    theorem: str
    t: float
    k_t: float
    c_mu: float
    inner_constant: float  # D_t, int C(sigma,t) dmu, 2 chat int K^2, or C_start
    composite_constant: float
    measured_constant: float
    rows: list = field(repr=False)
    holds: bool = True


def theorem31_check(rates: RateModel, t: float, mu, family: TestFunctionFamily, c_mu: float) -> TheoremReport:
    """Exponential-moment conservation.  D_t is the exact max over all Dirac
    starts and the family; the per-function bound and the composite constant
    D_t + K(t) C_mu are asserted.  c_mu must be a GCB constant valid for every
    function (certified, not empirical).

    The log-moment of lambda f under nu is log sum_l nu(f = l) e^{lambda l - m}
    + m - lambda nu(f), m the largest lambda l that nu charges: the member
    laws under every start and under mu S(t) give it at every lambda of the
    grid."""
    probs = probs_of(mu)
    orbits, laws = _member_laws(rates, t, family)
    at_mu = orbits.under(laws, probs)
    lams = np.array(family.lambda_grid)
    # a member's maximum over starts is its representative's
    start_max = np.array([laws.log_moment(lam).max(axis=1) for lam in lams])
    d_t = max(0.0, float(np.max(start_max / np.outer(lams * lams, orbits.rep_l2sq))))
    l2sq_t = orbits.spread(laws.mean_lipschitz() ** 2)
    lhs_all = np.array([at_mu.log_moment(lam)[:, 0] for lam in lams]).T
    measured = max(0.0, float(np.max(lhs_all / np.outer(orbits.l2sq, lams * lams))))
    rows = []
    for label, w, w_t, lhs_row in zip(orbits.labels, orbits.l2sq.tolist(), l2sq_t.tolist(), lhs_all.tolist()):
        for lam, lhs in zip(family.lambda_grid, lhs_row):
            rhs = d_t * lam * lam * w + c_mu * lam * lam * w_t
            rows.append({"label": label, "lam": lam, "lhs": lhs, "rhs": rhs, "ok": lhs <= rhs + _TOL})
    k_t = gamma_matrix(rates).k_of_t(t)
    composite = d_t + k_t * c_mu
    holds = all(r["ok"] for r in rows) and measured <= composite + _TOL
    return TheoremReport("31", float(t), k_t, c_mu, d_t, composite, measured, rows, holds)


def _ratio_rows(labels, ratios: np.ndarray, bound: float):
    """A variance check's rows, its measured constant and whether it holds"""
    rows = [{"label": l, "ratio": r, "bound": bound, "ok": r <= bound + _TOL} for l, r in zip(labels, ratios.tolist())]
    return rows, max(0.0, *ratios.tolist()), all(r["ok"] for r in rows)


def theorem52_check(rates: RateModel, t: float, mu, family: TestFunctionFamily, c_mu: float) -> TheoremReport:
    """Variance conservation: measured UVB constant of mu S(t) against
    C_mu K(t) + int C(sigma, t) dmu(sigma), the start integral taken over the
    initial measure.  c_mu must be a UVB constant valid for every function.
    Both sides read the member laws."""
    probs = probs_of(mu)
    orbits, laws = _member_laws(rates, t, family)
    c_sigma = orbits.max_over_members(laws.variance() / orbits.rep_l2sq[:, None])
    avg_start = float(probs @ c_sigma)
    k_t = gamma_matrix(rates).k_of_t(t)
    composite = c_mu * k_t + avg_start
    ratios = orbits.under(laws, probs).variance()[:, 0] / orbits.l2sq
    rows, measured, holds = _ratio_rows(orbits.labels, ratios, composite)
    return TheoremReport("52", float(t), k_t, c_mu, avg_start, composite, measured, rows, holds)


@dataclass
class TimeIntegratedConstant:
    t: float
    c_hat: float
    integral: float  # int_0^t K(s)^2 ds
    constant: float


def theorem53_constant(rates: RateModel, t: float) -> TimeIntegratedConstant:
    """C = 2 chat int_0^t K(s)^2 ds, a UVB constant for delta_sigma S(t)
    uniform in the start sigma; the integral is the closed form
    t exprel(4 alpha t)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    chat = rates.max_rate()
    q = gamma_matrix(rates).k_squared_integral(t)
    return TimeIntegratedConstant(float(t), chat, q, 2.0 * chat * q)


def theorem53_check(rates: RateModel, t: float, family: TestFunctionFamily) -> TheoremReport:
    """Exhaustive check that every Dirac start satisfies the UVB with the
    time-integrated constant."""
    c = theorem53_constant(rates, t).constant
    orbits, laws = _member_laws(rates, t, family)
    rows, measured, holds = _ratio_rows(orbits.labels, orbits.spread(laws.variance().max(axis=1) / orbits.rep_l2sq), c)
    k_t = gamma_matrix(rates).k_of_t(t)
    return TheoremReport("53", float(t), k_t, 0.0, c, c, measured, rows, holds)


class HJCSpec:
    """Convex H and increasing J with its inverse, for the inequality
    int H(f - E f) dmu <= J(C ||delta f||_2), whose constant C hjc_check
    measures.  h, j and j_inv act elementwise on arrays."""

    def __init__(self, h, j, j_inv, label: str = "custom"):
        self.h = h
        self.j = j
        self.j_inv = j_inv
        self.label = label
        self._verify()

    def _verify(self, lo: float = -6.0, hi: float = 6.0, n: int = 241):
        # an H or J past the float range reads inf, and differences of infs
        # nan, on the grid; the checks read those values as they are
        with np.errstate(over="ignore", invalid="ignore"):
            if np.any(np.diff(self.h(np.linspace(lo, hi, n)), 2) < -1e-9):
                raise ValueError("H fails the convexity grid check")
            if np.any(np.diff(self.j(np.linspace(0.0, hi, n))) < -1e-12):
                raise ValueError("J fails the monotonicity grid check")
            ys = np.array([0.1, 1.0, 3.0])
            if np.any(np.abs(self.j_inv(self.j(ys)) - ys) > 1e-8):
                raise ValueError("J inverse fails the roundtrip check")


# the exponents p for which |x|^p and y^p make an (H, J) pair
ABS_P_RANGE = "need 1 <= p < inf (|x|^p is convex only for p >= 1)"


def hjc_library(name: str) -> HJCSpec:
    """Builtins: 'square' (x^2, x^2), 'exponential' (cosh x - 1, e^x - 1),
    'abs_p:p' (|x|^p, x^p)."""
    if name == "square":
        return HJCSpec(lambda x: x * x, lambda y: y * y, np.sqrt, name)
    if name == "exponential":
        return HJCSpec(lambda x: np.cosh(x) - 1.0, np.expm1, np.log1p, name)
    if name.startswith("abs_p:"):
        p = float(name.split(":", 1)[1])
        if not 1 <= p < math.inf:
            raise ValueError(ABS_P_RANGE)
        return HJCSpec(lambda x: np.abs(x) ** p, lambda y: y**p, lambda m: m ** (1.0 / p), name)
    raise ValueError(f"unknown (H, J) pair {name!r}")


def hjc_check(rates: RateModel, t: float, mu, spec: HJCSpec, family: TestFunctionFamily) -> TheoremReport:
    """(H, J, C) conservation along the dynamics.  Per-start constants are
    measured on the doubled centered functions (the convexity split H(a + b)
    <= H(2a)/2 + H(2b)/2 is what the proof uses), and the composite

        int H(f - E f) d(mu S(t)) <= J((2 C_start + 2 C_mu sqrt(K(t))) ||delta f||_2)

    is asserted for every family member and scale.  H(f - E_sigma f) depends
    on the start through its own mean, so it is not S(t) applied to a fixed
    function; it is a sum over the levels of f against its law, which the
    member laws give for every start and under mu S(t)."""
    probs = probs_of(mu)
    k_t = gamma_matrix(rates).k_of_t(t)
    orbits, laws = _member_laws(rates, t, family)
    at_mu = orbits.under(laws, probs)
    scale = np.abs(family.lambda_grid)[:, None]
    l2 = scale * np.sqrt(orbits.l2sq)  # ||delta lambda f||_2 per lambda and member
    # H or J past the float range reads inf: such a bound is vacuous and its
    # row holds
    with np.errstate(over="ignore"):
        inner, lhs = [], []
        for lam in family.lambda_grid:
            # inner: every Dirac start, doubled centered function; J^-1 is
            # increasing, so the largest moment gives its max
            inner.append(orbits.spread(laws.h_integral(spec.h, 2.0 * lam).max(axis=1)))
            # left side under mu S(t)
            lhs.append(at_mu.h_integral(spec.h, lam)[:, 0])
        # outer: the evolved function g = S(t)(lambda f) under the initial
        # measure, a member's per-start means being its representative's
        # moved by g, so read against mu moved by g^-1 instead; at the starts
        # that charges only, so an H past the float range at a start of no
        # mass adds 0, not 0 * inf = NaN
        m_out = np.empty(l2.shape)
        for ms, p in orbits.measures(probs):
            charged = p > 0
            for k, lam in enumerate(family.lambda_grid):
                g = lam * laws.mean[orbits.of[ms]]
                m_out[k, ms] = spec.h(2.0 * (g[:, charged] - (g @ p)[:, None])) @ p[charged]
        c_start = float(np.max(spec.j_inv(np.array(inner)) / (2.0 * l2)))
        # a member constant to rounding after S(t) bounds nothing: 0 <= J(0)
        lip = scale * orbits.spread(laws.mean_lipschitz())
        ratios = spec.j_inv(m_out[lip > 0]) / (2.0 * lip[lip > 0])
        c_out = float(np.max(ratios)) if ratios.size else 0.0
        composite = 2.0 * c_start + 2.0 * c_out * math.sqrt(k_t)
        rhs = spec.j(composite * l2)
    rows = [
        {"label": label, "lam": lam, "lhs": lhs_one, "rhs": rhs_one, "ok": lhs_one <= rhs_one * (1 + 1e-9) + _TOL}
        for label, rhs_row, lhs_row in zip(orbits.labels, rhs.T.tolist(), np.transpose(lhs).tolist())
        for lam, rhs_one, lhs_one in zip(family.lambda_grid, rhs_row, lhs_row)
    ]
    holds = all(r["ok"] for r in rows)
    return TheoremReport("hjc", float(t), k_t, c_out, c_start, composite, c_start, rows, holds)
