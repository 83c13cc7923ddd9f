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
l of a member f against its law P(f = l).  One reader, `_Laws`, serves the
two scans and the four checks: law blocks of shape (members, levels,
measures), one per level count, so each reader is a reduction over a
block's level axis.  A two-level block holds every monomial sigma_A, and
reads p = P(f = l_0) in closed form: the log-moment is concave in p, so its
maximum over the Dirac starts is read at the two starts whose p lie on
either side of its maximizer.  A scan reads the law under its measure nu as
the push-forward of nu's marginal on f's support, 2^|support| patterns, not
f at every state.  Scans and checks prepare a family's members (||delta
f||_2^2, the level tables and the law columns) once, in the _Orbits the
family keeps per group of site maps: the rate automorphisms for a check,
the identity alone for a scan.

The pipelines measure the per-start constants the theorems quantify over,
exactly for every Dirac start, from one batched `evolve_functions` call of
the law columns (see _member_laws), and read mu S(t) by duality, <mu S(t),
g> = <mu, S(t) g>: no measure is evolved.  A rate automorphism g (a site
map carrying every rate term onto its image bitwise) commutes with S(t), so
a member f o g has under the start s the law f has under g(s): the checks
evolve one representative per orbit (_Orbits), and read its laws against mu
moved by g^-1, or against mu itself where that move leaves mu bitwise
equal.  Constant members are skipped, as ||delta f||_2 = 0 leaves their
ratios undefined.

    exponential moments:  lhs <= D_t ||delta f||^2 + C_mu ||delta S(t)f||^2,
                          and C(mu S(t)) <= D_t + K(t) C_mu
    variances:            C(mu S(t)) <= C_mu K(t) + int C(sigma, t) dmu
    time-integrated:      Var under every start <= 2 chat int_0^t K(s)^2 ds
    (H, J, C):            int H(f - E f) d(mu S(t)) <= J((2 C_start
                          + 2 C_mu sqrt(K(t))) ||delta f||_2)

K(t) = e^{2 t alpha} is the squared 2->2 norm of e^{t Gamma}, read from the
rate model's cached `dynamics.GammaResult`: Gamma is normal for
translation-invariant rates on a torus, and one that is not raises.  Its
transpose, through which the Lipschitz contraction runs, has the same
singular values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, islice

import numpy as np
from scipy.special import logsumexp

from .dynamics import RateModel, engine_for, gamma_matrix
from .dynamics import k_of_t  # noqa: F401  (re-exported; tracers look it up here)
from .entropy import marginal
from .gibbs import probs_of
from .lattice import Observable, Torus, bit_tensor, lipschitz_norm, lipschitz_vector
from .lattice import lipschitz_vector_dense, permute_states

DEFAULT_LAMBDA_GRID = tuple(s * 0.25 * 2**k for k in range(4) for s in (1.0, -1.0))

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
    """Finite family of observables plus a lambda-grid of scale multipliers:
    empirical constants maximize over members x grid."""

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
        supports = islice((s for size in range(1, k_max + 1) for s in combinations(torus.sites(), size)), max_count)
        return cls([Observable.monomial(torus, s) for s in supports], lambda_grid, f"monomials:{k_max}")

    @classmethod
    def random_combinations(cls, torus: Torus, count: int, seed: int, max_terms: int = 3, k_max: int = 3,
                            lambda_grid=DEFAULT_LAMBDA_GRID):
        """Seeded sparse monomial combinations with coefficients in [-1, 1]:
        per member a term count, then per term a size, its sites and its
        coefficient, drawn in that order."""
        if k_max > torus.n_sites:
            raise ValueError(f"k_max {k_max} exceeds the {torus.n_sites} sites")
        rng = np.random.default_rng(seed)

        def term():
            sites = rng.choice(torus.n_sites, size=int(rng.integers(1, k_max + 1)), replace=False)
            return float(rng.uniform(-1.0, 1.0)), [int(s) for s in sites]

        members = [Observable.monomial_sum(torus, [term() for _ in range(int(rng.integers(1, max_terms + 1)))])
                   for _ in range(count)]
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
    law = iter([np.bincount(at, weights=marginal(probs, f.support), minlength=levels.size)
                for f, (levels, at) in zip(orbits.fs, orbits.tables)])
    laws = _Laws(orbits.levels, [np.array([next(law) for _ in lv])[:, :, None] for lv in orbits.levels])
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
    violations = [] if bound is None else [r for r in rows if r["ratio"] > bound * (1 + 1e-9) + 1e-12]
    return ConcentrationReport(kind, top, first["label"], rows, bound, violations, family.label)


def empirical_gcb_constant(mu, family: TestFunctionFamily, bound: float | None = None) -> ConcentrationReport:
    """C-hat = max over members x lambda-grid of the ratio
    log E_mu e^{lambda (f - E_mu f)} / (lambda^2 ||delta f||_2^2).
    A lower bound on any valid GCB constant for mu."""
    return _scan("gcb", mu, family, bound, family.lambda_grid)


def check_uvb(mu, family: TestFunctionFamily, bound: float | None = None) -> ConcentrationReport:
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
    weights = np.array([1.0] + [4.0, 2.0] * (steps // 2 - 1) + [4.0, 1.0]) * (h / 3.0)

    g_acc = np.column_stack([v, weights[0] * gamma_of(v)])
    for k in range(1, steps + 1):
        g_acc = engine.evolve_functions(g_acc, h)
        g_acc[:, 1] += weights[k] * gamma_of(g_acc[:, 0])
    integral = g_acc[:, 1]
    gap = float(np.max(np.abs(direct - integral)))
    return PsiReport(float(t), steps, float(np.max(np.abs(direct))), float(np.max(np.abs(integral))), gap)


def _g(x: np.ndarray) -> np.ndarray:
    """e^x - 1 - x without cancellation: expm1(x) - x, off by at most 20
    ulps relative for |x| >= 0.1, and below that the series to x^10 by
    Horner's rule, whose tail is under 1e-16 relative"""
    out, small = np.expm1(x) - x, np.abs(x) < 0.1
    if small.any():
        out[small] = np.polyval([1.0 / math.factorial(k) for k in range(10, 1, -1)] + [0.0, 0.0], x[small])
    return out


class _Laws:
    """Member laws P(f = l) in blocks by level count, one column per measure
    (every Dirac start, mu S(t), or one measure's support marginals): block
    b holds `levels[b]` (members, L) and `law[b]` (members, L, measures), in
    member order, and every reader reduces a block's level axis.  A
    two-level block holds every monomial, its law p = P(f = l_0) and 1 - p."""

    def __init__(self, levels, law):
        self.levels, self.law = levels, law
        self.means = [np.add.reduce(lv[:, :, None] * lw, axis=1) for lv, lw in zip(levels, law)]
        self.mean = self._each(lambda lv, lw, m: m)

    def _each(self, read) -> np.ndarray:
        """read(levels, law, mean) of every block, rows in member order"""
        parts = [read(*block) for block in zip(self.levels, self.law, self.means)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def against(self, nu: np.ndarray) -> "_Laws":
        """The laws under the measure nu, one column: sum_s nu(s) P_s(f = l)"""
        return _Laws(self.levels, [(lw.reshape(-1, lw.shape[2]) @ nu).reshape(len(lw), -1, 1) for lw in self.law])

    def h_integral(self, h, lam: float) -> np.ndarray:
        """E h(lam (f - E f)), where h may overflow to +inf: a level of no
        mass adds 0, and a member whose charged levels meet inf reads inf,
        without a product 0 * inf in the others' sums"""

        def read(lv, lw, m):
            v = np.where(lw != 0, h(lam * (lv[:, :, None] - m[:, None, :])), 0.0)
            inf = np.isposinf(v)
            return np.where(inf.any(axis=1), np.inf, np.add.reduce(lw * np.where(inf, 0.0, v), axis=1))

        return self._each(read)

    def log_moment(self, lam: float) -> np.ndarray:
        """log E e^{lam (f - E f)} from the levels of positive mass: while a
        block's |lam (l - E f)| <= 700, log1p(sum_l P(f = l) g(lam (l - E f)))
        with g(x) = e^x - 1 - x >= 0, no cancellation at small lam; past that,
        where g may overflow, a log-sum-exp.  A point mass reads 0 at every lam."""

        def read(lv, lw, m):
            x = lam * (lv[:, :, None] - m[:, None, :])
            if abs(lam) * (lv.max() - lv.min()) <= 700.0:
                return np.log1p(np.add.reduce(np.where(lw > 0, lw * _g(x), 0.0), axis=1))
            return logsumexp(np.where(lw > 0, x, -np.inf), axis=1, b=lw)

        return self._each(read)

    def peak_log_moment(self, lam: float) -> np.ndarray:
        """log_moment(lam).max(axis=1).  A two-level member reads log(1 - p
        + p e^a) - a p, a = lam (l_0 - l_1), concave in p with its maximum at
        p* = 1/a - 1/(e^a - 1), so it peaks at the nearest p on either side of
        p*.  A p* off by d moves the peak by about 4 d^2 relative: p* = 1/2 -
        a/12 below |a| = 1e-3 (d <= a^3/720) serves."""
        peaks = []
        for lv, lw in zip(self.levels, self.law):
            if lv.shape[1] == 2:
                p, a = lw[:, 0], lam * (lv[:, 0] - lv[:, 1])
                star = np.where(np.abs(a) < 1e-3, 0.5 - a / 12.0, 1.0 / a - 1.0 / np.expm1(np.minimum(a, 700.0)))
                below = p <= star[:, None]
                p = np.array([np.maximum.reduce(np.where(below, p, -np.inf), axis=1),
                              np.minimum.reduce(np.where(below, np.inf, p), axis=1)]).T
                p = np.where(np.isinf(p), p[:, ::-1], p)  # an empty side takes the other's
                lw = np.stack([p, 1.0 - p], axis=1)
            peaks.append(np.maximum.reduce(_Laws([lv], [lw]).log_moment(lam), axis=1))
        return np.concatenate(peaks)

    def variance(self) -> np.ndarray:
        """Var f; a two-level block's (l_0 - l_1)^2 p (1 - p) peaks at the p nearest 1/2"""

        def read(lv, lw, m):
            if lv.shape[1] == 2:
                return ((lv[:, 0] - lv[:, 1]) ** 2)[:, None] * (lw[:, 0] * lw[:, 1])
            return np.add.reduce(lw * (lv[:, :, None] - m[:, None, :]) ** 2, axis=1)

        return self._each(read)

    def mean_lipschitz(self) -> np.ndarray:
        """||delta E f||_2 per member, E f read as a function of the start"""
        n = self.mean.shape[1].bit_length() - 1
        return np.sqrt(np.add.reduce(lipschitz_vector_dense(n, self.mean) ** 2, axis=1))


class _Orbits:
    """The non-constant members of a family on the orbits of a group of site
    maps, identity first.  Member m is its representative r = of[m] moved by
    its own map g, a row of `group`: f_m(s) = f_r(g(s)), g(s) carrying the
    spin at site i to site g[i], as lattice.permute_states moves a state
    vector.  A member joins the first earlier representative and the first
    map for which that holds exactly: g maps its support onto the
    representative's and the re-keyed tables are bitwise equal.  `labels`
    and `l2sq` are per member; `fs`, `rep_l2sq` and `tables` (levels, level
    index of every table pattern, each covering as many states) per
    representative, in order of level count, most frequent level last;
    `levels` the (representatives, L) levels per count, the blocks of
    _Laws; `groups` (map index, its members) per map in use, identity first."""

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
        l2sq = {r: lipschitz_norm(lipschitz_vector(members[r]), 2.0) ** 2 for r in reps}
        if not any(w > 0 for w in l2sq.values()):
            raise ValueError("family contains only constant functions")
        tables = {r: np.unique(members[r].table, return_inverse=True) for r in reps if l2sq[r] > 0}
        kept = sorted(tables, key=lambda r: tables[r][0].size)
        self.fs, self.rep_l2sq, self.tables = [members[r] for r in kept], np.array([l2sq[r] for r in kept]), []
        for levels, at in (tables[r] for r in kept):
            d = int(np.argmax(np.bincount(at)))
            order = np.r_[np.arange(d), np.arange(d + 1, levels.size), d]
            self.tables.append((levels[order], np.argsort(order)[at]))
        counts = sorted({levels.size for levels, _ in self.tables})
        self.levels = [np.array([lv for lv, _ in self.tables if lv.size == c]) for c in counts]
        row = {r: k for k, r in enumerate(kept)}
        keep = [m for m, r in enumerate(rep_of) if r in row]
        self.labels = [label for m, (label, _) in enumerate(family.labeled()) if rep_of[m] in row]
        self.of, self.group = np.array([row[rep_of[m]] for m in keep]), group
        self.l2sq = self.rep_l2sq[self.of]
        maps = np.array([maps[m] for m in keep])
        self.groups = [(g, np.flatnonzero(maps == g)) for g in np.unique(maps)]

    @cached_property
    def columns(self) -> np.ndarray:
        """The law columns every check evolves, read-only: c_l = 2 1{f = l} -
        1 at every state for each level l but the last of each representative"""
        cols = np.column_stack([Observable(f.torus, f.support, 2.0 * (at == k) - 1.0).dense_values()
                                for f, (levels, at) in zip(self.fs, self.tables) for k in range(levels.size - 1)])
        cols.setflags(write=False)
        return cols

    def spread(self, x: np.ndarray) -> np.ndarray:
        """Per representative along the last axis to per member"""
        return x[..., self.of]

    def measures(self, probs: np.ndarray):
        """(members, mu moved by g^-1) for each map g in use, one at a time;
        a map whose moved mu equals mu bitwise, as every map's does when mu
        is constant, joins the identity, whose members read mu itself, last"""
        n, plain, constant = self.group.shape[1], [self.groups[0][1]], probs.min() == probs.max()
        for g, ms in self.groups[1:]:
            moved = probs if constant else permute_states(probs, n, np.argsort(self.group[g]))
            if moved is probs or np.array_equal(moved, probs):
                plain.append(ms)
            else:
                yield ms, moved
        yield np.concatenate(plain), probs

    def per_measure(self, probs: np.ndarray, read) -> np.ndarray:
        """read(rows, nu), (..., len(rows)) for the sorted representatives
        rows under a measure nu, per member: each of measures' moved mu once,
        at the representatives of its members"""
        out = None
        for ms, nu in self.measures(probs):
            rows, at = np.unique(self.of[ms], return_inverse=True)
            values = read(rows, nu)[..., at]
            out = np.empty(values.shape[:-1] + self.of.shape) if out is None else out
            out[..., ms] = values
        return out

    def max_over_members(self, per_start: np.ndarray) -> np.ndarray:
        """The largest member's value at each start, from one row per
        representative: each group's representatives' maximum, moved by its
        map"""
        n = self.group.shape[1]
        return np.max([permute_states(per_start[self.of[ms]].max(axis=0), n, self.group[g]) for g, ms in self.groups],
                      axis=0)


def _orbits(family: TestFunctionFamily, group: np.ndarray) -> _Orbits:
    """The family's _Orbits under the site maps of group, kept on the family
    per group while its members stay the same objects"""
    members, orbits = family._orbits.get(group.tobytes(), ((), None))
    same = len(members) == len(family.members) and all(a is b for a, b in zip(members, family.members))
    if orbits is None or not same:
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
    every Dirac start of their representatives, from one batched evolution of
    the cached columns c_l = 2 1{f = l} - 1, each level l but the most
    frequent (a monomial is its own c_l, one half-column under the fold):
    P(f = l) = (1 + S(t)c_l)/2, the dropped level's 1 minus the others.  In exact
    arithmetic the truncated series sum_k w_k P^k (P stochastic, >= 0; W =
    sum_k w_k) maps c_l into [-W, W]: for k evolved levels an entry is off by
    at most k (1 - W)/2 (1 - W <= tail_tol) plus rounding, a few 2^-53 per
    term, and negative by at most (k/2 - 1)(1 - W) plus rounding.  A reader
    carries that error times the range it sums, far inside _TOL: no clip."""
    orbits = _orbits(family, rates.automorphisms)
    evolved = engine_for(rates).evolve_functions(orbits.columns, t)
    # one row per column, each block's rows (members, levels - 1) in a run
    kept = np.add(evolved.T, 1.0, order="C")
    kept *= 0.5
    law, at = [], 0
    for levels in orbits.levels:
        part = kept[at : at + levels.size - len(levels)].reshape(len(levels), levels.shape[1] - 1, -1)
        at += part.shape[0] * part.shape[1]
        law.append(np.concatenate([part, 1.0 - part.sum(axis=1, keepdims=True)], axis=1))
    return orbits, _Laws(orbits.levels, law)


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
    function (certified, not empirical).  The member laws under every start
    and under mu S(t) give the log-moment at every lambda of the grid."""
    probs = probs_of(mu)
    orbits, laws = _member_laws(rates, t, family)
    lams = np.array(family.lambda_grid)
    # a member's maximum over starts is its representative's
    start_max = np.array([laws.peak_log_moment(lam) for lam in lams])
    d_t = max(0.0, float(np.max(start_max / np.outer(lams * lams, orbits.rep_l2sq))))
    l2sq_t = orbits.spread(laws.mean_lipschitz() ** 2)

    def at_mu(rows, nu):
        at = laws.against(nu)
        return np.array([at.log_moment(lam)[rows, 0] for lam in lams])

    lhs_all = orbits.per_measure(probs, at_mu).T
    measured = max(0.0, float(np.max(lhs_all / np.outer(orbits.l2sq, lams * lams))))
    rows = [{"label": label, "lam": lam, "lhs": lhs, "rhs": rhs, "ok": lhs <= rhs + _TOL}
            for label, w, w_t, lhs_row in zip(orbits.labels, orbits.l2sq.tolist(), l2sq_t.tolist(), lhs_all.tolist())
            for lam, lhs in zip(family.lambda_grid, lhs_row) for rhs in [d_t * lam * lam * w + c_mu * lam * lam * w_t]]
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
    ratios = orbits.per_measure(probs, lambda rows, nu: laws.against(nu).variance()[rows, 0]) / orbits.l2sq
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
        self.h, self.j, self.j_inv, self.label = h, j, j_inv, label
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
    lams = family.lambda_grid
    scale = np.abs(lams)[:, None]
    l2 = scale * np.sqrt(orbits.l2sq)  # ||delta lambda f||_2 per lambda and member

    def at_mu(rows, nu):
        # the left side under mu S(t), then the outer: g = S(t)(lambda f) under
        # the initial measure, at the starts it charges only, so an H past the
        # float range at a start of no mass adds 0, not 0 * inf = NaN
        at, charged = laws.against(nu), nu > 0
        outer = (lam * laws.mean[rows] for lam in lams)
        return np.array([at.h_integral(spec.h, lam)[rows, 0] for lam in lams]
                        + [spec.h(2.0 * (g[:, charged] - (g @ nu)[:, None])) @ nu[charged] for g in outer])

    # H or J past the float range reads inf: such a bound is vacuous and its
    # row holds
    with np.errstate(over="ignore"):
        # inner: every Dirac start, doubled centered function; J^-1 is
        # increasing, so the largest moment gives its max
        inner = [orbits.spread(laws.h_integral(spec.h, 2.0 * lam).max(axis=1)) for lam in lams]
        lhs, m_out = np.split(orbits.per_measure(probs, at_mu), 2)
        c_start = float(np.max(spec.j_inv(np.array(inner)) / (2.0 * l2)))
        # a member constant to rounding after S(t) bounds nothing: 0 <= J(0)
        lip = scale * orbits.spread(laws.mean_lipschitz())
        ratios = spec.j_inv(m_out[lip > 0]) / (2.0 * lip[lip > 0])
        c_out = float(np.max(ratios)) if ratios.size else 0.0
        composite = 2.0 * c_start + 2.0 * c_out * math.sqrt(k_t)
        rhs = spec.j(composite * l2)
    rows = [{"label": label, "lam": lam, "lhs": lhs_one, "rhs": rhs_one, "ok": lhs_one <= rhs_one * (1 + 1e-9) + _TOL}
            for label, rhs_row, lhs_row in zip(orbits.labels, rhs.T.tolist(), np.transpose(lhs).tolist())
            for lam, rhs_one, lhs_one in zip(lams, rhs_row, lhs_row)]
    holds = all(r["ok"] for r in rows)
    return TheoremReport("hjc", float(t), k_t, c_out, c_start, composite, c_start, rows, holds)
