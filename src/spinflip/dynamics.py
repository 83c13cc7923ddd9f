"""Spin-flip rate models, exact generators, and their semigroups.

The generator acts on observables as

    L f(sigma) = sum_i c(i, sigma) (f(sigma^i) - f(sigma)),

with flip rates c satisfying: positivity, translation invariance, finite
range R (c(i, .) reads only spins within Chebyshev distance R of i), and
boundedness.  On a torus with N <= EXACT_SITE_CAP sites the full 2^N x 2^N
generator is assembled sparsely and e^{tL} is applied on one of two routes,
both through the uniformized operator P = I + Q/Lambda, Lambda the largest
exit rate.

Uniformization serves every rate table:

    e^{tQ} = sum_k e^{-Lambda t} (Lambda t)^k / k!  P^k,

truncated when the Poisson tail drops below a tolerance (default 1e-13),
which bounds the total-variation truncation error for measures and the
sup-norm error for normalized functions; measures step through P^T.

A Chebyshev expansion (Tal-Ezer & Kosloff 1984) serves reversible rates,
and they always take it: no other input chooses the route.  The engine
builds pi from the table by bit doubling, pi(s | 2^k) = pi(s) c(k, s) /
c(k, s^k), and takes the route only if every rate is positive and
pi(s) c(i, s) = pi(s^i) c(i, s^i) holds at every (i, s) to rounding.  Then
Q is self-adjoint in l^2(pi), and Gershgorin on its pi-symmetrization
bounds the spectrum of -Q by

    rho = min(max_s sum_i (c(i, s) + sqrt(c(i, s) c(i, s^i))), 2 Lambda).

With X = I + 2Q/rho = (2 Lambda/rho) P + (1 - 2 Lambda/rho) I, whose
spectrum lies in [-1, 1], and z = rho t / 2,

    e^{tQ} = sum_k eps_k ive(k, z) T_k(X),    eps_0 = 1, eps_k = 2,

with T_k(X) v from T_{k+1} = 2 X T_k - T_{k-1}, one product with P per
term, added into the negated T_{k-1}: O(sqrt(Lambda t)) terms where
uniformization needs O(Lambda t).  The sum
stops at the smallest K with 2 sum_{k>K} ive(k, z) <= tail_tol sqrt(pi_min),
which bounds the l^2(pi) error by that times the l^2(pi) norm.  So a
function's sup error is at most tail_tol ||f||_inf.  A measure travels as
its density g = mu / pi (mu S(t) = pi S(t) g by reversibility) and comes
back multiplied by pi and clipped to [min g, max g], where S(t) g lies; as
||g||_{l^2(pi)} <= ||mu||_1 / sqrt(pi_min), its total-variation error is at
most tail_tol ||mu||_1, and it stays >= 0 when mu is.

An engine stores the operator and its transpose as two CSR matrices on one
index structure, built in place (row s lists its flips s ^ (1 << i), then
s), so functions and measures both step by gathering; it serves a time grid
from one pass of P^k v or T_k(X) v, each sum stopping at its own
truncation.  For rates that commute with the global spin flip
(c(i, -sigma) = c(i, sigma)) that operator is the block
of P on the 2^(N-1) states whose top spin is down, and vectors travel as
half-vectors in two blocks, the halves that are their own partners and
then the pairs, so a step reads every partner from two reversed slices
(see SemigroupEngine); other rates keep the full P.  A wide batch steps as
one multi-vector product.  Every product adds into a buffer, y += A x, as
scipy's CSR kernels compute it, so a sum allocates nothing per term.

A narrow batch (one vector, or the two to four that would step one at a
time) on at least 2^14 states steps each vector on the orbits of its
lattice stabilizer, the symmetry-adapted basis of exact diagonalization
(Sandvik, AIP Conf. Proc. 1297, 135 (2010)).  A torus automorphism g
(translation, axis reflection, swap of equal sides) that maps every site's
rate term to its image's bitwise commutes with P, so S(t)(f o g) =
(S(t) f) o g.  A vector v admits g with character chi(g) = +-1 when
||v o g - chi(g) v|| <= _SYMMETRY_RTOL ||v||, in the norm its route
certifies: sup for functions, l1 for measures, and for a density
v = mu / pi the l1(pi) norm sum_s pi(s) |v(s)|, which is mu's l1 and in
which S(t) contracts as well (pi is S(t)-invariant, and invariant under g
up to rounding, as the rates are).  The global flip joins with its
character on a folded engine.  The admitted maps must form a group G with
multiplying characters, every element admitted.  The vector then travels
as its mean over each orbit of G (times the characters), through the
route's step restricted to the orbits (P, or 2X on the Chebyshev route,
stored so scaled), and is gathered back; an orbit that an element of
character -1 fixes carries 0.  The mean is the projection onto the symmetric vectors,
the average of chi(g) v o g over G, which moves v by at most
_SYMMETRY_RTOL ||v|| in that norm, and S(t) is a contraction there, so the
route adds at most that to the truncation error.  A vector that repeats
one evolved so, or is its global flip (on a folded engine), reads its
result flipped or not; one within _SYMMETRY_RTOL of its image under a rate
automorphism reads that result moved, which adds that much once more.  A
vector with no lattice symmetry steps with the narrow batch's rest, one
(half-)vector at a time.  The engine keeps what the search found for the
vectors of its last narrow batch of each kind (functions, measures,
densities), so a batch evolved again, as at each time of a scan, is not
searched again; and it keeps the orbit operators it built, the most
recently used, while their bytes fit in those of its own operator.

Lipschitz propagation uses the flip-discrepancy matrix

    Gamma_ij = sup_sigma (c(i, sigma^j) - c(i, sigma)),

kept literal (diagonal included) and built once per rate model.  The
entrywise estimate delta_i S(t) f <= (e^{t Gamma^T} delta f)_i propagates
through the transpose (equivalently, convolution with the kernel
gamma_t(i - j) in the translation-invariant case), and
K(t) = ||e^{t Gamma}||_{2->2}^2 controls ||delta S(t) f||_2^2 (singular
values ignore the transpose).  Translation-invariant rates on a torus give
a circulant or multilevel circulant Gamma, which is normal; for a normal
Gamma, ||e^{s Gamma}||_2 = e^{s alpha} with alpha the largest eigenvalue of
(Gamma + Gamma^T)/2, so K(t) = e^{2 t alpha} and

    int_0^t K(s)^2 ds = t exprel(4 alpha t),    exprel(x) = (e^x - 1)/x,

exact at alpha = 0; a value past the float range raises rather than
reading inf.  Normality is tested on Gamma itself (G G^T = G^T G up
to rounding), and a Gamma that is not normal raises: the bound is stated
for translation-invariant rates.  Whether rates are translation invariant
is read from their tables, as their range R is: RateModel.automorphisms
holds the torus automorphisms that carry every rate term onto its image's
bitwise, and the rates are translation invariant when every unit
translation is one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm, svdvals
from scipy.linalg.blas import daxpy
# y += A x for a CSR matrix A, one vector or a C-ordered block of them; the
# kernels behind scipy's sparse products, pinned by a test of their own
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs
from scipy.special import exprel, gammaln, ive, pdtr, pdtrc, pdtrik

from .gibbs import Potential
from .lattice import (
    Torus,
    bit_tensor,
    dense_size,
    gather_bits,
    permute_states,
    scatter_bits,
    state_bits,
)

DEFAULT_TAIL_TOL = 1e-13
# relative slack of the detailed-balance check: a reversible table read in
# floats balances to ~1e-15 (1.2e-15 on the 4x4 Ising model at beta = 0.6)
_BALANCE_RTOL = 1e-13
# Chebyshev terms past which a time is refused: 2^20 terms is rho t ~ 1e10,
# a million steps of P
_CHEBYSHEV_TERM_CAP = 1 << 20
# a column admits a lattice symmetry g when moving it by g changes it by at
# most this share of its norm: sup for functions, l1 for measures (of mu, for
# a density mu / pi)
_SYMMETRY_RTOL = 1e-15
# narrow batches on fewer states keep the fold: there the symmetry search,
# the orbit labels and the gathers cost about what the shorter steps save.
# Glauber rings and tori, orbit route against fold (psi_identity_check, a
# three-time measure evolution on a new engine, nogo_experiment): 1.1-3.4x
# the fold's time at 2^6-2^10 states; with the accumulating step,
# 1.05-1.43x at 2^12, 0.72-1.23x at 2^14 and 0.61-0.64x at 2^16
_ORBIT_MIN_STATES = 1 << 14


class RateModel:
    """Flip rates given per site as (sites, table) with multiset key bits.

    table has 2^k entries, k = len(sites); key bit j is the spin at
    sites[j] (+1 = bit 1).  Repeated sites (wrap collisions on tiny tori)
    keep one bit per listed site.  `rate`, `rate_matrix` and
    `stacked_table` read these listed terms.  Everything read off the
    rates' structure (dependence, range, extreme rates, automorphisms,
    Gamma) reads each site's reduced form instead: the sorted sites c(i, .)
    reads and c(i, .) over their patterns, found on first use and kept.
    """

    def __init__(self, torus: Torus, site_terms, label: str):
        self.torus = torus
        self._terms = list(site_terms)
        if len(self._terms) != torus.n_sites:
            raise ValueError("need one rate table per site")
        self.label = label
        self._engine = None
        self._gamma = None

    @cached_property
    def _reads(self):
        """Per site, (sites, values): the sorted sites c(i, .) reads as an
        array and c(i, .) over their patterns, key bit j the spin at
        sites[j].  A site listed twice reads the diagonal of its key bits,
        and a listed site whose bit changes no entry is dropped."""
        reads = []
        for sites, table in self._terms:
            dep = sorted(set(sites))
            values = table[gather_bits(np.arange(1 << len(dep), dtype=np.int64), [dep.index(s) for s in sites])]
            keys = np.arange(values.size)
            read = [j for j in range(len(dep)) if not np.array_equal(values[keys ^ (1 << j)], values)]
            reads.append((np.array(dep, dtype=np.int64)[read], values[scatter_bits(np.arange(1 << len(read)), read)]))
        return reads

    def dependence(self, i: int):
        """Sorted set of sites c(i, .) actually reads."""
        return tuple(self._reads[i][0].tolist())

    def rate(self, i: int, state) -> float:
        sites, table = self._terms[i]
        return table.item(gather_bits(state_bits(state), sites))

    def stacked_table(self):
        """All sites' rates as one (positions, table) pair of shapes (N, w)
        and (N, 2^w), w the longest listing: c(i, s) is table[i, key] with
        key bit j the bit of s at positions[i, j].  A narrower site's table
        is tiled to 2^w entries and its unused positions point at site 0, so
        the extra high key bits select identical copies."""
        w = max(len(sites) for sites, _ in self._terms)
        positions = np.zeros((len(self._terms), w), dtype=np.intp)
        table = np.empty((len(self._terms), 1 << w))
        for i, (sites, values) in enumerate(self._terms):
            positions[i, : len(sites)] = sites
            table[i] = np.tile(values, 1 << (w - len(sites)))
        return positions, table

    def rate_matrix(self) -> np.ndarray:
        """(N, 2^N) array of c(i, s) over all states."""
        n = self.torus.n_sites
        out = np.empty((n, dense_size(n)))
        for row, (sites, table) in zip(out, self._terms):
            bit_tensor(row, n)[...] = bit_tensor(table, n, sites)
        return out

    def min_rate(self) -> float:
        return min(float(values.min()) for _, values in self._reads)

    def max_rate(self) -> float:
        return max(float(values.max()) for _, values in self._reads)

    def interaction_range(self) -> int:
        return max((self.torus.distance(i, j) for i in self.torus.sites() for j in self.dependence(i)), default=0)

    @cached_property
    def automorphisms(self) -> np.ndarray:
        """The rows of Torus.automorphisms that carry every rate term onto its
        image's bitwise, identity first: they commute with the generator, and
        form a group, as maps that keep the terms exactly compose; so a
        candidate that the maps kept so far generate is not checked again.
        A term is compared on the sites its table reads.  Found on first use
        and kept."""
        terms = [(sites, values, (np.arange(values.size)[:, None] >> np.arange(sites.size)) & 1)
                 for sites, values in self._reads]
        n, gens = self.torus.n_sites, []
        kept = _generate(n, gens)
        for g in self.torus.automorphisms():
            # a map the kept ones generate keeps the terms exactly too
            if g.tobytes() not in kept and _maps_terms(terms, g):
                gens.append((g, 1.0, 0.0))
                kept = _generate(n, gens)
        return np.array([image for image, _, _ in kept.values()])

    @property
    def translation_invariant(self) -> bool:
        """Whether every unit translation of the torus is among the
        automorphisms, so that c(i + e, theta_e sigma) = c(i, sigma) holds
        bitwise for every unit vector e; read from the rate tables."""
        torus = self.torus
        return all(
            (self.automorphisms == [torus.translate(i, unit) for i in torus.sites()]).all(axis=1).any()
            for unit in np.eye(torus.dim, dtype=int).tolist()
        )

    def __repr__(self):
        return f"{type(self).__name__}({self.label}, torus={self.torus.sides})"


class IndependentRates(RateModel):
    """c(i, sigma) = r: every site flips at a constant rate."""

    def __init__(self, torus: Torus, r: float = 1.0):
        r = float(r)
        if r <= 0:
            raise ValueError("rate must be positive")
        self.r = r
        table = np.array([r])
        terms = [((), table) for _ in torus.sites()]
        super().__init__(torus, terms, f"independent:{r}")


class GlauberRates(RateModel):
    """Detailed-balance rates c(i, sigma) = exp(-(H(sigma^i) - H(sigma))/2)
    for the periodic Gibbs measure of a finite-range potential."""

    def __init__(self, torus: Torus, potential: Potential):
        self.potential = potential
        terms_at = potential.terms_containing(torus)
        site_terms = []
        for i in torus.sites():
            dep = sorted({s for sites, _ in terms_at[i] for s in sites} | {i})
            pos = {s: j for j, s in enumerate(dep)}
            k = len(dep)
            parts = np.empty((len(terms_at[i]), 1 << k))
            # an energy difference past the float range gives an inf or NaN
            # rate, which is refused below rather than warned about
            with np.errstate(over="ignore", invalid="ignore"):
                for part, (sites, table) in zip(parts, terms_at[i]):
                    term = bit_tensor(table, k, [pos[s] for s in sites])
                    bit_tensor(part, k)[...] = np.flip(term, k - 1 - pos[i]) - term
                # summed in sorted order, so a site whose terms are the images
                # of another's under a lattice symmetry gets its rates bitwise
                parts.sort(axis=0)
                rates = np.exp(-0.5 * parts.sum(axis=0))
            if not np.all(np.isfinite(rates)):
                raise ValueError(
                    f"Glauber rate at site {i} is not finite: the potential's energy differences pass the float range"
                )
            site_terms.append((tuple(dep), rates))
        super().__init__(torus, site_terms, "glauber")


class PerturbedRates(RateModel):
    """c(i, sigma) = 1 + eps(theta_i sigma) with sup |eps| = eps0 < 1."""

    def __init__(self, torus: Torus, offsets, table):
        table = np.asarray(table, dtype=float)
        offsets = tuple(tuple(int(x) for x in o) for o in offsets)
        if table.shape != (1 << len(offsets),):
            raise ValueError("table length must be 2^|offsets|")
        self.eps0 = float(np.max(np.abs(table)))
        if self.eps0 >= 1.0:
            raise ValueError(f"perturbation bound {self.eps0} must be < 1")
        self.offsets = offsets
        site_terms = []
        for i in torus.sites():
            base = torus.coord(i)
            sites = tuple(
                torus.site(tuple(b + o for b, o in zip(base, off))) for off in offsets
            )
            site_terms.append((sites, 1.0 + table))
        super().__init__(torus, site_terms, f"perturbed:{self.eps0}")

    @classmethod
    def pair(cls, torus: Torus, eps0: float) -> "PerturbedRates":
        """eps(i, sigma) = eps0 sigma_i sigma_{i+e_1}."""
        d = torus.dim
        offsets = ((0,) * d, tuple(1 if a == d - 1 else 0 for a in range(d)))
        # key bit j = spin at offsets[j]; product of the two spins
        table = eps0 * np.array([1.0, -1.0, -1.0, 1.0])
        return cls(torus, offsets, table)


class CustomRates(RateModel):
    """Tabulated per-site rates; used for experiments and signed-rate algebra.
    c(i, .) is rate_fn(i, state) on the sites dep_fn(i) lists, so a rate that
    varies from site to site is allowed: translation invariance is read from
    the tables (RateModel.translation_invariant), not declared."""

    def __init__(self, torus: Torus, dep_fn, rate_fn, label="custom"):
        site_terms = []
        for i in torus.sites():
            dep = tuple(sorted(set(dep_fn(i))))
            table = np.array([rate_fn(i, scatter_bits(key, dep)) for key in range(1 << len(dep))], dtype=float)
            site_terms.append((dep, table))
        super().__init__(torus, site_terms, label)


@dataclass
class ConditionsReport:
    positive: bool
    min_rate: float
    max_rate: float
    interaction_range: int
    translation_invariant: bool
    ok: bool


def validate_conditions(rates: RateModel) -> ConditionsReport:
    """Positivity, boundedness, finite range and translation invariance, the
    last read from the tables bitwise at any size (one automorphism search
    per rate model, shared with its engine)."""
    cmin, cmax = rates.min_rate(), rates.max_rate()
    ti = rates.translation_invariant
    ok = cmin > 0 and math.isfinite(cmax) and ti
    return ConditionsReport(cmin > 0, cmin, cmax, rates.interaction_range(), ti, ok)


def generator_matrix(rates: RateModel) -> sp.csr_matrix:
    """Sparse 2^N x 2^N generator: Q[s, s^i] = c(i, s), rows sum to zero."""
    c = rates.rate_matrix()
    return _flip_matrices(c, -c.sum(axis=0))[0]


def _flip_matrices(flips: np.ndarray, diag: np.ndarray):
    """M with M[s, s ^ (1 << i)] = flips[i, s] and diagonal diag, and M^T,
    as two CSR matrices built in place on one index structure: row s lists
    column s ^ (1 << i) for every i, then s.  The flip pattern is
    symmetric, so M^T differs from M only in its data,
    M^T[s, s ^ (1 << i)] = flips[i, s ^ (1 << i)], and products with
    either matrix gather; that data is flips[i] with the axis of site i
    reversed on the state tensor.  The shared index arrays are read-only:
    an in-place sort of one matrix raises instead of scrambling the other."""
    n, size = flips.shape
    index = np.int32 if (n + 1) * size <= np.iinfo(np.int32).max else np.int64
    states = np.arange(size, dtype=index)
    cols = np.empty((size, n + 1), dtype=index)
    np.bitwise_xor(states[:, None], index(1) << np.arange(n, dtype=index), out=cols[:, :n])
    cols[:, n] = states
    indptr = np.arange(0, (n + 1) * size + 1, n + 1, dtype=index)
    cols.setflags(write=False)
    indptr.setflags(write=False)
    data, data_t = np.empty((size, n + 1)), np.empty((size, n + 1))
    data[:, n] = data_t[:, n] = diag
    data[:, :n] = flips.T
    flipped = np.empty_like(flips)
    for i, (row, out) in enumerate(zip(flips, flipped)):
        bit_tensor(out, n)[...] = np.flip(bit_tensor(row, n), n - 1 - i)
    data_t[:, :n] = flipped.T
    return tuple(
        sp.csr_matrix((d.reshape(-1), cols.reshape(-1), indptr), shape=(size, size)) for d in (data, data_t)
    )


def _steps_by_row(h: int, m: int) -> bool:
    """Whether a batch of m columns of length h steps one row at a time.
    scipy's multi-vector CSR product costs nearly as much at 2 to 4 columns
    as at 6, so such batches run faster as one matrix-vector product per
    column, once h is large enough (2048 rows) for the per-call overhead
    not to win back the gain.  At one column the two routes cost the same.
    CHANGES.md holds the measured table."""
    return 2 <= m <= (4 if h >= 2048 else 2)


class _Fold:
    """A batch of columns (2H, m) carried as half-columns (H, m') on the
    states whose top bit is 0.  Column j's lo = v[:H] is half lo_of[j] and
    its hi = v[:H-1:-1] is half hi_of[j] times sign[hi_of[j]].  The halves
    lie in two blocks, so that a step of P reads each half's partner
    reversed from two slices: first the n_self halves that are their own
    partners (hi = sign lo, sign -1 only for an odd column), then the
    pairs, pair k's two halves at n_self + k and m' - 1 - k."""

    def __init__(self, cols: np.ndarray):
        h, m = len(cols) // 2, cols.shape[1]
        lo, hi = cols[:h], cols[: h - 1 : -1]
        lo_of, hi_of = np.empty(m, dtype=np.intp), np.empty(m, dtype=np.intp)
        # (lo, hi) bytes -> (lo half, hi half) in order of appearance: a
        # repeated column, and the flip (hi, lo) of an earlier column, share
        # its halves
        halves, sign, selfs, firsts, seen = [], [], [], [], {}
        for j in range(m):
            a, b = lo[:, j], hi[:, j]
            key = (a.tobytes(), b.tobytes())
            if key not in seen:
                k = len(halves)
                parity = 1.0 if np.array_equal(b, a) else -1.0 if np.array_equal(b, -a) else 0.0
                if parity:
                    seen[key] = (k, k)
                    halves.append(a)
                    selfs.append(k)
                    sign.append(parity)
                else:
                    seen[key], seen[key[::-1]] = (k, k + 1), (k + 1, k)
                    halves += [a, b]
                    firsts.append(k)
            lo_of[j], hi_of[j] = seen[key]
        # into blocks: the self-partnered halves, each pair's first half, then
        # the pairs' second halves in reverse
        order = selfs + firsts + [k + 1 for k in reversed(firsts)]
        at = np.argsort(order)
        self.n_self = len(selfs)
        self.lo_of, self.hi_of = at[lo_of], at[hi_of]
        self.halves = np.column_stack([halves[k] for k in order]) if halves else np.empty((h, 0))
        self.sign = np.array(sign + [1.0] * (len(order) - len(selfs)))

    def unfold(self, folded: np.ndarray) -> np.ndarray:
        """Stacked half-columns (T, H, m') back to full columns (T, 2H, m),
        gathered into place without a temporary."""
        t, h, _ = folded.shape
        out = np.empty((t, 2 * h, self.lo_of.size))
        for full, halves in zip(out, folded):
            np.take(halves, self.lo_of, axis=1, out=full[:h], mode="clip")
            np.take(halves[::-1], self.hi_of, axis=1, out=full[h:], mode="clip")
            full[h:] *= self.sign[self.hi_of]
        return out


def _maps_terms(terms, image) -> bool:
    """Whether the site map i -> image[i] carries every site's rate term onto
    its image's bitwise: c(image[i], g(s)) = c(i, s) at every state s, g(s)
    carrying spin_i(s) to site image[i].  terms[i] holds the sorted sites
    c(i, .) reads as an array, c(i, .) over their patterns, and the bits of
    those patterns, one column per site."""
    for i, (dep, values, bits) in enumerate(terms):
        moved, target, _ = terms[image[i]]
        to = image[dep]
        if not np.array_equal(np.sort(to), moved):
            return False
        # key bit j of c(i, .) is key bit searchsorted(moved, to[j]) of its image
        if not np.array_equal(target[bits @ (1 << np.searchsorted(moved, to))], values):
            return False
    return True


def _norm(v: np.ndarray, weights) -> float:
    """The norm a route certifies: sup for functions (weights None), l1 for
    measures (weights 1.0), and for a density mu / pi the pi-weighted l1
    (weights pi), which is mu's l1"""
    a = np.abs(v)
    return float(a.max() if weights is None else (a * weights).sum())


def _generate(n: int, gens):
    """The group that site maps generate, from gens of (image, character,
    deviation): {image bytes: (image, character, deviation bound)}, identity
    first.  Composing (image a after b, a[b]) multiplies characters and adds
    deviations, which bounds the composite's by the triangle inequality, as
    moving a vector permutes its entries (and the l1(pi) weights pi, which
    the maps keep up to rounding).  None when one map is reached with both
    characters."""
    identity = np.arange(n)
    out = {identity.tobytes(): (identity, 1.0, 0.0)}
    queue = [out[identity.tobytes()]]
    for image, chi, bound in queue:
        for g, c, d in gens:
            moved = image[g]
            found = out.setdefault(moved.tobytes(), (moved, chi * c, bound + d))
            if found[1] != chi * c:
                return None
            if found[0] is moved:
                queue.append(found)
    return out


class _Symmetry(NamedTuple):
    """A group of site maps with characters +-1 (`images`, `chars`, identity
    first), the generators it was found from (`gens`, `gen_chars`) and the
    global flip's character, 0 when the flip is not in the group."""

    images: np.ndarray
    chars: np.ndarray
    gens: np.ndarray
    gen_chars: np.ndarray
    flip: float


def _match(pairs, key: bytes, default=None):
    """The value of the first (bytes, value) pair whose bytes equal key.  A
    batch's columns are few and long: comparing bytes stops at the first
    difference, where hashing them would read them whole."""
    return next((value for b, value in pairs if b == key), default)


class _Image(NamedTuple):
    """A column read as the result of the batch's column with bytes
    `source`, moved by the automorphism `image` of the rates"""

    source: bytes
    image: np.ndarray


class _Quotient:
    """The engine's step operator B (its transpose for measures) on the
    orbits of a group G of state permutations, for the columns v with
    v(g(s)) = chi(g) v(s), chi = +-1: such a v is its values at the smallest
    state r of each orbit, and v(s) = sign[s] v(r) with sign[s] = chi(g) for
    a g with g(s) = r.  An orbit that an element of character -1 fixes
    carries 0 and is dropped (sign 0).  With the K kept orbits numbered,
    `index[s]` is the orbit of s, plus K when sign[s] = -1, and 2K for a
    dropped one, so v is one gather from [v(r), -v(r), 0].  `op` is the
    K x K CSR matrix of B = w I + u Q there, w = s + shift and u = s / lam
    for the (s, shift) of SemigroupEngine._step_form: row r holds u c(i, r)
    (u c(i, r^i) for measures) at the orbit of r^i, times sign[r^i], and
    w - u sum_i c(i, r) at r; exact on such columns, as the rates commute
    with G.  It is built pre-scaled, 2X on the Chebyshev route, and is the
    only copy of the orbit operator."""

    def __init__(self, engine, sym: _Symmetry, transposed: bool):
        n, size = engine.torus.n_sites, engine.n_states
        states = np.arange(size, dtype=np.int32)
        moves = [(permute_states(states, n, g), c) for g, c in zip(sym.gens, sym.gen_chars)]
        if sym.flip:
            moves.append((states[::-1], sym.flip))
        # label[s] is a state of the orbit of s with v(s) = sign[s] v(label[s])
        # on the symmetric columns: from v(s) = chi(g) v(g(s)), each generator
        # pulls the smaller label of g(s) to s, and a jump to the label's label
        # halves the distance left, until every orbit reads its smallest state
        label, sign = states.copy(), np.ones(size, dtype=np.int8)
        changed = True
        while changed:
            changed = False
            for g_s, c in moves:
                pulled = label[g_s]
                lower = pulled < label
                if lower.any():
                    changed = True
                    sign[lower] = c * sign[g_s[lower]]
                    label[lower] = pulled[lower]
            sign *= sign[label]
            label = label[label]
        # a generator whose character disagrees with the signs inside an orbit
        # means an element of character -1 fixes its states, so v is 0 there
        clash = np.zeros(size, dtype=bool)
        for g_s, c in moves:
            clash |= sign != c * sign[g_s]
        dropped = np.zeros(size, dtype=bool)
        dropped[label[clash]] = True
        dropped = dropped[label]
        reps = np.flatnonzero((label == states) & ~dropped)
        k = reps.size
        at = np.full(size, k, dtype=np.int32)
        at[reps] = np.arange(k)
        ids, sign = at[label], np.where(dropped, np.int8(0), sign)
        self.index = np.where(dropped, 2 * k, ids + k * (sign < 0)).astype(np.int32)
        self.counts = np.bincount(ids, minlength=k + 1)[:k]
        self.order = len(sym.images) << bool(sym.flip)
        odd = int(np.sum(sym.chars < 0))
        self.odd = odd if not sym.flip else 2 * odd if sym.flip > 0 else len(sym.images)
        self.transposed = transposed
        c = engine.rate_table
        here = c[:, reps]
        flips = reps ^ (1 << np.arange(n))[:, None]
        s, shift = engine._step_form
        u = s / engine.lam if engine.lam > 0 else 0.0
        rate = c[np.arange(n)[:, None], flips] if transposed else here
        # row r lists the orbits of its flips, then r itself
        data = np.vstack([rate * u * sign[flips], (s + shift) - here.sum(axis=0) * u]).T
        cols = np.vstack([ids[flips], np.arange(k, dtype=np.int32)]).T
        keep = data != 0
        indptr = np.append(0, np.cumsum(keep.sum(axis=1))).astype(np.int32)
        self.op = sp.csr_matrix((data[keep], cols[keep], indptr), shape=(k, k))
        # flips of r that land in one orbit become one entry
        self.op.sum_duplicates()

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.op.data, self.op.indices, self.op.indptr, self.index, self.counts))

    def step(self, v: np.ndarray, out: np.ndarray) -> None:
        """out += op v, for orbit vectors v and out"""
        k = self.counts.size
        csr_matvec(k, k, self.op.indptr, self.op.indices, self.op.data, v, out)

    def reduce(self, col: np.ndarray) -> np.ndarray:
        """col's mean over each kept orbit, read at its smallest state: col
        itself when col has the symmetry, else its projection onto it"""
        k = self.counts.size
        sums = np.bincount(self.index, weights=col, minlength=2 * k + 1)
        return (sums[:k] - sums[k : 2 * k]) / self.counts

    def expand(self, reduced: np.ndarray, out: np.ndarray) -> None:
        """Rows of orbit values (T, K) back to states, into out (T, 2^N)"""
        k = self.counts.size
        padded = np.zeros(2 * k + 1)
        for row, at in zip(reduced, out):
            padded[:k] = row
            np.negative(row, out=padded[k : 2 * k])
            np.take(padded, self.index, out=at)

    def summary(self) -> dict:
        return {
            "order": self.order,
            "odd": self.odd,
            "orbits": int(self.counts.size),
            "direction": "measures" if self.transposed else "functions",
        }


class _Balance(NamedTuple):
    """What the Chebyshev route runs on: the stationary law pi of reversible
    rates (exactly flip-symmetric on a folded engine), its smallest entry,
    and rho >= the spectral radius of -Q."""

    pi: np.ndarray
    pi_min: float
    rho: float


def _chebyshev_coefficients(z: float, tol: float) -> np.ndarray:
    """eps_k ive(k, z) for k = 0..K, K the smallest with
    2 sum_{k>K} ive(k, z) <= tol.  The terms past the last one evaluated are
    bounded by a geometric series: I_{k+1}(z) / I_k(z) < z / (k + sqrt(k^2 + z^2))
    (Amos 1974), which decreases in k."""
    if not 0.0 <= z < np.inf:
        raise ValueError(f"Chebyshev argument rho t / 2 = {z:.6g} is not finite")
    m = 32
    while m <= _CHEBYSHEV_TERM_CAP:
        a = ive(np.arange(m), z)
        r = z / (m - 1 + math.hypot(m - 1, z))
        rest = a[-1] * r / (1.0 - r) if r < 1.0 else math.inf
        # tail[k] = sum_{j>k} a_j, the terms past m - 1 included
        tail = np.append(np.cumsum(a[:0:-1])[::-1], 0.0) + rest
        (hits,) = np.nonzero(2.0 * tail <= tol)
        if hits.size:
            coef = 2.0 * a[: hits[0] + 1]
            coef[0] = a[0]
            return coef
        m *= 2
    raise ValueError(
        f"Chebyshev argument rho t / 2 = {z:.6g} is past what {_CHEBYSHEV_TERM_CAP} terms can certify"
    )


def _checked_time(t) -> float:
    t = float(t)
    if not 0.0 <= t < np.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    return t


class SemigroupEngine:
    """Exact semigroup on the full state space of one rate model, by
    Chebyshev expansion when the rates are reversible and by uniformization
    otherwise (see the module docstring for the rule and the certified
    bounds).  Both routes step through the same P; the Chebyshev route
    evolves a measure as its density mu / pi through P's function step, so
    only uniformization reads `pt`.  pi and rho are found on the first
    evolution (or `coefficients` call) and kept, as the expansion
    coefficients are kept per t.

    When the rates commute with the global spin flip s -> S - 1 - s (every
    bit inverted), the engine folds the state space: `p` is the block A of P
    on the H = S/2 states whose top bit is 0 (flips of sites 0..N-2 and the
    diagonal) and `_top` = c(N-1, .)/lam on those states carries the top-site
    flip.  A column v then travels as its two halves lo = v[:H] and
    hi = v[:H-1:-1] (v at the flipped states), and one step of P is
    lo' = A lo + b rev(hi), hi' = A hi + b rev(lo), with b = `_top` for
    functions and rev(b) for measures (through A.T).  A column with
    hi = +-lo (every sigma_A, every even function) carries one half, and a
    column that repeats another, or is its flip (the plus/minus pair),
    shares its halves.  _Fold lays the halves out as [own partners | pairs],
    pair k at both ends of the pair block, so the partner read rev(hi) is
    two reversed slices of the batch, not a gather.  Every term is as
    nonnegative as in P, so uniformized measures stay >= 0.

    `p` and `pt` (P^T, or A^T when folded) are CSR matrices that share one
    read-only index structure and differ only in data, so both directions
    gather.  A batch whose (half-)columns _steps_by_row picks travels as
    contiguous rows, one `p @ row` per step each; other batches keep one
    multi-vector product per step.

    A narrow batch on at least _ORBIT_MIN_STATES states first tries each
    column on the orbit route of the module docstring (_narrow): it reads
    the rate model's automorphisms (RateModel.automorphisms, found once per
    rate model on first use), and finds each column's stabilizer
    (_stabilizer) or image (_image) once per engine while it stays in the last narrow batch of its kind, which
    `_searched` remembers by the column's bytes.  The orbit operator of a
    group, its characters and direction (_Quotient, the route's step
    operator pre-scaled) is cached while the cached operators' bytes fit in
    `operator_bytes`, the least recently used leaving first, and `summary()`
    lists each cached one's group order, elements of character -1 and
    orbits.  Every route depends only on the batch's shape, so a wide batch
    never searches.  A theorem check's law columns (one per level but one
    of each orbit representative of its family) search when they are
    narrow, as the single column of the one-site monomials does on at
    least 2^14 states."""

    def __init__(self, rates: RateModel, tail_tol: float = DEFAULT_TAIL_TOL):
        self.rates = rates
        self.torus = rates.torus
        self.n_states = 1 << self.torus.n_sites
        self.tail_tol = float(tail_tol)
        self.rate_table = rates.rate_matrix()
        if not np.all(np.isfinite(self.rate_table)):
            raise ValueError(f"{rates!r} has a non-finite rate; the semigroup needs finite c")
        if np.any(self.rate_table < 0):
            raise ValueError(f"{rates!r} has a negative rate; the semigroup needs c >= 0")
        # every rate is >= 0, so P = I + Q / lam is entrywise >= 0 and evolved
        # measures stay nonnegative without clipping
        exit_rate = self.rate_table.sum(axis=0)
        self.lam = float(exit_rate.max())
        # stored as the sum I + Q / lam, scaled by 1 / lam
        inv = 1.0 / self.lam if self.lam > 0 else 0.0
        # column S - 1 - s of the table holds the rates at the flipped state s
        self.flip_symmetric = bool(np.array_equal(self.rate_table[:, ::-1], self.rate_table))
        if self.flip_symmetric:
            h, top = self.n_states // 2, self.torus.n_sites - 1
            self.p, self.pt = _flip_matrices(self.rate_table[:top, :h] * inv, 1.0 - exit_rate[:h] * inv)
            self._top = self.rate_table[top, :h] * inv
        else:
            self.p, self.pt = _flip_matrices(self.rate_table * inv, 1.0 - exit_rate * inv)
        self._weights = {}
        self._chebyshev = {}
        self._quotients = {}
        self._searched = {}

    def summary(self) -> dict:
        """What the engine runs on, for reports; operator_bytes counts the
        data of P and P^T and their shared index arrays once.  The route is
        "chebyshev" or "uniformization"; the first also names rho and
        pi_min, which set its number of terms.  `quotients` lists the orbit
        operators cached now, least recently used first: group order, its
        elements of character -1 ("odd"), kept orbits and direction."""
        out = {
            "lam": self.lam,
            "flip_symmetric": self.flip_symmetric,
            "states": self.n_states,
            "operator_nnz": int(self.p.nnz),
            "operator_bytes": self._operator_bytes,
            "route": "uniformization" if self._balance is None else "chebyshev",
        }
        if self._balance is not None:
            out.update(rho=self._balance.rho, pi_min=self._balance.pi_min)
        out["quotients"] = [q.summary() for q in self._quotients.values()]
        return out

    @cached_property
    def _operator_bytes(self) -> int:
        return sum(a.nbytes for a in (self.p.data, self.pt.data, self.p.indices, self.p.indptr))

    @cached_property
    def _balance(self) -> _Balance | None:
        """pi and rho when every rate is positive and the table balances
        against pi at every (i, s); None sends every evolution to
        uniformization, as does a pi whose smallest entry is not a normal
        float."""
        c, n = self.rate_table, self.torus.n_sites
        if not np.all(c > 0):
            return None
        pi = np.empty(self.n_states)
        pi[0] = 1.0
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for k, row in enumerate(c):
                h = 1 << k
                np.multiply(pi[:h], row[:h] / row[h : 2 * h], out=pi[h : 2 * h])
            pi /= pi.sum()
        if self.flip_symmetric:
            pi = 0.5 * (pi + pi[::-1])
        pi_min = float(pi.min())
        if not (np.all(np.isfinite(pi)) and pi_min >= np.finfo(float).tiny):
            return None
        gershgorin = np.zeros(self.n_states)
        flipped = np.empty(self.n_states)
        for i, row in enumerate(c):
            flow = pi * row
            bit_tensor(flipped, n)[...] = np.flip(bit_tensor(flow, n), n - 1 - i)
            if np.any(np.abs(flow - flipped) > _BALANCE_RTOL * np.maximum(flow, flipped)):
                return None
            bit_tensor(flipped, n)[...] = np.flip(bit_tensor(row, n), n - 1 - i)
            gershgorin += row + np.sqrt(row * flipped)
        pi.setflags(write=False)
        return _Balance(pi, pi_min, min(float(gershgorin.max()), 2.0 * self.lam))

    def poisson_weights(self, t: float) -> np.ndarray:
        """Poisson(Lambda t) weights up to the certified tail, cached per t
        (read-only: every evolve call at the same t shares the array)."""
        t = _checked_time(t)
        w = self._weights.get(t)
        if w is None:
            w = self._weights[t] = self._poisson_weights(self.lam * t)
            w.setflags(write=False)
        return w

    def _poisson_weights(self, m: float) -> np.ndarray:
        if m <= 0:
            return np.array([1.0])
        # two past the upper tail_tol quantile, found as scipy's poisson.isf finds it
        q = 1.0 - self.tail_tol
        quantile = pdtrik(q, m)
        if not np.isfinite(quantile):
            raise ValueError(f"Poisson mean lam t = {m:.6g} is past the range of its quantile function")
        upper = int(np.ceil(quantile))
        k_max = (upper - 1 if upper > 0 and pdtr(upper - 1, m) >= q else upper) + 2
        while pdtrc(k_max, m) > self.tail_tol:
            k_max = 2 * k_max + 8
        k = np.arange(k_max + 1)
        return np.exp(-m + k * np.log(m) - gammaln(k + 1))

    def coefficients(self, t: float) -> np.ndarray:
        """The coefficients the engine sums at t on its route, one per term:
        eps_k ive(k, rho t / 2) on the Chebyshev route, else the Poisson
        weights; cached per t and read-only.  A t the route cannot serve
        raises a ValueError."""
        if self._balance is None:
            return self.poisson_weights(t)
        t = _checked_time(t)
        c = self._chebyshev.get(t)
        if c is None:
            tol = self.tail_tol * math.sqrt(self._balance.pi_min)
            c = self._chebyshev[t] = _chebyshev_coefficients(0.5 * self._balance.rho * t, tol)
            c.setflags(write=False)
        return c

    def evolve_functions(self, values: np.ndarray, t: float) -> np.ndarray:
        """S(t) f for one function (2^N,) or a batch of columns (2^N, k)."""
        return self._apply(np.asarray(values, dtype=float), [t], measures=False)[0]

    def evolve_measures(self, probs: np.ndarray, t: float) -> np.ndarray:
        """mu S(t) for one row (2^N,) or a batch of rows (k, 2^N)."""
        return self.evolve_measures_over(probs, [t])[0]

    def evolve_measures_over(self, probs: np.ndarray, times) -> np.ndarray:
        """mu S(t) at each t of a nonempty grid, stacked along a new first axis."""
        if len(times) == 0:
            raise ValueError("empty time grid")
        probs = np.asarray(probs, dtype=float)
        # C order, so a batch's rows have the strides of transposed columns
        stacked = self._apply(probs.T, times, measures=True)
        return stacked if probs.ndim == 1 else stacked.transpose(0, 2, 1)

    def _apply(self, vec: np.ndarray, times, measures: bool) -> np.ndarray:
        """sum_k c_k(t) B_k vec for each t, stacked along a new first axis,
        from one pass of B_k vec: B_k = P^k (P^T for measures) on
        uniformization, T_k(X) on the Chebyshev route, where measures travel
        as densities; each sum stops at its own truncation, as it would in a
        pass of its own.  A narrow batch (one column, or columns that
        _steps_by_row steps by row) on at least _ORBIT_MIN_STATES states goes
        column by column through _narrow, which steps a column with a lattice
        symmetry on the orbits of its stabilizer; every other batch, and the
        narrow columns without one, step through _folded.  The route follows
        from the batch's shape before any symmetry search."""
        coefs = [self.coefficients(t) for t in times]
        balance = self._balance
        density = measures and balance is not None
        weights = balance.pi if density else 1.0 if measures else None
        if density:
            pi = balance.pi if vec.ndim == 1 else balance.pi[:, None]
            vec = vec / pi
        transposed = measures and not density
        cols = vec.reshape(len(vec), -1)
        # S(t) g lies in [min g, max g] column by column
        bounds = (cols.min(axis=0), cols.max(axis=0)) if density else None
        m, size = cols.shape[1], len(cols)
        narrow = m == 1 or _steps_by_row(size // 2 if self.flip_symmetric else size, m)
        if narrow and size >= _ORBIT_MIN_STATES:
            out = self._narrow(cols, coefs, transposed, weights, bounds)
        else:
            out = self._folded(cols, coefs, transposed)
            if bounds:
                np.clip(out, *bounds, out=out)
        out = out.reshape((len(times),) + vec.shape)
        if density:
            out *= pi
        return out

    @cached_property
    def _step_form(self) -> tuple:
        """(s, shift) with the route's step operator B = s P + shift I: P
        itself on uniformization, 2X = 2a P + (2 - 2a) I, a = 2 lam / rho, on
        the Chebyshev route"""
        if self._balance is None:
            return 1.0, 0.0
        a = 2.0 * self.lam / self._balance.rho
        return 2.0 * a, 2.0 - 2.0 * a

    def _sum(self, cur: np.ndarray, step, coefs) -> np.ndarray:
        """sum_k c_k B_k cur for each coefficient vector, stacked, where
        step(v, out) adds B v to out, B the route's step operator on cur's
        layout (see _step_form), as scipy's CSR kernels add A x to y:
        B_k = P^k on uniformization, and on the Chebyshev route B_k = T_k(X),
        T_1 = (2X T_0) / 2 and T_{k+1} = 2X T_k - T_{k-1}, which negates
        the buffer of T_{k-1} and adds 2X T_k into it.  cur (C-ordered) and
        two buffers rotate, so no step allocates, and each coefficient adds
        its term as one axpy."""
        chebyshev = self._balance is not None
        accs = np.empty((len(coefs),) + cur.shape)
        for acc, c in zip(accs, coefs):
            np.multiply(cur, c[0], out=acc)
        terms = max(c.size for c in coefs)
        if terms == 1 or cur.size == 0:
            return accs
        flat = [acc.reshape(-1) for acc in accs]
        prev, now, spare = cur, np.zeros(cur.shape), np.empty(cur.shape)
        step(cur, now)
        if chebyshev:
            now *= 0.5
        for k in range(1, terms):
            if k > 1:
                # the buffer of B_{k-2}, unless that is cur itself
                nxt = spare if prev is cur else prev
                if chebyshev:
                    np.negative(prev, out=nxt)
                else:
                    nxt.fill(0.0)
                step(now, nxt)
                prev, now = now, nxt
            term = now.reshape(-1)
            for acc, c in zip(flat, coefs):
                if k < c.size:
                    daxpy(term, acc, a=c[k])
        return accs

    def _folded(self, cols: np.ndarray, coefs, transposed: bool) -> np.ndarray:
        """The sums for a batch of columns (2^N, m), as (T, 2^N, m), on
        half-columns when the engine folds.  A batch of (half-)columns of
        shape (H, m') steps as m' contiguous rows, one sparse matrix-vector
        product each, when _steps_by_row(H, m'); other batches step as one
        multi-vector product.  On a fold, the step then adds the top-site
        flips, each half's partner reversed times b, read from _Fold's two
        blocks as two slices into one buffer.  The step adds B v = s P v +
        shift v (see _step_form) through `p` itself: out is divided by s
        before P v and shift / s v are added, and multiplied by s after."""
        op = self.pt if transposed else self.p
        fold = _Fold(cols) if self.flip_symmetric else None
        cur = fold.halves if fold else cols
        by_row = _steps_by_row(*cur.shape)
        cur = np.ascontiguousarray(cur.T if by_row else cur)
        h, s, shift = op.shape[0], *self._step_form
        kernel = (h, h, op.indptr, op.indices, op.data)
        if fold:
            top = self._top[::-1] if transposed else self._top
            n_self = fold.n_self
            # sign times top in the batch's layout, so one multiply reads
            # both in memory order
            coef = fold.sign[:n_self, None] * top if by_row else (top[:, None] * fold.sign[:n_self]).T
            flips = np.empty_like(cur)

        def step(v, out):
            if s != 1.0:
                out *= 1.0 / s
            if by_row:
                for row, into in zip(v, out):
                    csr_matvec(*kernel, row, into)
            elif v.shape[1] == 1:
                csr_matvec(*kernel, v.reshape(-1), out.reshape(-1))
            else:
                csr_matvecs(h, h, v.shape[1], *kernel[2:], v.reshape(-1), out.reshape(-1))
            if fold:
                # half u's partner, reversed: a self-partnered half reads
                # itself, and the pair block reads itself back to front
                rows, into = (v, flips) if by_row else (v.T, flips.T)
                np.multiply(rows[:n_self, ::-1], coef, out=into[:n_self])
                np.multiply(rows[n_self:][::-1, ::-1], top, out=into[n_self:])
                out += flips
            if shift:
                daxpy(v.reshape(-1), out.reshape(-1), a=shift / s)
            if s != 1.0:
                out *= s

        accs = self._sum(cur, step, coefs)
        if by_row:
            accs = accs.transpose(0, 2, 1)
        return fold.unfold(accs) if fold else accs

    def _narrow(self, cols: np.ndarray, coefs, transposed: bool, weights, bounds) -> np.ndarray:
        """_folded's sums for a narrow batch, column by column, each judged
        in the norm of `weights` (see _norm), as (T, 2^N, m): the transpose
        of a C-ordered (T, m, 2^N) buffer.  A column that admits a lattice
        symmetry steps on the orbits of its stabilizer (see _stabilizer and
        _Quotient) and is gathered back; bounds (a density's [min, max] per
        column, or None) clip it on its orbit values.  A repeat of an evolved
        column, or on a folded engine its flip, reads its result, and so
        does its image under an automorphism of the rates (see _image),
        moved: S(t)(f o g) = (S(t) f) o g.  The other columns step through
        _folded together.

        What the search found for each column, keyed by its norm (function,
        measure or density) and bytes, is kept until the next narrow batch
        of that norm: a group, an image of another column of the batch, or
        None.  A batch that repeats the last one of its norm, as a time scan
        does, searches nothing; an image whose source is not in the batch is
        searched again."""
        n, size, m = self.torus.n_sites, len(cols), cols.shape[1]
        kind = "functions" if weights is None else "measures" if transposed else "densities"
        memo, found = self._searched.get(kind, []), []
        out = np.empty((len(coefs), m, size))
        # (bytes, column) of the evolved columns, and of those on orbits
        done, rest, on_orbits = [], [], []
        for j, col in enumerate(cols.T):
            key = col.tobytes()
            k = _match(done, key)
            # on a folded engine, a column may be an evolved column's flip
            flipped = k is None and self.flip_symmetric
            if flipped:
                k = next((k for _, k in done if np.array_equal(col, cols[::-1, k])), None)
            if k is not None:
                out[:, j] = out[:, k, ::-1] if flipped else out[:, k]
                continue
            # a hit keeps the memo's bytes, so a batch evolved again holds its
            # keys once
            key, outcome = next(((b, o) for b, o in memo if b == key), (key, False))
            if isinstance(outcome, _Image):
                # the source's bytes as this batch holds them, or a search
                # when the batch has not evolved it on orbits
                source = next((b for b, _ in on_orbits if b == outcome.source), None)
                outcome = source is not None and outcome._replace(source=source)
            if outcome is False:
                image = self._image(col, cols[:, [k for _, k in on_orbits]], weights)
                outcome = _Image(on_orbits[image[0]][0], image[1]) if image else self._stabilizer(col, weights)
            found.append((key, outcome))
            if outcome is None:
                rest.append(j)
                continue
            if isinstance(outcome, _Image):
                for at, result in zip(out[:, j], out[:, _match(on_orbits, outcome.source)]):
                    at[...] = permute_states(result, n, outcome.image)
                if bounds:
                    np.clip(out[:, j], bounds[0][j], bounds[1][j], out=out[:, j])
            else:
                q = self._quotient(outcome, transposed)
                sums = self._sum(q.reduce(col), q.step, coefs)
                if bounds:
                    np.clip(sums, bounds[0][j], bounds[1][j], out=sums)
                q.expand(sums, out[:, j])
                on_orbits.append((key, j))
            done.append((key, j))
        self._searched[kind] = found
        if rest:
            folded = self._folded(cols[:, rest], coefs, transposed)
            if bounds:
                np.clip(folded, bounds[0][rest], bounds[1][rest], out=folded)
            out[:, rest] = folded.transpose(0, 2, 1)
        return out.transpose(0, 2, 1)

    @cached_property
    def _probe(self):
        """31 fixed states spread over the state space and, row by row, their
        images under every automorphism of the rates: g(s) sets bit g[i] for
        each set bit i of s."""
        states = np.random.default_rng(0).integers(self.n_states, size=31)
        bits = (states[:, None] >> np.arange(self.torus.n_sites)) & 1
        return states, bits @ (1 << self.rates.automorphisms.T)

    def _stabilizer(self, col: np.ndarray, weights) -> _Symmetry | None:
        """The automorphisms g of the rates that col admits, with characters
        chi(g) = +-1: moving col by g, col(g(s)), differs from chi(g) col by at
        most _SYMMETRY_RTOL times col's norm, both in the norm of `weights`
        (see _norm).  The global flip is tried on a folded engine only, and
        joins when col admits g o flip for every admitted g as well.  None
        when col admits no lattice symmetry but the identity, or when the
        admitted maps are not a group with multiplying characters.

        Every candidate is first read at the largest entry of col and the
        states of _probe, a necessary test.  A candidate that passes it is
        moved whole, one at a time, unless the maps admitted so far generate
        it with a deviation bound (see _generate) within the tolerance; each
        admitted map joins the generators.  The group they generate must then
        hold only admitted maps."""
        group, n = self.rates.automorphisms, self.torus.n_sites
        norm = _norm(col, weights)
        if len(group) < 2 or not 0.0 < norm < np.inf:
            return None
        tol = _SYMMETRY_RTOL * norm

        def character(moved, chis):
            """The first chi with col o g within tol of chi col, and the gap"""
            for chi in chis:
                dev = _norm(moved - chi * col, weights)
                if dev <= tol:
                    return chi, dev
            return 0.0, math.inf

        plus, minus = self._near(col, col, tol, weights)
        gens, checked = [], {}
        found = _generate(n, gens)
        for g in np.flatnonzero(plus | minus)[1:]:
            key = group[g].tobytes()
            if key in found and found[key][2] <= tol:
                continue
            chis = [chi for chi, ok in ((1.0, plus[g]), (-1.0, minus[g])) if ok]
            chi, dev = character(permute_states(col, n, group[g]), chis)
            if chi:
                checked[key] = chi
                gens.append((group[g], chi, dev))
                found = _generate(n, gens)
                if found is None:
                    return None
        if not gens or any(bound > tol and checked.get(key) != chi for key, (_, chi, bound) in found.items()):
            return None
        flip = 0.0
        if self.flip_symmetric:
            flip, dev = character(col[::-1], (1.0, -1.0))
            # so must every g o flip, col(g(flip(s))): by the bound or moved whole
            if flip and any(
                bound + dev > tol and not character(permute_states(col, n, image)[::-1], (chi * flip,))[0]
                for image, chi, bound in found.values()
            ):
                flip = 0.0
        images, chars, _ = zip(*found.values())
        gen_images, gen_chars, _ = zip(*gens)
        return _Symmetry(np.array(images), np.array(chars), np.array(gen_images), np.array(gen_chars), flip)

    def _near(self, source: np.ndarray, col: np.ndarray, tol: float, weights):
        """Masks over the automorphisms g of the rates: source(g(s)) within
        tol of col(s), and of -col(s), times the weight at s (see _norm), at
        the states of _probe and at col's largest weighted entry.  A
        necessary test of |source o g -+ col| <= tol in that norm."""
        probe, moved = self._probe
        w = np.broadcast_to(1.0 if weights is None else weights, col.shape)
        top = np.argmax(np.abs(col) * w)
        n, group = self.torus.n_sites, self.rates.automorphisms
        at = source[np.vstack([moved, ((top >> np.arange(n)) & 1) @ (1 << group.T)])]
        states = np.append(probe, top)
        want, w = col[states, None], w[states, None]
        return np.all(w * np.abs(at - want) <= tol, axis=0), np.all(w * np.abs(at + want) <= tol, axis=0)

    def _image(self, col: np.ndarray, sources: np.ndarray, weights):
        """(k, g) for the first column k of sources and automorphism g of the
        rates with sources[:, k] moved by g, sources[g(s), k], within
        _SYMMETRY_RTOL of col's norm of col (in the norm of `weights`, see
        _norm), so that S(t) col is S(t) sources[:, k] moved by g to that
        error; None when there is none."""
        norm = _norm(col, weights) if sources.size else 0.0
        if not 0.0 < norm < np.inf:
            return None
        tol, n, group = _SYMMETRY_RTOL * norm, self.torus.n_sites, self.rates.automorphisms
        for k, source in enumerate(sources.T):
            for g in np.flatnonzero(self._near(source, col, tol, weights)[0]):
                if _norm(permute_states(source, n, group[g]) - col, weights) <= tol:
                    return k, group[g]
        return None

    def _quotient(self, sym: _Symmetry, transposed: bool) -> _Quotient:
        """The _Quotient of a group, characters and direction, cached on the
        engine.  The cache keeps the most recently used operators whose bytes
        (see _Quotient.nbytes) fit in the engine's own operator bytes (`p`,
        `pt` and their shared index), and always the one asked for; a group
        asked for again after its eviction is built again, to the same bits.
        Half that, `p` alone, would not hold the two operators that
        psi_identity_check alternates between on a 14-site ring (sigma_0's
        reflection with either flip character), which were then rebuilt at
        every step."""
        key = (sym.images.tobytes(), sym.chars.tobytes(), sym.flip, transposed)
        q = self._quotients.pop(key, None) or _Quotient(self, sym, transposed)
        self._quotients[key] = q
        while sum(c.nbytes for c in self._quotients.values()) > self._operator_bytes and len(self._quotients) > 1:
            del self._quotients[next(iter(self._quotients))]
        return q


def engine_for(rates: RateModel) -> SemigroupEngine:
    """Engine cache: P and its Poisson weights are built once per rate model
    and reused."""
    if rates._engine is None:
        rates._engine = SemigroupEngine(rates)
    return rates._engine


@dataclass(frozen=True, eq=False)
class GammaResult:
    """Gamma of one rate model, read-only and normal, and K(t) and its
    squared integral in closed form from alpha, the largest eigenvalue of
    (Gamma + Gamma^T)/2; both raise a ValueError where they pass the float
    range rather than return inf."""

    matrix: np.ndarray
    alpha: float

    def k_of_t(self, t: float) -> float:
        """K(t) = ||e^{t Gamma}||_{2->2}^2 = e^{2 t alpha}."""
        with np.errstate(over="ignore"):
            k_t = float(np.exp(2.0 * float(t) * self.alpha))
        return self._finite("K(t) = exp(2 t alpha)", t, k_t)

    def k_squared_integral(self, t: float) -> float:
        """int_0^t K(s)^2 ds = t exprel(4 t alpha)."""
        t = float(t)
        value = t * float(exprel(4.0 * self.alpha * t))
        return self._finite("int_0^t K(s)^2 ds = t exprel(4 t alpha)", t, value)

    def _finite(self, what: str, t: float, value: float) -> float:
        if not np.isfinite(value):
            raise ValueError(f"{what} is past the float range at t = {t:.6g} (alpha = {self.alpha:.6g})")
        return value


def _is_normal(g: np.ndarray) -> bool:
    """G G^T = G^T G up to the rounding of the two products."""
    a = np.abs(g)
    slack = 4 * len(g) * np.finfo(float).eps * (a @ a.T + a.T @ a)
    return bool(np.all(np.abs(g @ g.T - g.T @ g) <= slack))


def gamma_matrix(rates: RateModel) -> GammaResult:
    """Gamma_ij = sup_sigma (c(i, sigma^j) - c(i, sigma)), literal diagonal;
    built once per rate model and cached on it, like its engine.  A Gamma
    that is not normal raises a ValueError: K(t) is kept in closed form,
    which holds for translation-invariant rates."""
    if rates._gamma is None:
        n = rates.torus.n_sites
        g = np.zeros((n, n))
        for i, (sites, vals) in enumerate(rates._reads):
            pats = np.arange(vals.size, dtype=np.int64)
            for bit, j in enumerate(sites):
                g[i, j] = float(np.max(vals[pats ^ np.int64(1 << bit)] - vals))
        if not _is_normal(g):
            raise ValueError(
                f"{rates!r}: Gamma is not normal, so K(t) has no closed form; the Lipschitz "
                "propagation bound is taken for translation-invariant rates, whose Gamma is circulant"
            )
        g.setflags(write=False)
        rates._gamma = GammaResult(g, float(np.linalg.eigvalsh(0.5 * (g + g.T))[-1]))
    return rates._gamma


def k_of_t(gamma: np.ndarray, t: float) -> float:
    """K(t) = ||e^{t Gamma}||_{2->2}^2 for any Gamma, from expm and the
    largest singular value.  The package reads K(t) from GammaResult; this
    is the tests' expm/SVD reference for it, and the name perfbench's
    tracer wraps."""
    e = expm(float(t) * gamma)
    return float(svdvals(e)[0] ** 2)
