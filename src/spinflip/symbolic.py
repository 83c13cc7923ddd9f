"""Exact operator algebra for spin-flip generators acting on monomials.

Works over the infinite lattice Z^d (no torus wrap).  A monomial sigma_A
is a finite subset A of Z^d; products obey sigma_G sigma_F = sigma_{G
Delta F}.  The translation-invariant building block

    L_B = sum_i sigma_{B+i} nabla_i,    L_B sigma_A = -2 sum_{i in A} sigma_{(B+i) Delta A},

drives everything: chains L_{B_n} ... L_{B_1} sigma_A obey the uniform
estimate

    ||.||_inf <= 2^n |A| (|A|+|B_1|) (|A|+|B_1|+|B_2|) ... (|A|+|B_1|+...+|B_{n-1}|)

(the last operator's shape size never enters; the telescoped product is
followed verbatim), and generator powers of L = sum_B lambda(B) L_B obey

    ||L^n sigma_A||_inf <= 2^n M^n |bb|^n (|A|+K)^n n!

with K = max |B|, M = max |lambda(B)|, |bb| the shape count, giving the
analyticity radius t0 = 1/(2 M |bb| (|A|+K)).

Expansions run on integers.  A monomial is a Python-int bitmask over a
row-major box of Z^d holding every site the expansion can reach, so a
translate is one integer shift and sigma_G sigma_F is G ^ F; the
coefficients of L^n sigma_A are integer numerators over den^n, den the lcm
of the denominators of the lambda(B).  Norms, bound checks and series sums
read this integer form; monomials become frozensets of coordinates, and
coefficients exact Fractions, only when a caller reads a result's
polynomial terms, and then once.  Floats appear only when a time series is
summed.  The exact sup norm over a support of m sites is the largest
absolute entry of one fast Walsh-Hadamard transform (Fino & Algazi 1976)
of the 2^m vector of numerators: m 2^m integer additions.

The infinite-range variant replaces the shape count by a tail measure:
sum_{|B|=k} |lambda(B)| <= c psi(k) with F(u) = sum_k e^{uk} psi(k) finite,
and the combinatorial bound sum prod_j (1 + sum_{l<=j} k_l) prod psi(k_m)
<= e^u n! u^{-n} F(u)^n yields ||L^n sigma_A|| <= e^u n! kappa^n with
kappa = 2 c |A| F(u) / u.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattice import EXACT_SITE_CAP, Torus, monomial_values_dense

TERM_CAP = 10**7
POWER_CAP = 8


def as_monomial(sites) -> frozenset:
    """Canonical monomial key: frozenset of coordinate tuples (ints -> 1D).
    A repeated site raises: sigma_i sigma_i = 1, not sigma_i."""
    out = set()
    for s in sites:
        key = (s,) if isinstance(s, int) else tuple(int(x) for x in s)
        if key in out:
            raise ValueError(f"repeated site {s}")
        out.add(key)
    return frozenset(out)


def _walsh_hadamard(v: np.ndarray) -> np.ndarray:
    """w[x] = sum_S v[S] (-1)^{|S & x|} over the 2^m entries (Fino & Algazi
    1976), by m constant-geometry stages (Pease 1968): sums and differences
    of the even and odd entries go to the two halves, so after m stages each
    index bit took one butterfly and is back in place.  Overwrites v."""
    half = v.size // 2
    out = np.empty_like(v)
    for _ in range(v.size.bit_length() - 1):
        pairs = v.reshape(-1, 2)
        np.add(pairs[:, 0], pairs[:, 1], out=out[:half])
        np.subtract(pairs[:, 0], pairs[:, 1], out=out[half:])
        v, out = out, v
    return v


def _patterns(masks, support: int) -> np.ndarray:
    """Each bitmask's bits at the set positions of `support`, packed low to
    high into an int64: its index among the 2^|support| patterns."""
    width = max(1, (support.bit_length() + 7) // 8)
    raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8)
    sup = np.frombuffer(support.to_bytes(width, "little"), dtype=np.uint8)
    used = np.flatnonzero(sup)
    bits = np.unpackbits(raw.reshape(-1, width)[:, used], axis=1, bitorder="little")
    bits = bits[:, np.unpackbits(sup[used], bitorder="little").astype(bool)]
    return bits @ (1 << np.arange(bits.shape[1], dtype=np.int64))


def _norms(terms: dict, den: int, cap: int) -> tuple:
    """Exact (l1 norm, sup norm) of sum_S terms[S] / den sigma_S over
    bitmasks S, after dividing numerators and den by their gcd (den is then
    the lcm of the reduced denominators).  The sup norm is None when the
    support exceeds cap sites or the reduced l1 norm reaches 2^62, the bound
    on every partial sum of the int64 Walsh-Hadamard transform whose
    entries are the polynomial's values (at complemented patterns)."""
    if not terms:
        return Fraction(0), Fraction(0)
    g = math.gcd(den, *terms.values())
    den //= g
    nums = [c // g for c in terms.values()] if g > 1 else list(terms.values())
    l1 = sum(map(abs, nums))
    support = functools.reduce(operator.or_, terms)
    if support.bit_count() > cap or l1 >= 1 << 62:
        return Fraction(l1, den), None
    vals = np.zeros(1 << support.bit_count(), dtype=np.int64)
    vals[_patterns(terms, support)] = nums
    vals = _walsh_hadamard(vals)
    return Fraction(l1, den), Fraction(max(int(vals.max()), -int(vals.min())), den)


class SetPolynomial:
    """Sparse rational combination of monomials sigma_A, A a finite set."""

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                c = Fraction(coeff)
                if c != 0:
                    self.terms[key] = c

    @classmethod
    def monomial(cls, sites, coeff=1) -> "SetPolynomial":
        return cls({as_monomial(sites): Fraction(coeff)})

    def __add__(self, other: "SetPolynomial") -> "SetPolynomial":
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, Fraction(0)) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        res = SetPolynomial()
        res.terms = out
        return res

    def scale(self, c) -> "SetPolynomial":
        c = Fraction(c)
        if c == 0:
            return SetPolynomial()
        res = SetPolynomial()
        res.terms = {key: c * v for key, v in self.terms.items()}
        return res

    def __eq__(self, other):
        return isinstance(other, SetPolynomial) and self.terms == other.terms

    def n_terms(self) -> int:
        return len(self.terms)

    def support(self) -> frozenset:
        out = set()
        for key in self.terms:
            out |= key
        return frozenset(out)

    def numerators(self) -> tuple[dict, int]:
        """({monomial: integer numerator}, scale) with scale the lcm of the
        coefficients' reduced denominators."""
        scale = math.lcm(*(c.denominator for c in self.terms.values()))
        return {key: c.numerator * (scale // c.denominator) for key, c in self.terms.items()}, scale

    def _integer_form(self) -> tuple[dict, int]:
        """numerators() keyed by bitmasks, bit j for the support's j-th site."""
        pos = {s: 1 << j for j, s in enumerate(self.support())}
        nums, scale = self.numerators()
        return {sum(map(pos.get, key)): c for key, c in nums.items()}, scale

    def coeff_l1(self) -> Fraction:
        return _norms(*self._integer_form(), cap=-1)[0]  # no support fits cap -1: no transform

    def exact_sup_norm(self, cap: int = EXACT_SITE_CAP):
        """Exact sup norm over every spin pattern of the support, as an exact
        Fraction; None when the support exceeds the cap or the l1 norm of
        the numerators reaches 2^62 (see _norms)."""
        return _norms(*self._integer_form(), cap)[1]

    def __repr__(self):
        return f"SetPolynomial({self.n_terms()} terms)"


def _apply_table(terms: dict, table) -> dict:
    """sum_B lambda(B) L_B on {bitmask: numerator}, from the rows (bitmask of
    B shifted up by -base, base, -2 * numerator of lambda(B)) and
    L_B sigma_A = -2 sum_{i in A} sigma_{(B+i) ^ A}."""
    out = {}
    get = out.get
    for a, c in terms.items():
        sites = []
        bits = a
        while bits:
            low = bits & -bits
            sites.append(low.bit_length() - 1)
            bits ^= low
        for b, base, lam in table:
            v = lam * c
            for i in sites:
                key = (b << (i + base)) ^ a
                out[key] = get(key, 0) + v
        if len(out) > TERM_CAP:
            raise RuntimeError("term-count overflow in the expansion")
    return {key: v for key, v in out.items() if v}


class _Expansion:
    """L_j ... L_1 p on integers, for the operators L_j = sum_B lambda(B) L_B
    given as {shape: lambda} dicts in application order.

    Site x of Z^d is a bit of a row-major box that holds every site the
    steps can reach from p's support.  Along each axis the box keeps the
    intervals [x_k + reach_lo, x_k + reach_hi] around the support's
    coordinates, with the gaps between them closed, so its volume follows
    the reachable sites and not the spread of the support.  No step leaves
    its interval, so a shape translated to site i is its bitmask shifted by
    i, and no index wraps.  Coefficients are integer numerators over `den`:
    the lcm of p's denominators times, per step, the lcm of that step's
    lambda denominators."""

    def __init__(self, poly: SetPolynomial, steps, dim=None):
        support = poly.support()
        offsets = [[o for b in shapes for o in b] for shapes in steps]
        dims = {len(x) for x in support}.union(*({len(o) for o in offs} for offs in offsets))
        if dim is None:
            dim = max(dims, default=1)
        if dims - {dim}:
            raise ValueError(f"sites and shape offsets must all have dimension {dim}, got {sorted(dims)}")
        self.steps = steps
        # per axis: the first coordinate of each merged interval, and its
        # first position along the axis of the box
        self.axes, widths = [], []
        for k in range(dim):
            reach_lo = sum(min([0] + [o[k] for o in offs]) for offs in offsets)
            reach_hi = sum(max([0] + [o[k] for o in offs]) for offs in offsets)
            starts, firsts, width = [], [], 0
            for x in sorted({s[k] for s in support}) or [0]:
                if starts and x + reach_lo <= end + 1:
                    width += x + reach_hi - end
                else:
                    starts.append(x + reach_lo)
                    firsts.append(width)
                    width += reach_hi - reach_lo + 1
                end = x + reach_hi
            self.axes.append((starts, firsts))
            widths.append(width)
        self.strides = [math.prod(widths[k + 1 :]) for k in range(dim)]
        self.sites = {}
        nums, self.den = poly.numerators()
        self.terms = {sum(1 << self.index(x) for x in key): c for key, c in nums.items()}

    def index(self, x) -> int:
        j = 0
        for a, (starts, firsts), stride in zip(x, self.axes, self.strides):
            m = bisect.bisect_right(starts, a) - 1
            j += (firsts[m] + a - starts[m]) * stride
        return j

    def key(self, mask: int) -> frozenset:
        """The monomial of a bitmask, as a frozenset of coordinates."""
        out = []
        while mask:
            low = mask & -mask
            j = low.bit_length() - 1
            if j not in self.sites:
                coords, rest = [], j
                for (starts, firsts), stride in zip(self.axes, self.strides):
                    q, rest = divmod(rest, stride)
                    m = bisect.bisect_right(firsts, q) - 1
                    coords.append(starts[m] + q - firsts[m])
                self.sites[j] = tuple(coords)
            out.append(self.sites[j])
            mask ^= low
        return frozenset(out)

    def __iter__(self):
        """The polynomial before the first step and after each, as
        _ExpandedPolynomials."""
        terms, den = self.terms, self.den
        yield _ExpandedPolynomial(self, terms, den)
        for shapes in self.steps:
            step_den = math.lcm(*(lam.denominator for lam in shapes.values()))
            table = []
            for b, lam in shapes.items():
                if lam:
                    deltas = [sum(a * s for a, s in zip(o, self.strides)) for o in b]
                    base = min(deltas, default=0)
                    table.append((sum(1 << (d - base) for d in deltas), base, -2 * lam.numerator * (step_den // lam.denominator)))
            terms = _apply_table(terms, table)
            den *= step_den
            yield _ExpandedPolynomial(self, terms, den)

    def polynomial(self, terms: dict, den: int) -> SetPolynomial:
        """{bitmask: numerator} over den as frozensets and Fractions."""
        res = SetPolynomial()
        res.terms = {self.key(mask): Fraction(c, den) for mask, c in terms.items()}
        return res

    def run(self) -> SetPolynomial:
        """Apply every step; the result."""
        *_, last = self
        return last


class _ExpandedPolynomial(SetPolynomial):
    """A polynomial of an _Expansion kept as {bitmask: numerator} over den.
    Its norms and term count read this integer form; its frozenset/Fraction
    terms are built on first read, once."""

    def __init__(self, expansion: _Expansion, masks: dict, den: int):
        self.expansion, self.masks, self.den = expansion, masks, den

    @functools.cached_property
    def terms(self) -> dict:
        return self.expansion.polynomial(self.masks, self.den).terms

    def n_terms(self) -> int:
        return len(self.masks)

    def support(self) -> frozenset:
        return self.expansion.key(functools.reduce(operator.or_, self.masks, 0))

    def _integer_form(self) -> tuple[dict, int]:
        return self.masks, self.den


def chain_bound(shape_sizes, a_size: int) -> int:
    """Telescoped product 2^n |A| (|A|+|B_1|) ... (|A|+|B_1|+...+|B_{n-1}|);
    shape_sizes in application order, the last size never enters."""
    n = len(shape_sizes)
    out = (2**n) * a_size
    partial = 0
    for size in shape_sizes[:-1]:
        partial += size
        out *= a_size + partial
    return out


def _checked(cls, poly: SetPolynomial, bound, estimate: str):
    """cls(poly, sup, l1, bound, exact_available) from poly's norms, once
    l1 <= bound and sup <= l1 are checked."""
    l1 = poly.coeff_l1()
    sup = poly.exact_sup_norm()
    if l1 > bound:
        raise RuntimeError(f"{estimate} violated: l1 norm {l1} > bound {bound}")
    if sup is not None and sup > l1:
        raise RuntimeError("sup norm exceeded the l1 coefficient norm")
    return cls(poly, sup, l1, bound, sup is not None)


@dataclass
class ChainResult:
    polynomial: SetPolynomial
    exact_sup_norm: Fraction | None
    coeff_l1_norm: Fraction
    lemma_bound: int
    exact_available: bool


def apply_chain(shapes, A) -> ChainResult:
    """L_{B_n} ... L_{B_1} sigma_A with shapes listed in application order
    (shapes[0] acts first); checks the uniform estimate exactly."""
    shapes = [as_monomial(b) for b in shapes]
    if not shapes:
        raise ValueError("need at least one shape")
    a = as_monomial(A)
    poly = _Expansion(SetPolynomial.monomial(a), [{b: 1} for b in shapes]).run()
    return _checked(ChainResult, poly, chain_bound([len(b) for b in shapes], len(a)), "uniform chain estimate")


class GeneratorSpec:
    """Finite collection of shapes B with rational coefficients lambda(B)."""

    def __init__(self, terms):
        seen = {}
        for shape, lam in terms:
            b = as_monomial(shape)
            if b in seen:
                raise ValueError("shapes must be distinct")
            seen[b] = Fraction(lam)
        if not seen:
            raise ValueError("empty generator spec")
        self.shapes = dict(seen)
        dims = {len(o) for b in self.shapes for o in b}
        if len(dims) > 1:
            raise ValueError(f"mixed offset dimensions {sorted(dims)}")
        self.dim = dims.pop() if dims else 1

    @property
    def size(self) -> int:
        return len(self.shapes)

    @property
    def k_max_shape(self) -> int:
        return max(len(b) for b in self.shapes)

    @property
    def m_max_coeff(self) -> Fraction:
        return max(abs(l) for l in self.shapes.values())

    def apply(self, poly: SetPolynomial) -> SetPolynomial:
        return _Expansion(poly, [self.shapes], self.dim).run()

    @classmethod
    def load(cls, path) -> "GeneratorSpec":
        terms = []
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if ":" not in line:
                    raise ValueError(f"malformed generator line: {raw!r}")
                lam, rhs = line.split(":", 1)
                offsets = tuple(
                    tuple(int(x) for x in tok.split(",")) for tok in rhs.split()
                )
                if len(set(offsets)) != len(offsets):
                    raise ValueError(f"repeated offset in the shape {rhs.strip()!r}")
                try:
                    terms.append((offsets, Fraction(lam.strip())))
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in the coefficient {lam.strip()!r}") from None
        if not terms:
            raise ValueError(f"no shapes in generator file {path}")
        return cls(terms)

    def __repr__(self):
        return f"GeneratorSpec({self.size} shapes, K={self.k_max_shape}, M={self.m_max_coeff})"


def loccast_bound(gen: GeneratorSpec, n: int, a_size: int) -> Fraction:
    """2^n M^n |bb|^n (|A|+K)^n n!"""
    return (2 * gen.m_max_coeff * gen.size * (a_size + gen.k_max_shape)) ** n * math.factorial(n)


@dataclass
class PowerResult:
    polynomial: SetPolynomial
    exact_sup_norm: Fraction | None
    coeff_l1_norm: Fraction
    loccast_bound: Fraction
    exact_available: bool


def _start(gen: GeneratorSpec, n: int, A) -> frozenset:
    """sigma_A's key, once n is a power in 0..POWER_CAP and A has the
    generator's dimension."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > POWER_CAP:
        raise ValueError(f"power {n} exceeds the cap {POWER_CAP}")
    a = as_monomial(A)
    if any(len(x) != gen.dim for x in a):
        raise ValueError(f"A = {sorted(a)} does not have the generator's dimension {gen.dim}")
    return a


def generator_powers(gen: GeneratorSpec, n_max: int, A):
    """Yield L^n sigma_A for n = 0..n_max, from one expansion."""
    start = SetPolynomial.monomial(_start(gen, n_max, A))
    yield from _Expansion(start, [gen.shapes] * n_max, gen.dim)


def power_result(gen: GeneratorSpec, n: int, A, poly: SetPolynomial) -> PowerResult:
    """poly = L^n sigma_A with its norms, the factorial bound checked."""
    return _checked(PowerResult, poly, loccast_bound(gen, n, len(as_monomial(A))), "factorial growth bound")


def apply_generator_power(gen: GeneratorSpec, n: int, A) -> PowerResult:
    """Exact expansion of L^n sigma_A with the factorial bound checked."""
    *_, poly = generator_powers(gen, n, A)
    return power_result(gen, n, A, poly)


def analyticity_radius(gen: GeneratorSpec, A) -> Fraction:
    """t0 = 1 / (2 M |bb| (|A| + K)); the power series of S(t) sigma_A
    converges uniformly for t < t0."""
    a = as_monomial(A)
    return 1 / (2 * gen.m_max_coeff * gen.size * (len(a) + gen.k_max_shape))


@dataclass
class SeriesResult:
    coeffs: dict  # frozenset -> float
    remainder_bound: float
    rho: float
    n_max: int


def truncated_series(gen: GeneratorSpec, t: float, A, n_max: int) -> SeriesResult:
    """Partial sum over n <= n_max of t^n/n! L^n sigma_A, plus the geometric
    tail bound sum_{n > n_max} rho^n with rho = 2 t M |bb| (|A|+K)."""
    t0 = float(analyticity_radius(gen, A))
    t = float(t)
    if t < 0 or t >= t0:
        raise ValueError(f"t = {t} is outside [0, t0) with t0 = {t0}")
    a = as_monomial(A)
    acc = {}
    for n, poly in enumerate(generator_powers(gen, n_max, a)):
        w, den = t**n / math.factorial(n), poly.den
        for mask, c in poly.masks.items():
            acc[mask] = acc.get(mask, 0.0) + w * (c / den)  # c / den rounds as float(Fraction(c, den))
    rho = 2.0 * t * float(gen.m_max_coeff) * gen.size * (len(a) + gen.k_max_shape)
    remainder = rho ** (n_max + 1) / (1.0 - rho)
    acc = {poly.expansion.key(mask): v for mask, v in acc.items() if v != 0.0}
    return SeriesResult(acc, remainder, rho, n_max)


def realize_monomial_sites(key: frozenset, torus: Torus):
    """Map a monomial's coordinates onto torus sites, insisting the embedding
    is injective (no wrap collisions)."""
    sites = [torus.site(c) for c in sorted(key)]
    if len(set(sites)) != len(sites):
        raise ValueError(f"monomial {sorted(key)} wraps onto itself on {torus}")
    return tuple(sites)


def realize_polynomial(coeffs, torus: Torus) -> np.ndarray:
    """Evaluate a set polynomial (dict frozenset -> number) over all torus
    states as a dense vector."""
    out = np.zeros(1 << torus.n_sites)
    for key, c in coeffs.items() if isinstance(coeffs, dict) else coeffs.terms.items():
        sites = realize_monomial_sites(key, torus)
        if sites:
            out += float(c) * monomial_values_dense(torus, sites)
        else:
            out += float(c)
    return out


class GeometricTail:
    """psi(k) = scale * e^{-a k}; F(u) = scale / (1 - e^{u - a}) for u < a."""

    def __init__(self, a: float, scale: float = 1.0):
        if a <= 0 or scale <= 0:
            raise ValueError("decay and scale must be positive")
        self.a = float(a)
        self.scale = float(scale)

    def psi(self, k: int) -> float:
        return self.scale * math.exp(-self.a * k)

    def f_of_u(self, u: float) -> float:
        if u >= self.a:
            raise ValueError(f"F(u) diverges for u = {u} >= decay {self.a}")
        return self.scale / (1.0 - math.exp(u - self.a))

    def __repr__(self):
        return f"GeometricTail(a={self.a}, scale={self.scale})"


class DeltaTail:
    """psi = mass * delta_{k0}; F(u) = mass * e^{u k0}."""

    def __init__(self, k0: int = 0, mass: float = 1.0):
        if k0 < 0 or mass <= 0:
            raise ValueError("need k0 >= 0 and positive mass")
        self.k0 = int(k0)
        self.mass = float(mass)

    def psi(self, k: int) -> float:
        return self.mass if k == self.k0 else 0.0

    def f_of_u(self, u: float) -> float:
        return self.mass * math.exp(u * self.k0)


@dataclass
class InfiniteRangeResult:
    f_of_u: float
    kappa: float
    prefactor: float  # e^u
    chain_bound: float  # e^u n! kappa^n
    lemma_lhs: float
    lemma_rhs: float
    holds: bool
    k_max: int


def combinatorial_sum(psi, n: int, k_max: int) -> float:
    """sum over k_1..k_n in [0, k_max]^n of prod_j (1 + k_1 + ... + k_j)
    prod_m psi(k_m), by dynamic programming over the partial sum."""
    weights = np.array([psi.psi(k) for k in range(k_max + 1)])
    # g[s] = sum over prefixes with partial sum s of the accumulated product
    g = np.zeros(n * k_max + 1)
    g[0] = 1.0
    for _ in range(n):
        h = np.convolve(g, weights)[: g.size]
        s = np.arange(g.size, dtype=float)
        g = h * (1.0 + s)
    return float(g.sum())


def infinite_range_bound(
    psi, c: float, u: float, A, n: int, k_max: int = 40
) -> InfiniteRangeResult:
    """Checks the combinatorial lemma and assembles the kappa chain:
    ||L^n sigma_A|| <= |A|^n 2^n c^n e^u n! u^{-n} F(u)^n = e^u n! kappa^n
    with kappa = 2 c |A| F(u) / u."""
    if u <= 0 or c <= 0 or n < 1:
        raise ValueError("need u > 0, c > 0, n >= 1")
    a_size = len(as_monomial(A))
    f_u = psi.f_of_u(u)
    lhs = combinatorial_sum(psi, n, k_max)
    rhs = math.exp(u) * math.factorial(n) * u ** (-n) * f_u**n
    kappa = 2.0 * c * a_size * f_u / u
    chain = math.exp(u) * math.factorial(n) * kappa**n
    holds = lhs <= rhs * (1.0 + 1e-12)
    if not holds:
        raise RuntimeError(
            f"combinatorial tail lemma violated: lhs {lhs} > rhs {rhs}"
        )
    return InfiniteRangeResult(f_u, kappa, math.exp(u), chain, lhs, rhs, holds, k_max)
