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
analyticity radius t0 = 1/(2 M |bb| (|A|+K)).  Coefficients stay exact
Fractions throughout; floats appear only when a time series is summed.

The infinite-range variant replaces the shape count by a tail measure:
sum_{|B|=k} |lambda(B)| <= c psi(k) with F(u) = sum_k e^{uk} psi(k) finite,
and the combinatorial bound sum prod_j (1 + sum_{l<=j} k_l) prod psi(k_m)
<= e^u n! u^{-n} F(u)^n yields ||L^n sigma_A|| <= e^u n! kappa^n with
kappa = 2 c |A| F(u) / u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattice import EXACT_SITE_CAP, Torus, monomial_values_dense, spin_product

TERM_CAP = 10**7
POWER_CAP = 8


def as_monomial(sites) -> frozenset:
    """Canonical monomial key: frozenset of coordinate tuples (ints -> 1D)."""
    out = set()
    for s in sites:
        if isinstance(s, int):
            out.add((s,))
        else:
            out.add(tuple(int(x) for x in s))
    return frozenset(out)


def shift(shape: frozenset, i: tuple) -> frozenset:
    return frozenset(tuple(a + b for a, b in zip(s, i)) for s in shape)


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
    def zero(cls) -> "SetPolynomial":
        return cls()

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

    def coeff_l1(self) -> Fraction:
        return sum((abs(c) for c in self.terms.values()), Fraction(0))

    def evaluate(self, assignment) -> Fraction:
        """Value at a spin assignment {coordinate: +-1}."""
        total = Fraction(0)
        for key, c in self.terms.items():
            sign = 1
            for site in key:
                sign *= assignment[site]
            total += c * sign
        return total

    def exact_sup_norm(self, cap: int = EXACT_SITE_CAP):
        """Exact sup norm by enumerating the support patterns; None when the
        support exceeds the cap.  Integer arithmetic after clearing
        denominators, so the result is an exact Fraction."""
        if not self.terms:
            return Fraction(0)
        support = sorted(self.support())
        m = len(support)
        if m > cap:
            return None
        pos = {s: j for j, s in enumerate(support)}
        scale = math.lcm(*(c.denominator for c in self.terms.values()))
        worst = int(self.coeff_l1() * scale)
        if worst >= (1 << 62):
            return None  # would overflow the int64 evaluation
        assign = np.arange(1 << m, dtype=np.int64)
        vals = np.zeros(1 << m, dtype=np.int64)
        for key, c in self.terms.items():
            num = int(c * scale)
            vals += num * spin_product(assign, sum(1 << pos[s] for s in key))
        return Fraction(int(np.max(np.abs(vals))), scale)

    def __repr__(self):
        return f"SetPolynomial({self.n_terms()} terms)"


def apply_LB(B, poly: SetPolynomial) -> SetPolynomial:
    """L_B acting on a polynomial: linear extension of
    L_B sigma_A = -2 sum_{i in A} sigma_{(B+i) Delta A}."""
    if isinstance(poly, (frozenset, set, tuple, list)):
        poly = SetPolynomial.monomial(poly)
    b = as_monomial(B)
    out = {}
    for a, coeff in poly.terms.items():
        c = -2 * coeff
        for i in a:
            key = shift(b, i) ^ a
            s = out.get(key, Fraction(0)) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        if len(out) > TERM_CAP:
            raise RuntimeError("term-count overflow in L_B expansion")
    res = SetPolynomial()
    res.terms = out
    return res


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
    poly = SetPolynomial.monomial(a)
    for b in shapes:
        poly = apply_LB(b, poly)
    bound = chain_bound([len(b) for b in shapes], len(a))
    l1 = poly.coeff_l1()
    sup = poly.exact_sup_norm()
    if l1 > bound:
        raise RuntimeError(
            f"uniform chain estimate violated: l1 norm {l1} > bound {bound}"
        )
    if sup is not None and sup > l1:
        raise RuntimeError("sup norm exceeded the l1 coefficient norm")
    return ChainResult(poly, sup, l1, bound, sup is not None)


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
        dims = {len(next(iter(b))) for b in self.shapes if b}
        if len(dims) > 1:
            raise ValueError("mixed offset dimensions")
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
        out = SetPolynomial()
        for b, lam in self.shapes.items():
            out = out + apply_LB(b, poly).scale(lam)
            if out.n_terms() > TERM_CAP:
                raise RuntimeError("term-count overflow in generator power")
        return out

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
                terms.append((offsets, Fraction(lam.strip())))
        if not terms:
            raise ValueError(f"no shapes in generator file {path}")
        return cls(terms)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            for b, lam in self.shapes.items():
                offs = " ".join(",".join(str(x) for x in o) for o in sorted(b))
                fh.write(f"{lam} : {offs}\n")

    def __repr__(self):
        return f"GeneratorSpec({self.size} shapes, K={self.k_max_shape}, M={self.m_max_coeff})"


def loccast_bound(gen: GeneratorSpec, n: int, a_size: int) -> Fraction:
    """2^n M^n |bb|^n (|A|+K)^n n!"""
    return (
        Fraction(2) ** n
        * gen.m_max_coeff**n
        * Fraction(gen.size) ** n
        * Fraction(a_size + gen.k_max_shape) ** n
        * math.factorial(n)
    )


@dataclass
class PowerResult:
    polynomial: SetPolynomial
    exact_sup_norm: Fraction | None
    coeff_l1_norm: Fraction
    loccast_bound: Fraction
    exact_available: bool


def apply_generator_power(
    gen: GeneratorSpec,
    n: int,
    A,
) -> PowerResult:
    """Exact expansion of L^n sigma_A with the factorial bound checked."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > POWER_CAP:
        raise ValueError(f"power {n} exceeds the cap {POWER_CAP}")
    a = as_monomial(A)
    poly = SetPolynomial.monomial(a)
    for _ in range(n):
        poly = gen.apply(poly)
    bound = loccast_bound(gen, n, len(a))
    l1 = poly.coeff_l1()
    sup = poly.exact_sup_norm()
    if l1 > bound:
        raise RuntimeError(
            f"factorial growth bound violated: l1 norm {l1} > bound {bound}"
        )
    if sup is not None and sup > l1:
        raise RuntimeError("sup norm exceeded the l1 coefficient norm")
    return PowerResult(poly, sup, l1, bound, sup is not None)


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
    if n_max > POWER_CAP:
        raise ValueError(f"n_max {n_max} exceeds the cap {POWER_CAP}")
    a = as_monomial(A)
    poly = SetPolynomial.monomial(a)
    acc = {}
    for n in range(n_max + 1):
        w = t**n / math.factorial(n)
        for key, c in poly.terms.items():
            acc[key] = acc.get(key, 0.0) + w * float(c)
        if n < n_max:
            poly = gen.apply(poly)
    rho = 2.0 * t * float(gen.m_max_coeff) * gen.size * (len(a) + gen.k_max_shape)
    remainder = rho ** (n_max + 1) / (1.0 - rho)
    acc = {k: v for k, v in acc.items() if v != 0.0}
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


class PoissonTail:
    """psi(k) = e^{-lam} lam^k / k!; F(u) = e^{lam (e^u - 1)}."""

    def __init__(self, lam: float):
        if lam <= 0:
            raise ValueError("lam must be positive")
        self.lam = float(lam)

    def psi(self, k: int) -> float:
        return math.exp(-self.lam + k * math.log(self.lam) - math.lgamma(k + 1))

    def f_of_u(self, u: float) -> float:
        return math.exp(self.lam * (math.exp(u) - 1.0))


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
