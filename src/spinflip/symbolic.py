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

Expansions run on integers.  Each site of a row-major box of Z^d holding
every site the expansion can reach is one bit, so the monomials of a
polynomial are the rows of a (T, W) array of little-endian uint64 words,
W = ceil(box volume / 64), and its coefficients are a (T,) array of integer
numerators over den^n, den the lcm of the denominators of the lambda(B).
The numerators are int64 while a bound proves every partial sum of the
next step below 2^62, and Python ints in an object array past it.  A step
of L = sum_B lambda(B) L_B unpacks each term's sites and, per shape, XORs
the shape's bit pattern shifted to each site into a copy of the term's
words (L_B sigma_A = -2 sum_{i in A} sigma_{(B+i) ^ A}); a shape's block of
candidates is merged by a sort and a segmented sum of equal rows before
the next shape's is built (small steps merge all shapes' candidates at
once), the merged blocks are merged the same way, and zero sums drop out.
Norms, bound checks and series sums read this integer form; monomials
become frozensets of coordinates, and coefficients exact Fractions, only
when a caller reads a result's polynomial terms, and then once.  Floats
appear only when a time series is summed.  The exact sup norm over a support of m sites is the largest
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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattice import EXACT_SITE_CAP, Torus, monomial_values_dense

TERM_CAP = 10**7
# candidates merged at once
_BLOCK = 1 << 16
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


# Bitmask words: little-endian, so that a row's bytes read low bits first on
# every host.
_WORD = np.dtype("<u8")


def _sites(masks: np.ndarray) -> tuple:
    """(t, j): row t of the (T, W) words has bit j set, in row order."""
    bits = np.unpackbits(masks.view(np.uint8), axis=1, bitorder="little")
    return np.divmod(np.flatnonzero(bits.view(bool)), 64 * masks.shape[1])


def _words(rows, n_bits: int) -> np.ndarray:
    """(T, W) words, W = ceil(n_bits / 64) and at least 1, row t with the
    bits of the positions rows[t] set."""
    size = 8 * max(1, -(-n_bits // 64))
    data = b"".join(sum(1 << j for j in row).to_bytes(size, "little") for row in rows)
    return np.frombuffer(data, dtype=_WORD).reshape(len(rows), size // 8)


def _numerators(values) -> np.ndarray:
    """Integer numerators: int64 while their l1 norm is below 2^62 (so every
    sum of them is exact), Python ints in an object array past it."""
    return np.array(values, dtype=np.int64 if sum(map(abs, values)) < 1 << 62 else object)


def _runs(masks: np.ndarray) -> tuple:
    """(order, starts): the order that sorts the rows of masks, and where
    each run of equal rows begins in it (read one word at a time)."""
    order = masks[:, 0].argsort() if masks.shape[1] == 1 else np.lexsort(masks.T)
    new = np.zeros(len(order), dtype=bool)
    new[0] = True
    for w in range(masks.shape[1]):
        word = masks[order, w]
        new[1:] |= word[1:] != word[:-1]
    return order, np.flatnonzero(new)


def _merge(masks: np.ndarray, nums: np.ndarray) -> tuple:
    """(masks, nums) with the numerators of equal rows summed and zero sums
    dropped."""
    if not len(nums):
        return masks, nums
    order, starts = _runs(masks)
    sums = np.add.reduceat(nums[order], starts)
    keep = sums != 0
    return masks[order[starts[keep]]], sums[keep]


def _toggles(offsets, width: int) -> tuple:
    """(shift, pattern) for rows of box offsets.  At a term site j, row r
    toggles the bits j + lo + e for its lowest offset lo and the set bits e
    of pattern[r], its offsets less lo as words, low word first.  Pattern
    word l lands in word w shifted up by j + shift[r, w] + 64 l bits, with
    shift[r, w] = lo - 64 w as a wrapped uint64."""
    lo = np.array([min(ds, default=0) for ds in offsets], dtype=np.int64)
    span = max((max(ds) - min(ds) for ds in offsets if ds), default=0)
    pattern = _words([[d - m for d in ds] for ds, m in zip(offsets, lo.tolist())], span + 1)
    return (lo[:, None] - 64 * np.arange(width)).astype(np.uint64), pattern


def _step(masks: np.ndarray, nums: np.ndarray, toggles: tuple, lams) -> tuple:
    """sum_B lambda(B) L_B on the terms (masks, nums), from one row per
    shape B: its _toggles and lam = -2 * numerator of lambda(B), by
    L_B sigma_A = -2 sum_{i in A} sigma_{(B+i) ^ A}.

    No block holds more than TERM_CAP candidates, and the merged blocks are
    merged into one whenever they pass TERM_CAP rows, so a step holds at
    most 2 TERM_CAP merged rows; a merge past TERM_CAP terms raises.
    Every partial sum of a merge is at most l1(nums) * max |A_t| * sum |lam|,
    so the step runs on int64 while that bound, read in float64 for int64
    numerators, is below 2^62 (float rounding is far inside the factor 2 to
    int64's range), and on Python ints past it."""
    pops = np.bitwise_count(masks).sum(axis=1)
    if not pops.any() or not lams:
        return masks[:0], nums[:0]
    factor = int(pops.max()) * sum(map(abs, lams))
    l1 = np.abs(nums).sum(dtype=object if nums.dtype == object else np.float64)
    dtype = np.int64 if factor < 1 << 62 and l1 * factor < 1 << 62 else object
    held = []
    for block in _blocks(masks, nums.astype(dtype, copy=False), toggles, np.array(lams, dtype=dtype)):
        held.append(block)
        if sum(len(n) for _, n in held) > TERM_CAP:
            _fold(held)
    del block  # the last merge holds the joined copy only
    return _fold(held)


def _fold(held: list) -> tuple:
    """The merged blocks in held merged into its one block (held is emptied
    first, so the merge holds the joined copy only); past TERM_CAP distinct
    terms it raises."""
    if len(held) > 1:
        joined = [np.concatenate(part) for part in zip(*held)]
        held.clear()
        held.append(_merge(*joined))
    if len(held[0][1]) > TERM_CAP:
        raise TermCapExceeded(f"term-count overflow in the expansion: over TERM_CAP = {TERM_CAP} distinct terms")
    return held[0]


def _blocks(masks: np.ndarray, nums: np.ndarray, toggles: tuple, lams: np.ndarray):
    """The candidates of a step, merged block by block: a row's candidates
    are the words of every term with the row's _toggles applied at each of
    the term's sites.  Rows go into one block up to _BLOCK (and TERM_CAP)
    candidates, past it one row is a block, and a row with more than
    TERM_CAP candidates is built TERM_CAP sites at a time."""
    t, s = _sites(masks)
    shift, pattern = toggles
    per = max(1, min(_BLOCK, TERM_CAP) // s.size)
    for a in range(0, s.size, TERM_CAP):
        src, vals, at = masks[t[a : a + TERM_CAP]], nums[t[a : a + TERM_CAP]], s[a : a + TERM_CAP]
        for k in range(0, len(lams), per):
            # a shift c >= 0 moves a pattern word up (<< c), one below 0
            # down (>> -c); numpy shifts an unsigned word by 64 or more to
            # 0, so a word the pattern misses, and each wrong-way shift,
            # reads 0
            c = at.view(np.uint64)[:, None] + shift[k : k + per, None, :]
            block = src
            for l in range(pattern.shape[1]):
                word = pattern[k : k + per, l, None, None]
                block = block ^ (np.left_shift(word, c) | np.right_shift(word, -c))
                c += np.uint64(64)
            yield _merge(block.reshape(-1, masks.shape[1]), np.multiply.outer(lams[k : k + per], vals).reshape(-1))


def _patterns(masks: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Each row's bits at the set positions of `support` (a (1, W) row of
    words), packed low to high into an int64: its index among the
    2^|support| patterns."""
    sup = support.view(np.uint8)[0]
    used = np.flatnonzero(sup)
    bits = np.unpackbits(masks.view(np.uint8)[:, used], axis=1, bitorder="little")
    bits = bits[:, np.unpackbits(sup[used], bitorder="little").astype(bool)]
    return bits @ (1 << np.arange(bits.shape[1], dtype=np.int64))


class _Norms:
    """Exact norms of sum_t nums[t] / den sigma_{masks[t]}, from one
    reduction: numerators and den divided by their gcd (den is then the lcm
    of the reduced denominators), the reduced l1 norm and the support."""

    def __init__(self, masks: np.ndarray, nums: np.ndarray, den: int):
        g = math.gcd(den, int(np.gcd.reduce(nums))) if len(nums) else den
        self.masks, self.nums, self.den = masks, (nums // g if g > 1 else nums), den // g
        self.total = int(np.abs(self.nums).sum())  # exact: int64 numerators sum below 2^62
        self.l1 = Fraction(self.total, self.den)
        self.support = np.bitwise_or.reduce(masks, axis=0, keepdims=True)

    def sup(self, cap: int):
        """The sup norm; None when the support exceeds cap sites or the
        reduced l1 norm reaches 2^62, the bound on every partial sum of the
        int64 Walsh-Hadamard transform whose entries are the polynomial's
        values (at complemented patterns)."""
        if not len(self.nums):
            return Fraction(0)
        m = int(np.bitwise_count(self.support).sum())
        if m > cap or self.total >= 1 << 62:
            return None
        vals = np.zeros(1 << m, dtype=np.int64)
        vals[_patterns(self.masks, self.support)] = self.nums
        vals = _walsh_hadamard(vals)
        return Fraction(max(int(vals.max()), -int(vals.min())), self.den)


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

    def _integer_form(self) -> tuple:
        """(masks, nums, den): numerators() as words of bitmasks, bit j for
        the support's j-th site, and an array of numerators over den."""
        pos = {s: j for j, s in enumerate(self.support())}
        nums, scale = self.numerators()
        return _words([[pos[s] for s in key] for key in nums], len(pos)), _numerators(list(nums.values())), scale

    @property
    def _norms(self) -> _Norms:
        return _Norms(*self._integer_form())

    def coeff_l1(self) -> Fraction:
        return self._norms.l1

    def exact_sup_norm(self, cap: int = EXACT_SITE_CAP):
        """Exact sup norm over every spin pattern of the support, as an exact
        Fraction; None when the support exceeds the cap or the l1 norm of
        the numerators reaches 2^62 (see _Norms.sup)."""
        return self._norms.sup(cap)

    def __repr__(self):
        return f"SetPolynomial({self.n_terms()} terms)"


class _Expansion:
    """L_j ... L_1 p on integers, for the operators L_j = sum_B lambda(B) L_B
    given as {shape: lambda} dicts in application order.

    Site x of Z^d is a bit of a row-major box that holds every site the
    steps can reach from p's support.  Along each axis the box keeps the
    intervals [x_k + reach_lo, x_k + reach_hi] around the support's
    coordinates, with the gaps between them closed, so its volume follows
    the reachable sites and not the spread of the support.  No step leaves
    its interval, so a shape translated to site i is its box offsets plus
    i, and no index wraps.  Monomials are rows of words (see _step) and
    coefficients integer numerators over `den`: the lcm of p's denominators
    times, per step, the lcm of that step's lambda denominators."""

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
        self.masks = _words([[self.index(x) for x in key] for key in nums], math.prod(widths))
        self.nums = _numerators(list(nums.values()))

    def index(self, x) -> int:
        j = 0
        for a, (starts, firsts), stride in zip(x, self.axes, self.strides):
            m = bisect.bisect_right(starts, a) - 1
            j += (firsts[m] + a - starts[m]) * stride
        return j

    def site(self, j: int) -> tuple:
        """The coordinates of box position j."""
        if j not in self.sites:
            coords, rest = [], j
            for (starts, firsts), stride in zip(self.axes, self.strides):
                q, rest = divmod(rest, stride)
                m = bisect.bisect_right(firsts, q) - 1
                coords.append(starts[m] + q - firsts[m])
            self.sites[j] = tuple(coords)
        return self.sites[j]

    def keys(self, masks: np.ndarray) -> list:
        """The monomial of each row of words, as a frozenset of coordinates."""
        t, s = _sites(masks)
        sites = list(map(self.site, s.tolist()))
        ends = np.cumsum(np.bincount(t, minlength=len(masks))).tolist()
        return [frozenset(sites[a:b]) for a, b in zip([0] + ends, ends)]

    def __iter__(self):
        """The polynomial before the first step and after each, as
        _ExpandedPolynomials."""
        masks, nums, den = self.masks, self.nums, self.den
        yield _ExpandedPolynomial(self, masks, nums, den)
        tables = {}  # generator powers repeat one {shape: lambda} dict
        for shapes in self.steps:
            if id(shapes) not in tables:
                tables[id(shapes)] = self.table(shapes)
            step_den, toggles, lams = tables[id(shapes)]
            masks, nums = _step(masks, nums, toggles, lams)
            den *= step_den
            yield _ExpandedPolynomial(self, masks, nums, den)

    def table(self, shapes: dict) -> tuple:
        """(step_den, toggles, lams) of one step sum_B lambda(B) L_B:
        step_den the lcm of the lambda denominators, and per shape with a
        nonzero lambda its _toggles row and -2 lambda(B) step_den."""
        step_den = math.lcm(*(lam.denominator for lam in shapes.values()))
        rows = [(b, lam) for b, lam in shapes.items() if lam]
        offsets = [[sum(a * s for a, s in zip(o, self.strides)) for o in b] for b, _ in rows]
        lams = [-2 * lam.numerator * (step_den // lam.denominator) for _, lam in rows]
        return step_den, _toggles(offsets, self.masks.shape[1]), lams

    def polynomial(self, masks: np.ndarray, nums: np.ndarray, den: int) -> SetPolynomial:
        """Words and numerators over den as frozensets and Fractions."""
        res = SetPolynomial()
        res.terms = {key: Fraction(c, den) for key, c in zip(self.keys(masks), nums.tolist())}
        return res

    def run(self) -> SetPolynomial:
        """Apply every step; the result."""
        *_, last = self
        return last


class _ExpandedPolynomial(SetPolynomial):
    """A polynomial of an _Expansion kept as words and numerators over den.
    Its norms and term count read this integer form, its norms from one
    cached reduction; its frozenset/Fraction terms are built on first read,
    once."""

    def __init__(self, expansion: _Expansion, masks: np.ndarray, nums: np.ndarray, den: int):
        self.expansion, self.masks, self.nums, self.den = expansion, masks, nums, den

    @functools.cached_property
    def terms(self) -> dict:
        return self.expansion.polynomial(self.masks, self.nums, self.den).terms

    def n_terms(self) -> int:
        return len(self.nums)

    def support(self) -> frozenset:
        return self.expansion.keys(np.bitwise_or.reduce(self.masks, axis=0, keepdims=True))[0]

    def _integer_form(self) -> tuple:
        return self.masks, self.nums, self.den

    @functools.cached_property
    def _norms(self) -> _Norms:
        return _Norms(*self._integer_form())


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


class TermCapExceeded(RuntimeError):
    """An expansion passed TERM_CAP distinct terms."""


class EstimateViolated(RuntimeError):
    """A checked estimate failed: l1 > bound; `result` holds the norms."""

    def __init__(self, message: str, result):
        super().__init__(message)
        self.result = result


def _checked(cls, poly: SetPolynomial, bound, estimate: str):
    """cls(poly, sup, l1, bound, exact_available) from poly's norms, once
    sup <= l1 and l1 <= bound are checked (EstimateViolated carries the
    result).  An expansion's two norms read one cached reduction
    (_ExpandedPolynomial._norms)."""
    l1 = poly.coeff_l1()
    sup = poly.exact_sup_norm()
    if sup is not None and sup > l1:
        raise RuntimeError("sup norm exceeded the l1 coefficient norm")
    result = cls(poly, sup, l1, bound, sup is not None)
    if l1 > bound:
        raise EstimateViolated(f"{estimate} violated: l1 norm {l1} > bound {bound}", result)
    return result


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
    powers = list(generator_powers(gen, n_max, a))
    masks = np.concatenate([p.masks for p in powers])
    order, starts = _runs(masks)
    # the monomial of each row, as an index into the distinct rows
    index = np.empty(order.size, dtype=np.intp)
    index[order] = np.repeat(np.arange(starts.size), np.diff(starts, append=order.size))
    # acc gains t^n/n! * c/den in the order of n, as a dict sum per monomial
    # would: the rows of one power are distinct monomials
    acc = np.zeros(starts.size)
    at = 0
    for n, poly in enumerate(powers):
        # each quotient rounded as float(Fraction(c, den)): Python's int
        # division is correctly rounded
        acc[index[at : at + poly.n_terms()]] += t**n / math.factorial(n) * (poly.nums.astype(object) / poly.den).astype(np.float64)
        at += poly.n_terms()
    rho = 2.0 * t * float(gen.m_max_coeff) * gen.size * (len(a) + gen.k_max_shape)
    remainder = rho ** (n_max + 1) / (1.0 - rho)
    keep = acc != 0.0
    acc = dict(zip(powers[0].expansion.keys(masks[order[starts[keep]]]), acc[keep].tolist()))
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
