"""Finite tori, bit-packed spin configurations, and local observables.

Conventions used across the package:

* Sites of a d-dimensional torus with sides (l_1, ..., l_d) are numbered
  row-major, so site ids live in range(N) with N = l_1 * ... * l_d.
* A configuration of the N spins is a single Python int: bit i set means
  spin +1 at site i, clear means -1.  State indices therefore run over
  range(2**N) and double as row/column indices of exact operators.
* An observable depends on a finite support and is tabulated over the
  2**k patterns of its support, key bit j corresponding to the j-th site
  of the sorted support (least significant bit first).
* A vector over all 2**N states is read as its C-order (2,)*N tensor, site
  i on axis N-1-i, and a site table as a view that broadcasts onto it
  (`bit_tensor`): full-state tables are broadcasts, reductions, transposes
  and axis flips, with no per-state key.  `gather_bits` and `scatter_bits`
  pack and unpack the table keys of Python-int states (the kinetic MC
  path), of given state arrays and of the 2**k patterns of a support.
* sigma_A, the product of the spins in A, is (-1)^(number of minus spins
  in A); `spin_product` computes it from a bit mask of A.
* A site map g (a row of `Torus.automorphisms`: translations, axis
  reflections, swaps of equal sides) acts on states by carrying the spin
  at site i to site g[i]; `permute_states` moves a state vector by it, one
  axis transpose of the state tensor.
* Sizes are capped before anything exponential is allocated: EXACT_SITE_CAP
  (20) bounds every dense object indexed by all 2**N states (state
  vectors, Gibbs enumeration, generators, semigroups, exact sup norms of
  set polynomials), and LIPSCHITZ_SUPPORT_CAP (24) bounds the support of
  a tabulated observable.
* The Lipschitz vector of f collects delta_i f = sup_sigma |f(sigma^i) -
  f(sigma)| where sigma^i flips site i.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

LIPSCHITZ_SUPPORT_CAP = 24
EXACT_SITE_CAP = 20


def gather_bits(states, positions):
    """Table keys of states: key bit j is bit positions[j] of the state.

    states is a Python int (any size, exact) or an int64 array; repeated
    positions each get their own key bit."""
    if type(states) is int:  # checked first: the per-flip MC path
        key = 0
        for j, p in enumerate(positions):
            key |= ((states >> p) & 1) << j
        return key
    key = np.zeros_like(states)
    for j, p in enumerate(positions):
        key |= ((states >> np.int64(p)) & 1) << np.int64(j)
    return key


def scatter_bits(keys, positions):
    """Inverse of gather_bits for distinct positions: bit j of the key
    becomes bit positions[j] of the state."""
    if type(keys) is int:
        out = 0
        for j, p in enumerate(positions):
            out |= ((keys >> j) & 1) << p
        return out
    out = np.zeros_like(keys)
    for j, p in enumerate(positions):
        out |= ((keys >> np.int64(j)) & 1) << np.int64(p)
    return out


def bit_tensor(values, n_sites: int, positions=None) -> np.ndarray:
    """values as an n_sites-axis tensor of bits, site i on axis N-1-i,
    once n_sites passes EXACT_SITE_CAP.  With positions None, values is a
    vector over the 2^N states and the result is its C-order (2,)*N view,
    writable when values is.  Otherwise values is a table keyed by the
    sites positions[j] (key bit j, as gather_bits keys it), and the result
    is a read-only view with length 2 on those sites' axes and 1
    elsewhere, which broadcasts onto a state tensor; a repeated position
    (a wrap collision on a tiny torus) reads the diagonal of its key bits."""
    dense_size(n_sites)
    if positions is None:
        return values.reshape((2,) * n_sites)
    table = np.asarray(values)
    if table.shape != (1 << len(positions),):
        raise ValueError("table length must be 2^len(positions)")
    shape, strides = [1] * n_sites, [0] * n_sites
    for j, p in enumerate(positions):
        if not 0 <= p < n_sites:
            raise ValueError(f"position {p} outside the {n_sites} sites")
        shape[n_sites - 1 - p] = 2
        strides[n_sites - 1 - p] += table.strides[0] << j
    return np.lib.stride_tricks.as_strided(table, shape, strides, writeable=False)


def spin_product(states, mask):
    """sigma_A at each state as an integer +-1, A the set bits of mask:
    -1 exactly when an odd number of A's spins are minus (bits clear)."""
    if type(states) is int:
        return -1 if ((states & mask) ^ mask).bit_count() & 1 else 1
    minus = np.bitwise_count((states & np.int64(mask)) ^ np.int64(mask))
    return np.where(minus & 1, -1, 1)


class Torus:
    """d-dimensional discrete torus with per-axis wraparound."""

    def __init__(self, sides):
        sides = tuple(int(l) for l in sides)
        if not sides or any(l < 1 for l in sides):
            raise ValueError("torus sides must be positive integers")
        self.sides = sides
        self.dim = len(sides)
        self.n_sites = math.prod(sides)
        # row-major strides: last axis fastest
        strides = [1] * self.dim
        for a in range(self.dim - 2, -1, -1):
            strides[a] = strides[a + 1] * sides[a + 1]
        self._strides = tuple(strides)

    def sites(self):
        return range(self.n_sites)

    def wrap(self, coord):
        return tuple(int(c) % l for c, l in zip(coord, self.sides))

    def site(self, coord) -> int:
        if len(coord) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(coord)}")
        return sum((int(c) % l) * s for c, l, s in zip(coord, self.sides, self._strides))

    def coord(self, site: int):
        out = []
        for l, s in zip(self.sides, self._strides):
            out.append((site // s) % l)
        return tuple(out)

    def translate(self, site: int, offset) -> int:
        base = self.coord(site)
        return self.site(tuple(b + o for b, o in zip(base, offset)))

    def automorphisms(self) -> np.ndarray:
        """The site permutations built from translations, axis reflections
        and swaps of axes of equal side, as an (M, N) array whose row g maps
        site i to g[i]: every map x -> (e_a x_{pi(a)} + o_a)_a with pi a
        side-preserving axis permutation, e_a = +-1 and o an offset.  Row 0 is
        the identity and no two rows are equal (on sides 1 and 2 a reflection
        is the identity or a translation)."""
        coords = np.array([self.coord(i) for i in self.sites()]).reshape(self.n_sites, self.dim)
        rows = {}
        for axes in itertools.permutations(range(self.dim)):
            if any(self.sides[a] != self.sides[b] for b, a in enumerate(axes)):
                continue
            for signs in itertools.product((1, -1), repeat=self.dim):
                moved = coords[:, axes] * signs
                for offset in itertools.product(*map(range, self.sides)):
                    image = ((moved + offset) % self.sides) @ self._strides
                    rows.setdefault(image.tobytes(), image)
        return np.array(list(rows.values()))

    def distance(self, i: int, j: int) -> int:
        """Chebyshev distance with wraparound (the range metric)."""
        ci, cj = self.coord(i), self.coord(j)
        d = 0
        for a, b, l in zip(ci, cj, self.sides):
            raw = abs(a - b)
            d = max(d, min(raw, l - raw))
        return d

    def __eq__(self, other):
        return isinstance(other, Torus) and other.sides == self.sides

    def __hash__(self):
        return hash(self.sides)

    def __repr__(self):
        return f"Torus{self.sides}"


class SpinConfiguration:
    """Immutable bit-packed spin assignment on a torus."""

    __slots__ = ("torus", "bits")

    def __init__(self, torus: Torus, bits: int = 0):
        if bits < 0 or bits >> torus.n_sites:
            raise ValueError("state bits out of range for this torus")
        object.__setattr__(self, "torus", torus)
        object.__setattr__(self, "bits", int(bits))

    def __setattr__(self, *a):
        raise AttributeError("SpinConfiguration is immutable")

    def flip(self, site: int) -> "SpinConfiguration":
        return SpinConfiguration(self.torus, self.bits ^ (1 << site))

    def __eq__(self, other):
        return (
            isinstance(other, SpinConfiguration)
            and other.bits == self.bits
            and other.torus == self.torus
        )

    def __hash__(self):
        return hash((self.torus.sides, self.bits))

    def __repr__(self):
        pat = "".join("+" if (self.bits >> i) & 1 else "-" for i in self.torus.sites())
        return f"SpinConfiguration({pat})"


def state_bits(state) -> int:
    """The packed bits of a state given as an int or a SpinConfiguration."""
    if isinstance(state, SpinConfiguration):
        return state.bits
    return int(state)


def monomial_eval(state, sites) -> int:
    """Product of spins over `sites`, i.e. sigma_A evaluated at one state.
    A repeated site squares its spin away, so the mask toggles its bit."""
    mask = 0
    for i in sites:
        mask ^= 1 << i
    return spin_product(state_bits(state), mask)


def dense_size(n_sites: int) -> int:
    """2^n_sites, the dense length, once n_sites is checked against EXACT_SITE_CAP."""
    if n_sites > EXACT_SITE_CAP:
        raise ValueError(f"{n_sites} sites exceeds the dense-state cap {EXACT_SITE_CAP}")
    return 1 << n_sites


def monomial_values_dense(torus: Torus, sites) -> np.ndarray:
    """sigma_A over all 2^N states as a +-1 float vector."""
    return Observable.monomial(torus, sites).dense_values()


def _distinct_sites(sites) -> tuple:
    """The sites of sigma_A, sorted, once none repeats: sigma_i sigma_i = 1,
    not sigma_i, so a repeated site raises."""
    out = sorted(map(int, sites))
    for a, b in zip(out, out[1:]):
        if a == b:
            raise ValueError(f"repeated site {a} in monomial")
    return tuple(out)


class Observable:
    """Real function of the spins in a finite support, stored as a table.

    The table has 2^k entries, k = |support|; entry at key sum_j b_j 2^j
    is the value when the j-th support site (sorted ascending) carries
    spin +1 iff b_j = 1.
    """

    def __init__(self, torus: Torus, support, table):
        support = tuple(sorted(set(int(s) for s in support)))
        for s in support:
            if not 0 <= s < torus.n_sites:
                raise ValueError(f"site {s} outside the torus")
        table = np.asarray(table, dtype=float)
        if table.shape != (1 << len(support),):
            raise ValueError("table length must be 2^|support|")
        table = table.copy()
        table.setflags(write=False)
        self.torus = torus
        self.support = support
        self.table = table

    @classmethod
    def constant(cls, torus: Torus, value: float):
        return cls(torus, (), [float(value)])

    @classmethod
    def monomial(cls, torus: Torus, sites):
        sites = _distinct_sites(sites)
        k = len(sites)
        if k > LIPSCHITZ_SUPPORT_CAP:
            raise ValueError("support too large to tabulate")
        keys = np.arange(1 << k, dtype=np.int64)
        return cls(torus, sites, spin_product(keys, (1 << k) - 1).astype(float))

    @classmethod
    def monomial_sum(cls, torus: Torus, terms):
        """Sparse expansion sum_j coeff_j * sigma_{A_j}; terms = [(coeff, sites)]."""
        support = tuple(sorted({int(i) for _, sites in terms for i in sites}))
        if len(support) > LIPSCHITZ_SUPPORT_CAP:
            raise ValueError("combined support too large to tabulate")
        pos = {s: j for j, s in enumerate(support)}
        table = np.zeros(1 << len(support))
        keys = np.arange(1 << len(support), dtype=np.int64)
        for coeff, sites in terms:
            mask = sum(1 << pos[i] for i in _distinct_sites(sites))
            table += float(coeff) * spin_product(keys, mask).astype(float)
        return cls(torus, support, table)

    def __call__(self, state) -> float:
        return self.table.item(gather_bits(state_bits(state), self.support))

    def dense_values(self) -> np.ndarray:
        """Values over all 2^N torus states, aligned with state indices."""
        n = self.torus.n_sites
        return np.broadcast_to(bit_tensor(self.table, n, self.support), (2,) * n).flatten()

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Observable.constant(self.torus, other)
        if other.torus != self.torus:
            raise ValueError("observables live on different tori")
        support = tuple(sorted(set(self.support) | set(other.support)))
        if len(support) > LIPSCHITZ_SUPPORT_CAP:
            raise ValueError("combined support too large")
        keys = np.arange(1 << len(support), dtype=np.int64)

        def lift(obs):
            return obs.table[gather_bits(keys, [support.index(s) for s in obs.support])]

        return Observable(self.torus, support, lift(self) + lift(other))

    __radd__ = __add__

    def __mul__(self, scalar):
        return Observable(self.torus, self.support, self.table * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-other if isinstance(other, Observable) else -float(other))

    def __repr__(self):
        return f"Observable(support={self.support})"


def flip(state, site: int):
    """Flip one spin; preserves the input's type (int or SpinConfiguration)."""
    if isinstance(state, SpinConfiguration):
        return state.flip(site)
    return int(state) ^ (1 << site)


def discrete_gradient(f: Observable, site: int, state) -> float:
    """nabla_i f (sigma) = f(sigma^i) - f(sigma); zero off the support."""
    if site not in f.support:
        return 0.0
    return f(flip(state_bits(state), site)) - f(state)


def lipschitz_vector(f: Observable) -> np.ndarray:
    """delta f as a length-N vector; exhaustive sup over the support patterns.

    delta_i f = sup_sigma (f(sigma^i) - f(sigma)) which equals the max of
    |f(sigma^i) - f(sigma)| since flipping is an involution.
    """
    k = len(f.support)
    if k > LIPSCHITZ_SUPPORT_CAP:
        raise ValueError(f"support size {k} exceeds the exhaustive cap {LIPSCHITZ_SUPPORT_CAP}")
    out = np.zeros(f.torus.n_sites)
    keys = np.arange(1 << k)
    for j, s in enumerate(f.support):
        out[s] = float(np.max(np.abs(f.table[keys ^ (1 << j)] - f.table)))
    return out


def lipschitz_vector_dense(n_sites: int, values: np.ndarray) -> np.ndarray:
    """delta of a function given as a full 2^N state vector, or of each row
    of a stack of them: per site, the largest difference across its bit."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1:] != (dense_size(n_sites),):
        raise ValueError("values must enumerate all states")
    rows = values.reshape(-1, values.shape[-1])
    out = np.empty((len(rows), n_sites))
    for i in range(n_sites):
        pairs = rows.reshape(len(rows), -1, 2, 1 << i)
        diff = np.subtract(pairs[:, :, 1], pairs[:, :, 0]).reshape(len(rows), -1)
        out[:, i] = np.maximum.reduce(np.abs(diff, out=diff), axis=1)
    return out.reshape(values.shape[:-1] + (n_sites,))


def lipschitz_norm(delta, p=2.0) -> float:
    """l^p norm of a Lipschitz vector (p = 1, 2, inf, or any p >= 1)."""
    delta = np.asarray(delta, dtype=float)
    if np.isinf(p):
        return float(np.max(np.abs(delta)))
    p = float(p)
    if p < 1:
        raise ValueError("p must be >= 1")
    return float(np.sum(np.abs(delta) ** p) ** (1.0 / p))


def permute_states(values: np.ndarray, n_sites: int, image) -> np.ndarray:
    """values moved by the site permutation i -> image[i]: entry s of the
    result is values[g(s)], where g(s) carries spin_i(s) to site image[i].
    So values = arange(2^N) gives the state permutation g itself, and a
    vector with values[g(s)] = values[s] comes back equal to itself.  One
    strided copy of the state tensor, with no per-state key."""
    # the axis of site i in the result is the axis of site image[i] in values
    axes = [n_sites - 1 - int(image[i]) for i in range(n_sites - 1, -1, -1)]
    return bit_tensor(values, n_sites).transpose(axes).reshape(-1)
