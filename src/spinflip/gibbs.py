"""Finite-range translation-invariant potentials and finite-volume Gibbs measures.

A potential is a list of basis shapes: a canonical offset tuple A_0
(sorted, with its lexicographically minimal element translated to the
origin) together with a value table U(A_0, .) over the 2^|A_0| spin
patterns of the shape.  The full interaction is the translation orbit
{U(A_0 + i, .) : i}.  Inverse temperature lives inside the tables.

Two Hamiltonians are realized:

* periodic: H(sigma) = sum over torus sites i and shapes of
  U(A_0 + i, sigma) with wraparound, one term per (i, shape);
* fixed(eta): box semantics in Z^d, no wrap; translates range over all
  anchors whose shape intersects the volume, spins read from sigma
  inside the volume and from eta outside.

Dobrushin's uniqueness quantity follows the single-site contraction
estimate c(U) = sup_i (1/2) sum_{A ni i} (|A| - 1) osc(U(A, .)), which
for a translation-invariant potential collapses to a finite sum over
basis shapes.  When c(U) < 1 the Gaussian concentration constant
1/(2 (1 - c(U))^2) applies to every finite-volume measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    Observable,
    SpinConfiguration,
    Torus,
    bit_tensor,
    dense_size,
    gather_bits,
    scatter_bits,
    state_bits,
)


def _canonical_shape(offsets):
    offs = sorted(tuple(int(x) for x in o) for o in offsets)
    if len(set(offs)) != len(offs):
        raise ValueError("repeated offset in shape")
    base = offs[0]
    return tuple(tuple(a - b for a, b in zip(o, base)) for o in offs)


@dataclass(frozen=True)
class Shape:
    offsets: tuple
    table: np.ndarray  # 2^k values, key bit j <-> offsets[j], bit 1 = spin +1

    @property
    def size(self) -> int:
        return len(self.offsets)

    def oscillation(self) -> float:
        return float(np.max(self.table) - np.min(self.table))

    def diameter(self) -> int:
        d = 0
        for a in self.offsets:
            for b in self.offsets:
                d = max(d, max(abs(x - y) for x, y in zip(a, b)))
        return d


class Potential:
    """Finite list of basis shapes defining a translation-invariant potential."""

    def __init__(self, dim: int, shapes):
        self.dim = int(dim)
        canon = []
        for offsets, table in shapes:
            if not offsets:
                raise ValueError("shape with no offset")
            if any(len(o) != self.dim for o in offsets):
                raise ValueError(f"offset dimension mismatch: need {self.dim} coordinates per offset")
            offs = _canonical_shape(offsets)
            t = np.asarray(table, dtype=float)
            if t.shape != (1 << len(offs),):
                raise ValueError("table length must be 2^|shape|")
            if not np.all(np.isfinite(t)):
                raise ValueError("non-finite table value")
            # reorder the table to the canonical (sorted) offset order
            order = sorted(range(len(offsets)), key=lambda j: _sort_key(offsets, j))
            t2 = t[scatter_bits(np.arange(t.size, dtype=np.int64), order)]
            t2.setflags(write=False)
            canon.append(Shape(offs, t2))
        self.shapes = tuple(canon)
        self._term_cache = {}

    @classmethod
    def ising_nn(cls, dim: int, beta: float) -> "Potential":
        """U({i, i+e_a}, sigma) = -beta sigma_i sigma_{i+e_a}, one shape per axis."""
        shapes = []
        for a in range(dim):
            e = tuple(1 if b == a else 0 for b in range(dim))
            table = np.array([-beta, beta, beta, -beta])
            shapes.append((((0,) * dim, e), table))
        return cls(dim, shapes)

    @classmethod
    def external_field(cls, dim: int, h: float) -> "Potential":
        """U({i}, sigma) = -h sigma_i."""
        return cls(dim, [(((0,) * dim,), np.array([h, -h]))])

    def __add__(self, other: "Potential") -> "Potential":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return Potential(
            self.dim,
            [(s.offsets, s.table) for s in self.shapes]
            + [(s.offsets, s.table) for s in other.shapes],
        )

    def dobrushin_constant(self) -> float:
        """c(U) = sup_i (1/2) sum_{A ni i} (|A| - 1) osc(U(A, .))."""
        return float(sum(0.5 * s.size * (s.size - 1) * s.oscillation() for s in self.shapes))

    def gcb_constant_dobrushin(self) -> float:
        """Gaussian concentration constant 1/(2 (1-c)^2); needs c(U) < 1."""
        c = self.dobrushin_constant()
        if c >= 1.0:
            raise ValueError(f"Dobrushin constant {c} is not < 1")
        return 1.0 / (2.0 * (1.0 - c) ** 2)

    def interaction_range(self) -> int:
        return max((s.diameter() for s in self.shapes), default=0)

    def periodic_terms(self, torus: Torus):
        """All wrapped translates: list of (sites tuple, table) pairs.

        sites[j] corresponds to table key bit j; coinciding wrapped sites
        keep multiset semantics (each offset contributes its own bit).
        """
        key = torus.sides
        if key not in self._term_cache:
            if torus.dim != self.dim:
                raise ValueError("torus dimension does not match the potential")
            terms = []
            for shape in self.shapes:
                for i in torus.sites():
                    base = torus.coord(i)
                    sites = tuple(
                        torus.site(tuple(b + o for b, o in zip(base, off)))
                        for off in shape.offsets
                    )
                    terms.append((sites, shape.table))
            self._term_cache[key] = terms
        return self._term_cache[key]

    def terms_containing(self, torus: Torus):
        """Per-site lists of periodic terms whose support contains the site."""
        out = [[] for _ in torus.sites()]
        for sites, table in self.periodic_terms(torus):
            for s in set(sites):
                out[s].append((sites, table))
        return out

    @classmethod
    def load(cls, path) -> "Potential":
        shapes = []
        dim = None
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "|" not in line:
                    raise ValueError(f"malformed potential line: {raw!r}")
                lhs, rhs = line.split("|", 1)
                offsets = tuple(
                    tuple(int(x) for x in tok.split(",")) for tok in lhs.split()
                )
                if dim is None:
                    dim = len(offsets[0]) if offsets else 0
                vals = [float(tok) for tok in rhs.split()]
                k = len(offsets)
                if len(vals) != 1 << k:
                    raise ValueError(f"expected {1 << k} values, got {len(vals)}")
                # the bit reversal is an involution, so it also maps back
                shapes.append((offsets, np.array(vals)[_file_order(k)]))
        if not shapes:
            raise ValueError(f"no shapes in potential file {path}")
        return cls(dim, shapes)

    def __repr__(self):
        return f"Potential(dim={self.dim}, shapes={len(self.shapes)})"


def _sort_key(offsets, j):
    return tuple(int(x) for x in offsets[j])


def _file_order(k: int) -> np.ndarray:
    """Table keys in file order: the first offset is the most significant bit."""
    return gather_bits(np.arange(1 << k, dtype=np.int64), range(k - 1, -1, -1))


class BoundaryCondition:
    """Periodic wrap or fixed exterior spins (constant, dict, or callable)."""

    def __init__(self, kind: str, eta=None):
        if kind not in ("periodic", "fixed"):
            raise ValueError("kind must be 'periodic' or 'fixed'")
        if kind == "fixed" and eta is None:
            raise ValueError("fixed boundary needs eta")
        self.kind = kind
        self.eta = eta

    @classmethod
    def periodic(cls) -> "BoundaryCondition":
        return cls("periodic")

    @classmethod
    def fixed(cls, eta) -> "BoundaryCondition":
        return cls("fixed", eta)

    def eta_at(self, coord) -> int:
        if self.kind != "fixed":
            raise ValueError("periodic boundary has no exterior spins")
        if callable(self.eta):
            v = self.eta(coord)
        elif isinstance(self.eta, dict):
            v = self.eta[tuple(coord)]
        else:
            v = self.eta
        if v not in (-1, 1):
            raise ValueError(f"eta({coord}) = {v} is not +-1")
        return int(v)

    def __repr__(self):
        if self.kind == "periodic":
            return "BoundaryCondition(periodic)"
        return f"BoundaryCondition(fixed, eta={self.eta!r})"


def hamiltonian_periodic(potential: Potential, torus: Torus, states=None):
    """Energy of one state, or the full 2^N energy vector when states is None."""
    if states is not None:
        states = _maybe_bits(states)
    return _energy(potential.periodic_terms(torus), torus.n_sites, states)


def _energy(terms, n_sites: int, states):
    """sum over terms of table[key] at every state, one broadcast += per term
    on the state tensor, when states is None; else at the given state(s)."""
    if states is None:
        energy = np.zeros(dense_size(n_sites))
        view = bit_tensor(energy, n_sites)
        for positions, table in terms:
            view += bit_tensor(table, n_sites, positions)
        return energy
    sv = np.atleast_1d(np.asarray(states, dtype=np.int64))
    energy = np.zeros(sv.shape, dtype=float)
    for positions, table in terms:
        energy += table[gather_bits(sv, positions)]
    return float(energy[0]) if np.isscalar(states) else energy


def _maybe_bits(states):
    if isinstance(states, SpinConfiguration):
        return states.bits
    return states


def fixed_volume_terms(potential: Potential, torus: Torus, volume_sites, boundary):
    """Box-semantics terms for a fixed boundary: per term, the positions of
    its inside sites within the (sorted) volume and the shape table over
    those sites, with the exterior offsets held at their eta spins."""
    volume = tuple(sorted(set(int(s) for s in volume_sites)))
    coords = {torus.coord(s): p for p, s in enumerate(volume)}
    terms = []
    for shape in potential.shapes:
        anchors = set()
        for x in coords:
            for a in shape.offsets:
                anchors.add(tuple(xi - ai for xi, ai in zip(x, a)))
        for anchor in sorted(anchors):
            inside = []
            base_key = 0
            touches = False
            for j, off in enumerate(shape.offsets):
                c = tuple(ai + oi for ai, oi in zip(anchor, off))
                if c in coords:
                    inside.append((j, coords[c]))
                    touches = True
                else:
                    if boundary.eta_at(c) == 1:
                        base_key |= 1 << j
            if touches:
                js = [j for j, _ in inside]
                table = shape.table[base_key | scatter_bits(np.arange(1 << len(js), dtype=np.int64), js)]
                terms.append((tuple(p for _, p in inside), table))
    return volume, terms


def hamiltonian_fixed(potential: Potential, torus: Torus, volume_sites, boundary, states=None):
    """Fixed-boundary energy over the volume's own 2^|volume| state indexing."""
    volume, terms = fixed_volume_terms(potential, torus, volume_sites, boundary)
    return _energy(terms, len(volume), states)


@dataclass
class GibbsMeasure:
    """Probability vector over the volume's spin patterns, with provenance."""

    torus: Torus
    volume: tuple
    probs: np.ndarray
    boundary: BoundaryCondition
    potential: Potential
    log_z: float

    @property
    def n_sites(self) -> int:
        return len(self.volume)

    def expectation(self, obs) -> float:
        """E[f] for an Observable supported inside the volume, or E[sigma_A]
        for a bare site tuple."""
        pos = {s: p for p, s in enumerate(self.volume)}
        sites = obs.support if isinstance(obs, Observable) else tuple(obs)
        if any(s not in pos for s in sites):
            raise ValueError("observable support leaves the volume")
        if not isinstance(obs, Observable):
            # a repeated site squares its spin away
            obs = Observable.monomial(self.torus, [s for s in set(sites) if sites.count(s) % 2])
        view = bit_tensor(obs.table, self.n_sites, [pos[s] for s in obs.support])
        return float(self.probs @ np.broadcast_to(view, (2,) * self.n_sites).flatten())


def gibbs_measure(
    potential: Potential,
    torus: Torus,
    boundary: BoundaryCondition | None = None,
    volume=None,
) -> GibbsMeasure:
    """Finite-volume Gibbs measure prop to exp(-H); exact enumeration."""
    if boundary is None:
        boundary = BoundaryCondition.periodic()
    if boundary.kind == "periodic":
        if volume is not None and tuple(sorted(volume)) != tuple(torus.sites()):
            raise ValueError("periodic boundary requires the full torus volume")
        volume = tuple(torus.sites())
        dense_size(torus.n_sites)
        energy = hamiltonian_periodic(potential, torus)
    else:
        volume = tuple(sorted(set(volume if volume is not None else torus.sites())))
        dense_size(len(volume))
        energy = hamiltonian_fixed(potential, torus, volume, boundary)
    shift = float(np.max(-energy))
    probs = np.exp(-energy - shift)
    # each state's weight is added to its global flip's first, so a flip-
    # symmetric energy gives an exactly even measure and the two fixed
    # boundaries give exact mirror images (the semigroup engine then carries
    # either on half the states)
    half = probs.size // 2
    z = float(np.sum(probs[:half] + probs[: half - 1 : -1])) if half else 1.0
    probs /= z
    return GibbsMeasure(torus, volume, probs, boundary, potential, shift + math.log(z))


def uniform_measure(torus: Torus) -> np.ndarray:
    """Uniform product measure as a dense probability vector."""
    n = dense_size(torus.n_sites)
    return np.full(n, 1.0 / n)


def product_measure(torus: Torus, p_plus) -> np.ndarray:
    """Product measure with per-site P(sigma_i = +1); scalar or per-site array."""
    dense_size(torus.n_sites)
    p = np.broadcast_to(np.asarray(p_plus, dtype=float), (torus.n_sites,))
    if np.any((p < 0) | (p > 1)):
        raise ValueError("probabilities must lie in [0, 1]")
    # the outer product puts site i on axis N-1-i of the state tensor, and
    # each state's factors multiply in site order
    probs = np.ones(())
    for q in p:
        probs = np.multiply.outer([1.0 - q, q], probs)
    return probs.reshape(-1)


def dirac_vector(torus: Torus, state) -> np.ndarray:
    """Point mass at a configuration, as a dense probability vector."""
    out = np.zeros(dense_size(torus.n_sites))
    bits = state_bits(state)
    if not 0 <= bits < out.size:
        raise ValueError(f"state {bits} out of range for {torus.n_sites} sites")
    out[bits] = 1.0
    return out


def probs_of(mu) -> np.ndarray:
    """The float vector of a GibbsMeasure's probs or of an array of weights."""
    return np.asarray(getattr(mu, "probs", mu), dtype=float)
