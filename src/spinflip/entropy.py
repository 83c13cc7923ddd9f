"""Relative entropy, window profiles, and the distinguishability
diagnostic.

All measures are dense probability vectors over the 2^N torus states.
H(mu|nu) = sum mu log(mu/nu) is exact (with +inf when the support condition
fails), marginals are exact bit-sums, and the per-window entropy densities
h_Lambda(nu|mu)/|Lambda| are the finite-size surrogate for an entropy
density: the infinite-volume limit has no exact finite-torus analogue, so
profiles over growing centered windows are reported instead and saturation
(a window wrapping onto the whole torus) is flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product as iter_product

import numpy as np

from .dynamics import RateModel, engine_for
from .gibbs import probs_of
from .lattice import Torus, bit_tensor, dense_size


def total_variation(mu, nu) -> float:
    """(1/2) sum |mu - nu|; zero iff the distributions coincide."""
    mu = probs_of(mu)
    nu = probs_of(nu)
    return 0.5 * float(np.abs(mu - nu).sum())


def relative_entropy(mu, nu) -> float:
    """H(mu|nu) = sum_x mu(x) log(mu(x)/nu(x)), with 0 log 0 = 0 and +inf
    when mu charges a state nu does not."""
    mu = probs_of(mu)
    nu = probs_of(nu)
    if mu.shape != nu.shape:
        raise ValueError("distribution vectors differ in length")
    mask = mu > 0
    if np.any(nu[mask] <= 0):
        return math.inf
    val = float(np.sum(mu[mask] * (np.log(mu[mask]) - np.log(nu[mask]))))
    return max(val, 0.0)


def marginal(probs, sites, n_sites: int | None = None) -> np.ndarray:
    """Exact marginal on the given sites: sums the state tensor over the
    other sites' axes.  Output keys pack the sites in sorted order, LSB
    first (the kept axes in C order)."""
    probs = probs_of(probs)
    if n_sites is None:
        n_sites = probs.size.bit_length() - 1
    if probs.size != dense_size(n_sites):
        raise ValueError("vector length is not a power of two")
    sites = set(int(s) for s in sites)
    if any(s < 0 or s >= n_sites for s in sites):
        raise ValueError("site outside the state space")
    keep = [n_sites - 1 - s for s in sorted(sites, reverse=True)]
    # the kept axes go first, and the copy makes each entry's run contiguous:
    # numpy sums a contiguous run pairwise, but a strided one (site 0 kept)
    # one term at a time
    tensor = bit_tensor(probs, n_sites).transpose(keep + [a for a in range(n_sites) if a not in keep])
    return np.ascontiguousarray(tensor.reshape(1 << len(keep), -1)).sum(axis=1)


def window_sites(torus: Torus, radius: int):
    """Centered window [-radius, radius]^d mapped onto the torus.
    Returns (sites, saturated); saturated means the window wrapped onto
    itself, so the marginal covers fewer sites than the box."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    coords = list(iter_product(range(-radius, radius + 1), repeat=torus.dim))
    sites = {torus.site(c) for c in coords}
    return tuple(sorted(sites)), len(sites) < len(coords)


@dataclass
class EntropyProfile:
    rows: list  # {"sites", "size", "h", "h_per_site", "saturated"}
    n_sites: int


def entropy_density_profile(mu, nu, windows, n_sites: int | None = None) -> EntropyProfile:
    """Per-window h_Lambda(nu|mu)/|Lambda| over nested windows; each entry is
    H of nu's marginal relative to mu's on that window.  `windows` is a list
    of site collections ordered small to large, or of (sites, saturated)
    pairs as produced by window_sites."""
    mu = probs_of(mu)
    nu = probs_of(nu)
    if n_sites is None:
        n_sites = mu.size.bit_length() - 1
    rows = []
    prev = None
    for w in windows:
        sites, saturated = w if isinstance(w, tuple) and len(w) == 2 and isinstance(w[1], bool) else (w, False)
        sites = tuple(sorted(set(int(s) for s in sites)))
        if not sites:
            raise ValueError("empty window")
        if prev is not None and not set(prev) <= set(sites):
            raise ValueError("windows must be nested")
        prev = sites
        h = relative_entropy(marginal(nu, sites, n_sites), marginal(mu, sites, n_sites))
        rows.append(
            {
                "sites": sites,
                "size": len(sites),
                "h": h,
                "h_per_site": h / len(sites),
                "saturated": saturated,
            }
        )
    return EntropyProfile(rows, n_sites)


@dataclass
class NoGoReport:
    rows: list  # {"t", "tv", "entropy", "profile", "gcb_hat"}
    radii: tuple
    degenerate: bool
    min_tv: float
    max_density: float
    summary: str = field(default="")


def nogo_experiment(
    rates: RateModel,
    mu_plus,
    mu_minus,
    t_grid,
    family,
    radii=None,
) -> NoGoReport:
    """Distinguishability diagnostic for two evolved starting measures.

    Per grid time: the total variation distance (strictly positive rates keep
    it positive whenever the inputs differ), the relative entropy of the
    evolved minus-measure with respect to the evolved plus-measure, its
    per-site profile over centered windows, and the measured exponential-
    moment constant of the evolved plus-measure.  The interesting regime is a
    distance bounded away from zero while the per-site entropy stays near
    zero: a uniform Gaussian moment bound for the evolved plus-measure would
    force a positive per-site entropy gap against any measure it remains
    distinguishable from, so the profile rows are the evidence to weigh a
    claimed bound against.  At finite volume this is a structured diagnostic,
    not a limit statement.
    """
    from .concentration import empirical_gcb_constant

    mu_plus = probs_of(mu_plus)
    mu_minus = probs_of(mu_minus)
    torus = rates.torus
    if radii is None:
        top = max((min(torus.sides) - 1) // 2, 0)
        radii = tuple(range(0, min(top, 2) + 1))
    windows = [window_sites(torus, r) for r in radii]
    degenerate = total_variation(mu_plus, mu_minus) < 1e-15
    grid = sorted(set(float(t) for t in t_grid))
    pairs = engine_for(rates).evolve_measures_over(np.vstack([mu_plus, mu_minus]), grid)
    rows = []
    for t, pair in zip(grid, pairs):
        profile = entropy_density_profile(pair[0], pair[1], windows, torus.n_sites)
        rows.append(
            {
                "t": t,
                "tv": total_variation(pair[0], pair[1]),
                "entropy": relative_entropy(pair[1], pair[0]),
                "profile": {r: row["h_per_site"] for r, row in zip(radii, profile.rows)},
                "gcb_hat": empirical_gcb_constant(pair[0], family).best_constant,
            }
        )
    min_tv = min(r["tv"] for r in rows)
    max_density = max(r["profile"][radii[-1]] for r in rows)
    summary = (
        f"degenerate inputs: TV = 0 at every t and all entropies vanish"
        if degenerate
        else f"TV stays >= {min_tv:.3e} across the grid while the per-site "
        f"relative entropy at the widest window (radius {radii[-1]}) stays "
        f"<= {max_density:.3e}"
    )
    return NoGoReport(rows, tuple(radii), degenerate, min_tv, max_density, summary)
