"""Kinetic Monte Carlo for sizes beyond exact enumeration.

Ensembles are simulated by uniformization (Jensen 1953), all replicas at
once.  With c_max the largest flip rate of any site, replica r makes
K_r ~ Poisson(N c_max t) proposals over [0, t]; each proposal picks a
uniform site i and flips it with probability c(i, sigma) / c_max.  The
states are an (R, N) uint8 bit matrix, so the torus may have any number of
sites; a proposal reads c(i, sigma) from the stacked rate table of
`RateModel.stacked_table` through the key gathered from its replica's bit
row, and f is read once at the end.  Each call draws from one counter-based
(Philox) stream keyed by the seed, in a fixed order (initial states, the
proposal counts, then per step the sites and the uniforms), so a seed gives
the same estimate bit for bit.

`sample_path` records one trajectory with its event times and keeps the
event-driven jump chain: at state sigma the holding time is exponential
with rate R(sigma) = sum_i c(i, sigma), the flipped site is drawn
proportional to its rate, and after a flip only the sites whose rate reads
the flipped spin are recomputed.

Samplers of initial states are `sample(rng, count, n_sites)` callables
returning a (count, n_sites) uint8 bit matrix.  The exponential-moment
estimator reports both the plug-in value and its jackknife correction; the
plug-in log-mean-exp is biased at small samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import RateModel
from .lattice import Observable, state_bits


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _keys(bits: np.ndarray) -> np.ndarray:
    """Integer keys of the rows of a (R, k) bit matrix, column j as key bit j."""
    return bits @ (np.int64(1) << np.arange(bits.shape[1], dtype=np.int64))


@dataclass
class Trajectory:
    start: int
    t_end: float
    times: np.ndarray
    sites: np.ndarray
    final_state: int
    final_rates: np.ndarray


def sample_path(rates: RateModel, sigma0, t_end: float, seed: int) -> Trajectory:
    """One continuous-time trajectory on [0, t_end] from a fixed seed."""
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    t_end = float(t_end)
    n = rates.torus.n_sites
    start = bits = state_bits(sigma0)
    rng = _rng(seed)
    influenced = [np.array(row, dtype=np.int64) for row in rates.influencers()]
    rvec = np.array([rates.rate(i, bits) for i in range(n)])
    t = 0.0
    times = []
    sites = []
    while t_end > 0:
        total = float(rvec.sum())
        if total <= 0:
            break
        t += rng.exponential(1.0 / total)
        if t >= t_end:
            break
        u = rng.random() * total
        site = min(int(np.searchsorted(np.cumsum(rvec), u)), n - 1)
        bits ^= 1 << site
        for i in influenced[site]:
            rvec[i] = rates.rate(int(i), bits)
        times.append(t)
        sites.append(site)
    return Trajectory(start, t_end, np.array(times), np.array(sites, dtype=np.int64), bits, rvec)


def dirac_sampler(state):
    bits = state_bits(state)

    def sample(rng, count, n_sites):
        if bits < 0 or bits >> n_sites:
            raise ValueError(f"state {bits} out of range for {n_sites} sites")
        row = np.array([(bits >> i) & 1 for i in range(n_sites)], dtype=np.uint8)
        return np.tile(row, (count, 1))

    return sample


def product_sampler(torus, p_plus):
    p = np.broadcast_to(np.asarray(p_plus, dtype=float), (torus.n_sites,))

    def sample(rng, count, n_sites):
        return (rng.random((count, n_sites)) < p).astype(np.uint8)

    return sample


def uniform_sampler(torus):
    def sample(rng, count, n_sites):
        return rng.integers(0, 2, size=(count, n_sites), dtype=np.uint8)

    return sample


def vector_sampler(probs):
    probs = np.asarray(getattr(probs, "probs", probs), dtype=float)
    cum = np.cumsum(probs)
    cum /= cum[-1]  # the last entry is exactly 1, above every uniform draw

    def sample(rng, count, n_sites):
        if cum.size != 1 << n_sites:
            raise ValueError(f"{cum.size} weights do not enumerate {n_sites} sites")
        # side="right" skips zero-weight states: their cum equals the previous one
        states = np.searchsorted(cum, rng.random(count), side="right")
        return ((states[:, None] >> np.arange(n_sites)) & 1).astype(np.uint8)

    return sample


@dataclass
class EnsembleEstimate:
    estimate: float
    std_error: float
    replicas: int
    seed: int
    kind: str
    raw_estimate: float | None = None


def _final_values(rates, sampler, t, f, replicas, seed):
    """f evaluated at the endpoint of every replica, in replica order."""
    t = float(t)
    if t < 0:
        raise ValueError("t must be >= 0")
    n = rates.torus.n_sites
    positions, table = rates.stacked_table()
    if table.min() < 0:
        raise ValueError(f"{rates!r} has a negative rate")
    c_max = float(table.max())
    rng = _rng(seed)
    bits = sampler(rng, replicas, n)
    counts = rng.poisson(n * c_max * t, size=replicas)
    # replicas sorted by proposal count, most first: the ones still
    # proposing at step s are a prefix of the bit matrix
    order = np.argsort(-counts, kind="stable")
    bits = bits[order]
    alive = replicas - np.cumsum(np.bincount(counts))
    for s in range(int(counts.max(initial=0))):
        live = int(alive[s])
        site = rng.integers(0, n, size=live)
        u = rng.random(live)
        rows = np.arange(live)
        rate = table[site, _keys(bits[rows[:, None], positions[site]])]
        flip = np.nonzero(u * c_max < rate)[0]
        bits[flip, site[flip]] ^= 1
    out = np.empty(replicas)
    out[order] = f.table[_keys(bits[:, list(f.support)])]
    return out


def _mean(values, seed) -> EnsembleEstimate:
    n = values.size
    se = float(values.std(ddof=1) / np.sqrt(n))
    return EnsembleEstimate(float(values.mean()), se, n, seed, "mean")


def _exponential_moment(v, seed) -> EnsembleEstimate:
    n = v.size
    shift = float(v.max())
    e = np.exp(v - shift)
    s = float(e.sum())
    mean = float(v.mean())
    raw = float(np.log(s / n) + shift - mean)
    # leave-one-out: mean and log-mean-exp without replica i
    loo_mean = (n * mean - v) / (n - 1)
    loo = np.log((s - e) / (n - 1)) + shift - loo_mean
    corrected = n * raw - (n - 1) * float(loo.mean())
    se = float(np.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))
    return EnsembleEstimate(corrected, se, n, seed, "exponential-moment", raw)


def ensemble_expectation(
    rates: RateModel,
    sampler,
    t: float,
    f: Observable,
    replicas: int,
    seed: int,
) -> EnsembleEstimate:
    """Mean of f at time t over independent replicas, with the replica
    standard error."""
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    return _mean(_final_values(rates, sampler, t, f, replicas, seed), seed)


def ensemble_exponential_moment(
    rates: RateModel,
    sampler,
    t: float,
    f: Observable,
    replicas: int,
    seed: int,
) -> EnsembleEstimate:
    """log E e^{f - E f} at time t: plug-in log-mean-exp around the sample
    mean, with jackknife bias correction and jackknife standard error."""
    if replicas < 3:
        raise ValueError("need at least 3 replicas for the jackknife")
    return _exponential_moment(_final_values(rates, sampler, t, f, replicas, seed), seed)
