"""Kinetic Monte Carlo for sizes beyond exact enumeration.

Jump-chain construction: at state sigma the total rate is R(sigma) = sum_i
c(i, sigma); the holding time is exponential with rate R; the flipped site is
drawn proportional to its rate; after a flip only the sites whose rate reads
the flipped spin are recomputed.  Streams are counter-based (Philox) with one
jumped substream per replica, so estimates are reproducible for a given seed,
and replicas are merged in replica order.

The exponential-moment estimator reports both the plug-in value and its
jackknife correction; the plug-in log-mean-exp is biased at small samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import RateModel
from .lattice import Observable, state_bits


def replica_rng(seed: int, replica: int) -> np.random.Generator:
    """Counter-based substream for one replica."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(replica))


def _influencer_lists(rates: RateModel):
    cached = getattr(rates, "_influencer_lists", None)
    if cached is None:
        cached = [np.array(row, dtype=np.int64) for row in rates.influencers()]
        rates._influencer_lists = cached
    return cached


@dataclass
class Trajectory:
    start: int
    t_end: float
    times: np.ndarray
    sites: np.ndarray
    final_state: int
    final_rates: np.ndarray


def _simulate(rates: RateModel, bits: int, t_end: float, rng: np.random.Generator, record: bool):
    n = rates.torus.n_sites
    influenced = _influencer_lists(rates)
    rvec = np.array([rates.rate(i, bits) for i in range(n)])
    t = 0.0
    times = []
    sites = []
    while True:
        total = float(rvec.sum())
        if total <= 0:
            break
        t += rng.exponential(1.0 / total)
        if t >= t_end:
            break
        u = rng.random() * total
        site = int(np.searchsorted(np.cumsum(rvec), u))
        site = min(site, n - 1)
        bits ^= 1 << site
        for i in influenced[site]:
            rvec[i] = rates.rate(int(i), bits)
        if record:
            times.append(t)
            sites.append(site)
    return bits, times, sites, rvec


def sample_path(rates: RateModel, sigma0, t_end: float, seed: int) -> Trajectory:
    """One continuous-time trajectory on [0, t_end] from a fixed seed."""
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    bits = state_bits(sigma0)
    rng = replica_rng(seed, 0)
    if t_end == 0:
        rvec = np.array([rates.rate(i, bits) for i in range(rates.torus.n_sites)])
        return Trajectory(bits, 0.0, np.array([]), np.array([], dtype=np.int64), bits, rvec)
    final, times, sites, rvec = _simulate(rates, bits, float(t_end), rng, record=True)
    return Trajectory(
        bits, float(t_end), np.array(times), np.array(sites, dtype=np.int64), final, rvec
    )


def dirac_sampler(state):
    bits = state_bits(state)

    def sample(rng):
        return bits

    return sample


def product_sampler(torus, p_plus):
    p = np.broadcast_to(np.asarray(p_plus, dtype=float), (torus.n_sites,))

    def sample(rng):
        ups = rng.random(torus.n_sites) < p
        return int(sum(1 << i for i in range(torus.n_sites) if ups[i]))

    return sample


def uniform_sampler(torus):
    n = 1 << torus.n_sites

    def sample(rng):
        return int(rng.integers(0, n))

    return sample


def vector_sampler(probs):
    probs = np.asarray(getattr(probs, "probs", probs), dtype=float)
    cum = np.cumsum(probs)

    def sample(rng):
        return int(np.searchsorted(cum, rng.random()))

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
    out = np.empty(replicas)
    for r in range(replicas):
        rng = replica_rng(seed, r)
        bits = sampler(rng)
        if t > 0:
            bits, _, _, _ = _simulate(rates, bits, t, rng, record=False)
        out[r] = f(bits)
    return out


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
    values = _final_values(rates, sampler, t, f, replicas, seed)
    se = float(values.std(ddof=1) / np.sqrt(replicas))
    return EnsembleEstimate(float(values.mean()), se, replicas, seed, "mean")


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
    v = _final_values(rates, sampler, t, f, replicas, seed)
    n = replicas
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
    return EnsembleEstimate(corrected, se, replicas, seed, "exponential-moment", raw)
