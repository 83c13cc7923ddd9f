"""Kinetic Monte Carlo for sizes beyond exact enumeration.

Every simulation uses one thinning rule, the uniformization (Jensen 1953)
of the exact engine.  With c_max the largest flip rate of any site, a
replica makes K ~ Poisson(N c_max t) proposals over [0, t]; each picks a
uniform site i and flips it when u c_max < c(i, sigma) for a uniform u,
with c(i, sigma) read from `RateModel.stacked_table` through the key
gathered from the current state.  Each call draws from one counter-based
(Philox) stream keyed by the seed, in a fixed order, so a seed gives the
same result bit for bit.

Ensembles advance all replicas at once as an (R, N) uint8 bit matrix, so
the torus may have any number of sites; they draw the initial states, the
proposal counts, then per step the sites and the uniforms, and read f once
at the end.  `sample_path` runs one replica on a Python-int state and
records the accepted proposals; it draws K, then K sorted uniform proposal
times in [0, t_end), K uniform sites and K acceptance uniforms.  Most
proposals are decided by the bounds of site i's row of the table alone:
below the row's smallest rate, u c_max < c(i, sigma) holds in every state,
and at or above its largest it fails in every state (all of them for
independent rates, about 82% for pair-perturbed rates at eps0 = 0.1).
Only the proposals in between read the state, walked in order, and the
state-free flips between two reads are applied as one XOR mask built in
numpy.  Each decision is still the test u c_max < c(i, sigma), so a seed
gives the same path as reading the state at every proposal.

Samplers of initial states are `sample(rng, count, n_sites)` callables
returning a (count, n_sites) uint8 bit matrix.  The exponential-moment
estimator reports both the plug-in value and its jackknife correction; the
plug-in log-mean-exp is biased at small samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import RateModel
from .gibbs import probs_of
from .lattice import Observable, gather_bits, state_bits


# the largest mean numpy's Poisson sampler accepts
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _keys(bits: np.ndarray) -> np.ndarray:
    """Integer keys of the rows of a (R, k) bit matrix, column j as key bit j."""
    return bits @ (np.int64(1) << np.arange(bits.shape[1], dtype=np.int64))


def _thinning(rates: RateModel, t: float):
    """(positions, table, c_max, mean) of the thinning rule over [0, t]:
    c(i, sigma) is table[i, key], the key gathered from sigma at
    positions[i], and mean = N c_max t is the Poisson mean of the number
    of proposals, which must lie in the range of numpy's sampler."""
    positions, table = rates.stacked_table()
    if not np.all(np.isfinite(table)):
        raise ValueError(f"{rates!r} has a non-finite rate")
    if table.min() < 0:
        raise ValueError(f"{rates!r} has a negative rate")
    c_max = float(table.max())
    mean = rates.torus.n_sites * c_max * t
    if not mean <= POISSON_MEAN_MAX:
        raise ValueError(
            f"proposal mean N c_max t = {mean:.6g} is past numpy's Poisson range ({POISSON_MEAN_MAX:.6g})"
        )
    return positions, table, c_max, mean


def _flips(u, c_max, rate):
    """Whether a proposal (or an array of them) with uniform u flips."""
    return u * c_max < rate


def _bit_row(bits: int, n_sites: int) -> np.ndarray:
    """The (n_sites,) uint8 bits of a state, which must lie on the torus."""
    if bits < 0 or bits >> n_sites:
        raise ValueError(f"state {bits} out of range for {n_sites} sites")
    return np.array([(bits >> i) & 1 for i in range(n_sites)], dtype=np.uint8)


def _free_masks(free, sites, walk) -> list:
    """masks[j] toggles the sites of the state-free flips free[k] that fall
    between walk[j - 1] and walk[j], and masks[-1] those after the last
    read, as Python ints.  Parities are XOR-reduced in numpy, 64 sites to a
    word, so Python steps once per non-empty (interval, word), not per flip."""
    segment = np.searchsorted(walk, free)
    word, bit = np.divmod(sites[free], 64)
    order = np.lexsort((word, segment))
    segment, word = segment[order], word[order]
    starts = np.flatnonzero(np.diff(segment, prepend=-1) | np.diff(word, prepend=-1))
    parity = np.bitwise_xor.reduceat(np.uint64(1) << bit[order].astype(np.uint64), starts)
    masks = [0] * (walk.size + 1)
    for s, w, p in zip(segment[starts].tolist(), word[starts].tolist(), parity.tolist()):
        masks[s] ^= p << (64 * w)
    return masks


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
    start = state = state_bits(sigma0)
    _bit_row(start, n)
    positions, table, c_max, mean = _thinning(rates, t_end)
    rng = _rng(seed)
    k = int(rng.poisson(mean))
    times = t_end * np.sort(rng.random(k))
    sites = rng.integers(0, n, size=k)
    u = rng.random(k)
    x = u * c_max
    # min <= c(i, sigma) <= max, so these proposals decide x < c alike in every state
    free = x < table.min(axis=1)[sites]
    walk = np.flatnonzero(~free & (x < table.max(axis=1)[sites]))
    masks = _free_masks(np.flatnonzero(free), sites, walk)
    reads, rows = positions.tolist(), table.tolist()
    hit = bytearray(walk.size)
    for j, (i, v, mask) in enumerate(zip(sites[walk].tolist(), x[walk].tolist(), masks)):
        state ^= mask
        if v < rows[i][gather_bits(state, reads[i])]:
            state ^= 1 << i
            hit[j] = 1
    state ^= masks[-1]
    flipped = free.copy()
    flipped[walk] = np.frombuffer(hit, dtype=bool)
    final_rates = table[np.arange(n), _keys(_bit_row(state, n)[positions])]
    return Trajectory(start, t_end, times[flipped], sites[flipped], state, final_rates)


def dirac_sampler(state):
    bits = state_bits(state)

    def sample(rng, count, n_sites):
        return np.tile(_bit_row(bits, n_sites), (count, 1))

    return sample


def product_sampler(torus, p_plus):
    p = np.broadcast_to(np.asarray(p_plus, dtype=float), (torus.n_sites,))

    def sample(rng, count, n_sites):
        return (rng.random((count, n_sites)) < p).astype(np.uint8)

    return sample


def vector_sampler(probs):
    cum = np.cumsum(probs_of(probs))
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
    positions, table, c_max, mean = _thinning(rates, t)
    rng = _rng(seed)
    bits = sampler(rng, replicas, n)
    counts = rng.poisson(mean, size=replicas)
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
        flip = np.nonzero(_flips(u, c_max, rate))[0]
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
