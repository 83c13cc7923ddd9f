"""Kinetic Monte Carlo against exact semigroup numbers."""

import numpy as np
import pytest
from conftest import log_exponential_moment

from spinflip.dynamics import (
    CustomRates,
    GlauberRates,
    IndependentRates,
    PerturbedRates,
    SemigroupEngine,
    engine_for,
)
from spinflip.gibbs import Potential, gibbs_measure, product_measure
from spinflip.lattice import Observable, SpinConfiguration, Torus, gather_bits
from spinflip.mc import (
    EnsembleEstimate,
    dirac_sampler,
    ensemble_expectation,
    ensemble_exponential_moment,
    product_sampler,
    sample_path,
    vector_sampler,
)


class TestSamplePath:
    def test_zero_time(self):
        torus = Torus((6,))
        rates = IndependentRates(torus, 1.0)
        traj = sample_path(rates, 0b101, 0.0, seed=1)
        assert traj.times.size == 0
        assert traj.sites.size == 0
        assert traj.final_state == 0b101
        fresh = [rates.rate(i, 0b101) for i in range(6)]
        assert np.array_equal(traj.final_rates, fresh)

    def test_negative_time_rejected(self):
        rates = IndependentRates(Torus((4,)), 1.0)
        with pytest.raises(ValueError):
            sample_path(rates, 0, -0.5, seed=1)

    def test_seed_determinism(self):
        rates = IndependentRates(Torus((8,)), 1.0)
        a = sample_path(rates, 0, 3.0, seed=7)
        b = sample_path(rates, 0, 3.0, seed=7)
        c = sample_path(rates, 0, 3.0, seed=8)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.sites, b.sites)
        assert a.final_state == b.final_state
        assert not np.array_equal(a.times, c.times)

    def test_trajectory_consistency(self):
        # replaying the recorded flips must reproduce the final state, and the
        # reported final rates must match a fresh evaluation at that state
        torus = Torus((3, 3))
        rates = GlauberRates(torus, Potential.ising_nn(2, 0.5))
        for seed in range(10):
            traj = sample_path(rates, 0b101010101, 2.0, seed=seed)
            assert np.all(np.diff(traj.times) > 0)
            assert traj.times.size == 0 or traj.times[-1] < traj.t_end
            state = traj.start
            for s in traj.sites:
                state ^= 1 << int(s)
            assert state == traj.final_state
            fresh = np.array([rates.rate(i, state) for i in range(torus.n_sites)])
            assert np.array_equal(traj.final_rates, fresh)

    def test_flip_counts_poisson(self):
        # unit rates: total flips over [0, t] is Poisson with mean n*t
        torus = Torus((6,))
        rates = IndependentRates(torus, 1.0)
        counts = np.array([sample_path(rates, 0, 2.0, seed=s).sites.size for s in range(400)])
        mean = 6 * 2.0
        assert abs(counts.mean() - mean) < 3.5 * np.sqrt(mean / 400)
        assert 0.7 * mean < counts.var() < 1.4 * mean

    def test_accepts_configuration(self):
        torus = Torus((5,))
        rates = IndependentRates(torus, 1.0)
        start = SpinConfiguration(torus, 0b11111)
        traj = sample_path(rates, start, 0.0, seed=0)
        assert traj.final_state == (1 << 5) - 1

    def test_negative_rate_rejected(self):
        # a negative rate is no acceptance probability, for paths as for ensembles
        rates = CustomRates(Torus((4,)), lambda i: (i,), lambda i, s: -0.5 if i == 1 else 1.0)
        with pytest.raises(ValueError, match="negative rate"):
            sample_path(rates, 0, 2.0, seed=1)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rate_rejected(self, bad):
        rates = CustomRates(Torus((4,)), lambda i: (i,), lambda i, s: bad if i == 1 and s else 1.0)
        f = Observable.monomial(rates.torus, [0])
        with pytest.raises(ValueError, match="non-finite rate"):
            sample_path(rates, 0, 2.0, seed=1)
        with pytest.raises(ValueError, match="non-finite rate"):
            ensemble_expectation(rates, dirac_sampler(0), 2.0, f, replicas=4, seed=1)

    @pytest.mark.parametrize("t", [1.0, 1e300])
    def test_proposal_mean_past_the_poisson_range(self, t):
        # N c_max t = 4e20 (or inf) is past numpy's Poisson sampler, which
        # would fail with "lam value too large"
        rates = IndependentRates(Torus((4,)), 1e20)
        f = Observable.monomial(rates.torus, [0])
        with pytest.raises(ValueError, match="Poisson range"):
            sample_path(rates, 0, t, seed=1)
        with pytest.raises(ValueError, match="Poisson range"):
            ensemble_expectation(rates, dirac_sampler(0), t, f, replicas=4, seed=1)

    def test_start_beyond_torus_rejected(self):
        # the start must lie on the torus, as for dirac_sampler
        rates = IndependentRates(Torus((4,)), 1.0)
        with pytest.raises(ValueError, match="out of range"):
            sample_path(rates, (1 << 70) | 1, 1.0, seed=1)

    def test_law_matches_semigroup(self):
        # E sigma_0 at the end of a path equals (S(t) sigma_0)(start)
        torus = Torus((3, 3))
        rates = GlauberRates(torus, Potential.ising_nn(2, 0.5))
        start, t = 0b101010101, 0.4
        f = Observable.monomial(torus, [0])
        exact = float(engine_for(rates).evolve_functions(f.dense_values(), t)[start])
        ends = np.array([sample_path(rates, start, t, seed=s).final_state & 1 for s in range(2000)])
        spins = 2.0 * ends - 1.0
        se = spins.std(ddof=1) / np.sqrt(spins.size)
        assert abs(spins.mean() - exact) <= 4 * se


def replay_path(rates, start, t_end, seed):
    """Reference for sample_path: the same Philox draws, then every proposal
    reads the state and flips when u c_max < c(i, sigma)."""
    n = rates.torus.n_sites
    c_max = float(rates.stacked_table()[1].max())
    rng = np.random.Generator(np.random.Philox(key=seed))
    k = int(rng.poisson(n * c_max * t_end))
    times = t_end * np.sort(rng.random(k))
    sites = rng.integers(0, n, size=k)
    u = rng.random(k)
    state, keep = start, np.zeros(k, dtype=bool)
    for step in range(k):
        i = int(sites[step])
        if u[step] * c_max < rates.rate(i, state):
            state ^= 1 << i
            keep[step] = True
    final_rates = np.array([rates.rate(i, state) for i in range(n)])
    return times[keep], sites[keep], state, final_rates


def uneven_rates():
    # rows with different maxima (state-free rejections above a row's
    # maximum) and one zero rate (site 2 has no state-free flip)
    def rate(i, s):
        if i == 2 and s == 0:
            return 0.0
        return (0.5 + 0.25 * i) * (1.0 + 0.4 * bin(s).count("1"))

    return CustomRates(Torus((6,)), lambda i: ((i - 1) % 6, i, (i + 1) % 6), rate)


PATH_CASES = {
    "independent-64": (lambda: IndependentRates(Torus((64,)), 1.0), 0xF0E1D2C3B4A59687, 20.0),
    "independent-130": (lambda: IndependentRates(Torus((130,)), 0.7), (5 << 127) | 0b1011, 3.0),
    "perturbed-pair": (lambda: PerturbedRates.pair(Torus((12,)), 0.1), 0b101100111000, 40.0),
    "glauber-1d": (lambda: GlauberRates(Torus((16,)), Potential.ising_nn(1, 0.5)), 0b1100, 20.0),
    "glauber-3x3": (lambda: GlauberRates(Torus((3, 3)), Potential.ising_nn(2, 0.6)), 0b101010101, 20.0),
    "custom-uneven": (uneven_rates, 0b010011, 30.0),
    "zero-time": (lambda: GlauberRates(Torus((3, 3)), Potential.ising_nn(2, 0.6)), 0b110, 0.0),
}


class TestPathAgainstReplay:
    @pytest.mark.parametrize("case", sorted(PATH_CASES))
    @pytest.mark.parametrize("seed", [1, 29])
    def test_bit_identical_to_per_proposal_loop(self, case, seed):
        make, start, t_end = PATH_CASES[case]
        rates = make()
        traj = sample_path(rates, start, t_end, seed=seed)
        times, sites, state, final_rates = replay_path(rates, start, t_end, seed)
        assert traj.times.tobytes() == times.tobytes()
        assert traj.sites.tobytes() == sites.tobytes()
        assert traj.final_state == state
        assert traj.final_rates.tobytes() == final_rates.tobytes()

    def test_uneven_rates_reach_every_kind_of_decision(self):
        # the custom case proposes state-free flips, state-free rejections
        # and state reads, and its zero-rate site only the latter two
        rates = uneven_rates()
        positions, table = rates.stacked_table()
        c_max = float(table.max())
        rng = np.random.Generator(np.random.Philox(key=1))
        k = int(rng.poisson(6 * c_max * 30.0))
        rng.random(k)
        sites = rng.integers(0, 6, size=k)
        x = rng.random(k) * c_max
        free = x < table.min(axis=1)[sites]
        never = x >= table.max(axis=1)[sites]
        assert free.any() and never.any() and (~free & ~never).any()
        assert not free[sites == 2].any() and (sites == 2).any()
        assert table[2].min() == 0.0 and table[2].max() < table[5].max()


class TestSamplers:
    def test_dirac(self):
        sampler = dirac_sampler(0b110)
        rng = np.random.default_rng(0)
        bits = sampler(rng, 5, 3)
        assert bits.shape == (5, 3) and bits.dtype == np.uint8
        assert np.all(bits == [0, 1, 1])

    def test_product_extremes(self):
        torus = Torus((7,))
        rng = np.random.default_rng(0)
        assert np.all(product_sampler(torus, 1.0)(rng, 5, 7) == 1)
        assert np.all(product_sampler(torus, 0.0)(rng, 5, 7) == 0)

    def test_product_frequency(self):
        torus = Torus((4,))
        sampler = product_sampler(torus, 0.25)
        rng = np.random.default_rng(3)
        draws = sampler(rng, 4000, 4)
        up = draws[:, 0].mean()
        assert abs(up - 0.25) < 0.03

    def test_vector_matches_weights(self):
        probs = np.array([0.5, 0.0, 0.25, 0.25])
        sampler = vector_sampler(probs)
        rng = np.random.default_rng(5)
        bits = sampler(rng, 8000, 2)
        draws = bits[:, 0] + 2 * bits[:, 1].astype(np.int64)
        assert not np.any(draws == 1)
        freq = np.bincount(draws, minlength=4) / draws.size
        assert np.all(np.abs(freq - probs) < 0.03)

    def test_uniform_range(self):
        torus = Torus((3,))
        sampler = product_sampler(torus, 0.5)  # what `mc --measure uniform` draws from
        rng = np.random.default_rng(1)
        draws = sampler(rng, 200, 3)
        assert draws.shape == (200, 3)
        assert draws.min() >= 0 and draws.max() <= 1

    def test_dirac_state_beyond_torus_rejected(self):
        with pytest.raises(ValueError):
            dirac_sampler(999)(np.random.default_rng(0), 4, 6)

    def test_vector_sampler_weights_summing_below_one(self):
        # weights that sum to 1 - 2^-52 in floats, as a rounded Gibbs vector
        # may; the largest uniform draw must still land on a state of
        # positive weight, not past the last state or on a zero weight
        class TopDraw:
            def random(self, count):
                return np.full(count, np.nextafter(1.0, 0.0))

        probs = np.array([0.3, 0.6999999999999998, 0.0, 0.0])
        assert np.cumsum(probs)[-1] < np.nextafter(1.0, 0.0)
        bits = vector_sampler(probs)(TopDraw(), 3, 2)
        assert np.all(bits == [1, 0])


class TestStackedTable:
    @staticmethod
    def assert_matches_rates(rates):
        n = rates.torus.n_sites
        positions, table = rates.stacked_table()
        assert positions.shape[0] == n and table.shape == (n, 1 << positions.shape[1])
        states = np.arange(1 << n, dtype=np.int64)
        for i in range(n):
            keys = gather_bits(states, positions[i])
            expected = [rates.rate(i, int(s)) for s in states]
            assert np.array_equal(table[i, keys], expected)

    def test_glauber_square(self):
        torus = Torus((3, 3))
        self.assert_matches_rates(GlauberRates(torus, Potential.ising_nn(2, 0.5)))

    def test_perturbed_pair(self):
        self.assert_matches_rates(PerturbedRates.pair(Torus((5,)), 0.3))

    def test_repeated_sites(self):
        # on a side-2 ring the offsets 0 and 2 land on the same site, which
        # keeps one key bit per listed offset
        table = np.linspace(-0.7, 0.7, 8)
        rates = PerturbedRates(Torus((2,)), ((0,), (1,), (2,)), table)
        assert all(sites[0] == sites[2] for sites, _ in rates._terms)
        self.assert_matches_rates(rates)

    def test_mixed_widths(self):
        # narrower sites are tiled, so their padding bits cannot change the rate
        torus = Torus((4,))
        rates = CustomRates(
            torus,
            lambda i: range(i + 1),
            lambda i, s: 1.0 + i + 0.25 * bin(s).count("1"),
        )
        self.assert_matches_rates(rates)


class TestEnsembleExpectation:
    def test_constant_function(self):
        torus = Torus((4,))
        rates = IndependentRates(torus, 1.0)
        f = Observable.constant(torus, 2.5)
        est = ensemble_expectation(rates, dirac_sampler(0), 0.5, f, replicas=16, seed=1)
        assert est.estimate == 2.5
        assert est.std_error == 0.0
        assert est.kind == "mean"

    def test_too_few_replicas(self):
        torus = Torus((4,))
        rates = IndependentRates(torus, 1.0)
        f = Observable.monomial(torus, [0])
        with pytest.raises(ValueError):
            ensemble_expectation(rates, dirac_sampler(0), 0.5, f, replicas=1, seed=1)

    def test_seed_determines_the_estimate(self):
        torus = Torus((6,))
        rates = IndependentRates(torus, 1.0)
        f = Observable.monomial(torus, [0, 2])
        n = 293
        one = ensemble_expectation(rates, dirac_sampler(0), 0.4, f, replicas=n, seed=9)
        again = ensemble_expectation(rates, dirac_sampler(0), 0.4, f, replicas=n, seed=9)
        other = ensemble_expectation(rates, dirac_sampler(0), 0.4, f, replicas=n, seed=10)
        assert one.estimate == again.estimate
        assert one.std_error == again.std_error
        assert one.estimate != other.estimate

    def test_negative_time_rejected(self):
        torus = Torus((4,))
        rates = IndependentRates(torus, 1.0)
        f = Observable.monomial(torus, [0])
        with pytest.raises(ValueError):
            ensemble_expectation(rates, dirac_sampler(0), -0.5, f, replicas=16, seed=1)
        with pytest.raises(ValueError):
            ensemble_exponential_moment(rates, dirac_sampler(0), -0.5, f, replicas=16, seed=1)

    def test_hundred_sites_against_closed_form(self):
        # more sites than an int64 key holds; spins stay independent, so
        # E sigma_i(t) = (2p - 1) e^{-2rt} from a product start
        torus = Torus((100,))
        r, p, t = 1.0, 0.8, 0.3
        rates = IndependentRates(torus, r)
        f = Observable.monomial(torus, [97])
        est = ensemble_expectation(rates, product_sampler(torus, p), t, f, replicas=4000, seed=12)
        exact = (2 * p - 1) * np.exp(-2 * r * t)
        assert abs(est.estimate - exact) < 4 * est.std_error

    def test_independent_decay(self):
        # E sigma_A(t) = exp(-2|A|t) from the all-plus start
        torus = Torus((6,))
        rates = IndependentRates(torus, 1.0)
        f = Observable.monomial(torus, [1, 4])
        start = (1 << 6) - 1
        est = ensemble_expectation(rates, dirac_sampler(start), 0.5, f, replicas=4000, seed=2)
        exact = np.exp(-2 * 2 * 0.5)
        assert abs(est.estimate - exact) < 3 * est.std_error

    def test_glauber_against_exact(self):
        torus = Torus((8,))
        rates = GlauberRates(torus, Potential.ising_nn(1, 0.4))
        f = Observable.monomial_sum(torus, [(1.0, [0]), (0.5, [2, 3])])
        start = 0b10110001
        est = ensemble_expectation(rates, dirac_sampler(start), 0.7, f, replicas=4000, seed=3)
        engine = SemigroupEngine(rates)
        exact = engine.evolve_functions(f.dense_values(), 0.7)[start]
        assert abs(est.estimate - exact) < 3 * est.std_error

    def test_stationary_start(self):
        # reversible measure: the expectation does not move
        torus = Torus((7,))
        pot = Potential.ising_nn(1, 0.3)
        rates = GlauberRates(torus, pot)
        mu = gibbs_measure(pot, torus)
        f = Observable.monomial_sum(torus, [(1.0, [0, 1])])
        exact = float(mu.probs @ f.dense_values())
        est = ensemble_expectation(
            rates, vector_sampler(mu.probs), 0.8, f, replicas=4000, seed=4
        )
        assert abs(est.estimate - exact) < 3 * est.std_error


class TestExponentialMoment:
    def test_constant_function(self):
        torus = Torus((4,))
        rates = IndependentRates(torus, 1.0)
        f = Observable.constant(torus, 3.0)
        est = ensemble_exponential_moment(rates, dirac_sampler(0), 0.3, f, replicas=32, seed=1)
        assert est.estimate == pytest.approx(0.0, abs=1e-12)
        assert est.raw_estimate == pytest.approx(0.0, abs=1e-12)
        assert est.std_error == pytest.approx(0.0, abs=1e-12)
        assert est.kind == "exponential-moment"

    def test_too_few_replicas(self):
        torus = Torus((4,))
        rates = IndependentRates(torus, 1.0)
        f = Observable.monomial(torus, [0])
        with pytest.raises(ValueError):
            ensemble_exponential_moment(rates, dirac_sampler(0), 0.5, f, replicas=2, seed=1)

    def test_against_exact(self):
        torus = Torus((6,))
        rates = IndependentRates(torus, 1.0)
        f = Observable.monomial_sum(torus, [(0.6, [0]), (0.4, [1, 2])])
        p0 = product_measure(torus, 0.3)
        engine = SemigroupEngine(rates)
        pt = engine.evolve_measures(p0, 0.4)
        exact = log_exponential_moment(pt, f.dense_values())
        est = ensemble_exponential_moment(
            rates, product_sampler(torus, 0.3), 0.4, f, replicas=6000, seed=5
        )
        assert abs(est.estimate - exact) < 3 * est.std_error
        assert est.raw_estimate is not None
        assert est.raw_estimate != est.estimate

    def test_glauber_against_exact(self):
        torus = Torus((6,))
        rates = GlauberRates(torus, Potential.ising_nn(1, 0.35))
        f = Observable.monomial_sum(torus, [(0.5, [2]), (0.5, [0, 3])])
        start = 0b011010
        engine = SemigroupEngine(rates)
        pt = engine.evolve_measures(np.eye(64)[start], 0.6)
        exact = log_exponential_moment(pt, f.dense_values())
        est = ensemble_exponential_moment(
            rates, dirac_sampler(start), 0.6, f, replicas=6000, seed=6
        )
        assert abs(est.estimate - exact) < 3 * est.std_error


class TestErrorScaling:
    def test_standard_error_halves(self):
        torus = Torus((5,))
        rates = IndependentRates(torus, 1.0)
        f = Observable.monomial(torus, [0])
        start = (1 << 5) - 1
        small = ensemble_expectation(rates, dirac_sampler(start), 0.3, f, replicas=800, seed=11)
        big = ensemble_expectation(rates, dirac_sampler(start), 0.3, f, replicas=3200, seed=11)
        ratio = small.std_error / big.std_error
        assert 1.6 < ratio < 2.5

    def test_estimate_dataclass_fields(self):
        est = EnsembleEstimate(1.0, 0.1, 100, 42, "mean")
        assert est.raw_estimate is None
