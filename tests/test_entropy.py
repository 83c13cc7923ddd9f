"""Relative entropy, marginals, window profiles, and the flow diagnostics."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from spinflip.concentration import TestFunctionFamily
from spinflip.dynamics import GlauberRates, IndependentRates, PerturbedRates, engine_for, generator_matrix
from spinflip.entropy import (
    entropy_density_profile,
    marginal,
    nogo_experiment,
    relative_entropy,
    total_variation,
    window_sites,
)
from spinflip.gibbs import (
    BoundaryCondition,
    Potential,
    dirac_vector,
    gibbs_measure,
    product_measure,
    uniform_measure,
)
from spinflip.lattice import Torus


def random_distribution(rng, size):
    out = rng.uniform(0.05, 1.0, size=size)
    return out / out.sum()


def ising_ring_pair_correlation(n, beta):
    T = np.array([[math.exp(beta), math.exp(-beta)], [math.exp(-beta), math.exp(beta)]])
    S = np.diag([1.0, -1.0])
    num = np.trace(S @ T @ S @ np.linalg.matrix_power(T, n - 1))
    return num / np.trace(np.linalg.matrix_power(T, n))


class TestRelativeEntropy:
    def test_equal_measures(self):
        rng = np.random.default_rng(0)
        mu = random_distribution(rng, 16)
        assert relative_entropy(mu, mu) == 0.0

    def test_dirac_against_uniform(self):
        torus = Torus((5,))
        h = relative_entropy(dirac_vector(torus, 7), uniform_measure(torus))
        assert h == pytest.approx(5 * math.log(2.0), abs=1e-12)

    def test_bernoulli_closed_form(self):
        torus = Torus((1,))
        p, q = 0.3, 0.7
        h = relative_entropy(product_measure(torus, p), product_measure(torus, q))
        want = p * math.log(p / q) + (1 - p) * math.log((1 - p) / (1 - q))
        assert h == pytest.approx(want, abs=1e-14)

    def test_support_violation_is_infinite(self):
        torus = Torus((2,))
        assert relative_entropy(uniform_measure(torus), dirac_vector(torus, 0)) == math.inf

    def test_nonnegative_and_faithful(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            mu = random_distribution(rng, 32)
            nu = random_distribution(rng, 32)
            h = relative_entropy(mu, nu)
            assert h >= 0.0
            if h < 1e-12:
                np.testing.assert_allclose(mu, nu, atol=1e-6)

    def test_chain_rule_with_a_shared_channel(self):
        # joint (x, y) with y drawn from the same kernel K leaves H unchanged
        rng = np.random.default_rng(11)
        mu = random_distribution(rng, 8)
        nu = random_distribution(rng, 8)
        K = rng.uniform(0.1, 1.0, size=(8, 4))
        K /= K.sum(axis=1, keepdims=True)
        joint_mu = (mu[:, None] * K).ravel()
        joint_nu = (nu[:, None] * K).ravel()
        assert relative_entropy(joint_mu, joint_nu) == pytest.approx(
            relative_entropy(mu, nu), abs=1e-12
        )

    def test_total_variation(self):
        torus = Torus((3,))
        assert total_variation(dirac_vector(torus, 0), dirac_vector(torus, 5)) == 1.0
        mu = uniform_measure(torus)
        assert total_variation(mu, mu) == 0.0


class TestMarginal:
    def test_full_window_is_identity(self):
        rng = np.random.default_rng(1)
        mu = random_distribution(rng, 16)
        np.testing.assert_allclose(marginal(mu, [0, 1, 2, 3]), mu, atol=1e-15)

    def test_product_measure_factorizes(self):
        torus = Torus((5,))
        p = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        mu = product_measure(torus, p)
        m = marginal(mu, [1, 3])
        want = np.array(
            [(1 - p[1]) * (1 - p[3]), p[1] * (1 - p[3]), (1 - p[1]) * p[3], p[1] * p[3]]
        )
        np.testing.assert_allclose(m, want, atol=1e-14)

    def test_gibbs_pair_marginal_against_transfer_matrix(self):
        n, beta = 8, 0.4
        torus = Torus((n,))
        mu = gibbs_measure(Potential.ising_nn(1, beta), torus)
        m = marginal(mu.probs, [0, 1])
        corr = m[0b00] + m[0b11] - m[0b01] - m[0b10]
        assert corr == pytest.approx(ising_ring_pair_correlation(n, beta), abs=1e-12)

    def test_marginal_normalizes(self):
        rng = np.random.default_rng(8)
        mu = random_distribution(rng, 64)
        assert marginal(mu, [0, 5]).sum() == pytest.approx(1.0, abs=1e-13)

    def test_bad_site_rejected(self):
        with pytest.raises(ValueError):
            marginal(np.full(4, 0.25), [2])

    @pytest.mark.parametrize("sites", [[0], [0, 1]])
    def test_kept_site_zero_sums_pairwise(self, sites):
        # keeping site 0 leaves each entry's run strided; summed one term at
        # a time it drifts by several 1e-15 at 18 sites, and pairwise it
        # stays within a few units of 2^-53 of the exactly rounded sum
        n = 18
        mu = random_distribution(np.random.default_rng(0), 1 << n)
        states = np.arange(1 << n)
        key = sum(((states >> s) & 1) << j for j, s in enumerate(sites))
        want = [math.fsum(mu[key == k]) for k in range(1 << len(sites))]
        np.testing.assert_allclose(marginal(mu, sites, n), want, rtol=0, atol=3e-16)


class TestWindows:
    def test_window_growth(self):
        torus = Torus((7,))
        w0, s0 = window_sites(torus, 0)
        w1, s1 = window_sites(torus, 1)
        assert w0 == (0,) and not s0
        assert w1 == (0, 1, 6) and not s1

    def test_saturation_flag(self):
        torus = Torus((5,))
        sites, saturated = window_sites(torus, 3)
        assert sites == (0, 1, 2, 3, 4)
        assert saturated

    def test_two_dimensional_window(self):
        torus = Torus((5, 5))
        sites, saturated = window_sites(torus, 1)
        assert len(sites) == 9 and not saturated


def densities(prof):
    return [r["h_per_site"] for r in prof.rows]


class TestProfile:
    def test_equal_measures_zero_profile(self):
        torus = Torus((6,))
        mu = gibbs_measure(Potential.ising_nn(1, 0.3), torus).probs
        prof = entropy_density_profile(mu, mu, [window_sites(torus, r) for r in (0, 1, 2)])
        assert all(d == 0.0 for d in densities(prof))

    def test_product_measures_constant_density(self):
        torus = Torus((7,))
        p, q = 0.3, 0.6
        mu = product_measure(torus, p)
        nu = product_measure(torus, q)
        kl = q * math.log(q / p) + (1 - q) * math.log((1 - q) / (1 - p))
        prof = entropy_density_profile(mu, nu, [window_sites(torus, r) for r in (0, 1, 3)])
        for d in densities(prof):
            assert d == pytest.approx(kl, abs=1e-12)

    def test_ordered_boundary_measures_dilute(self):
        # strongly ordered segment: the two boundary measures disagree by
        # roughly one global sign bit, so the per-site density dilutes
        torus = Torus((13,))
        vol = tuple(range(1, 12))
        pot = Potential.ising_nn(1, 1.2)
        plus = gibbs_measure(pot, torus, boundary=BoundaryCondition.fixed(+1), volume=vol)
        minus = gibbs_measure(pot, torus, boundary=BoundaryCondition.fixed(-1), volume=vol)
        mid = len(vol) // 2
        windows = [tuple(range(mid - r, mid + r + 1)) for r in (0, 1, 2)]
        prof = entropy_density_profile(minus.probs, plus.probs, windows, len(vol))
        d = densities(prof)
        assert d[0] > d[1] > d[2] > 0

    def test_non_nested_windows_rejected(self):
        torus = Torus((6,))
        mu = uniform_measure(torus)
        with pytest.raises(ValueError):
            entropy_density_profile(mu, mu, [(0, 1), (2, 3)])


def entropy_curve(rates, mu, nu, grid):
    """H(mu S(t) | nu S(t)) at each t of the grid, from one batched pass."""
    pairs = engine_for(rates).evolve_measures_over(np.vstack([mu, nu]), grid)
    return [relative_entropy(*pair) for pair in pairs]


class TestDataProcessing:
    def test_equal_measures_flat_zero(self):
        torus = Torus((4,))
        mu = uniform_measure(torus)
        assert entropy_curve(IndependentRates(torus, 1.0), mu, mu, [0.0, 0.5, 1.0]) == [0.0] * 3

    def test_curve_decreases_to_zero(self):
        # each S(t) is a Markov kernel, so the curve is nonincreasing
        torus = Torus((5,))
        rates = IndependentRates(torus, 1.0)
        rng = np.random.default_rng(3)
        mu = random_distribution(rng, 32)
        nu = random_distribution(rng, 32)
        ent = entropy_curve(rates, mu, nu, [0.0, 0.25, 0.5, 1.0, 2.0, 4.0])
        assert ent[0] == pytest.approx(relative_entropy(mu, nu), abs=1e-13)
        assert all(b <= a + 1e-10 for a, b in zip(ent, ent[1:]))
        assert ent[-1] < 1e-5

    def test_monotone_across_models(self):
        rng = np.random.default_rng(9)
        torus = Torus((5,))
        models = [
            IndependentRates(torus, 1.0),
            GlauberRates(torus, Potential.ising_nn(1, 0.3)),
            PerturbedRates.pair(torus, 0.2),
        ]
        for rates in models:
            mu = random_distribution(rng, 32)
            nu = random_distribution(rng, 32)
            ent = entropy_curve(rates, mu, nu, np.linspace(0.0, 2.0, 9))
            assert all(b <= a + 1e-10 for a, b in zip(ent, ent[1:]))

    def test_negative_time_rejected(self):
        torus = Torus((3,))
        mu = uniform_measure(torus)
        with pytest.raises(ValueError):
            entropy_curve(IndependentRates(torus, 1.0), mu, mu, [-0.1, 0.2])


class TestNoGo:
    def test_degenerate_inputs_flagged(self):
        torus = Torus((4,))
        rates = IndependentRates(torus, 1.0)
        mu = uniform_measure(torus)
        fam = TestFunctionFamily.monomials(torus, 1)
        report = nogo_experiment(rates, mu, mu, [0.0, 0.5], fam)
        assert report.degenerate
        for row in report.rows:
            assert row["tv"] == 0.0
            assert row["entropy"] == 0.0

    def test_single_site_dirac_closed_form(self):
        torus = Torus((4,))
        rates = IndependentRates(torus, 1.0)
        fam = TestFunctionFamily.monomials(torus, 1)
        start = 0b0110
        report = nogo_experiment(
            rates,
            dirac_vector(torus, start),
            dirac_vector(torus, start ^ 1),
            [0.0, 0.3, 1.0],
            fam,
        )
        assert not report.degenerate
        for row in report.rows:
            assert row["tv"] == pytest.approx(math.exp(-2.0 * row["t"]), abs=1e-12)

    def test_two_dimensional_boundary_pipeline(self):
        torus = Torus((4, 4))
        pot = Potential.ising_nn(2, 0.6)
        rates = GlauberRates(torus, pot)
        plus = gibbs_measure(pot, torus, boundary=BoundaryCondition.fixed(+1), volume=torus.sites())
        minus = gibbs_measure(pot, torus, boundary=BoundaryCondition.fixed(-1), volume=torus.sites())
        fam = TestFunctionFamily.monomials(torus, 1, max_count=4)
        report = nogo_experiment(rates, plus.probs, minus.probs, [0.5, 2.0], fam, radii=(0, 1))
        for row in report.rows:
            assert row["tv"] > 1e-6
            assert row["entropy"] > 0
            assert set(row["profile"]) == {0, 1}
            assert row["gcb_hat"] >= 0
        assert report.min_tv > 1e-6
        assert "TV stays" in report.summary

    def test_folded_pair_matches_the_full_operator(self):
        # the plus/minus pair is one column and its global flip: the engine
        # carries it on half the states, with nothing clipped
        torus = Torus((3, 3))
        pot = Potential.ising_nn(2, 0.6)
        rates = GlauberRates(torus, pot)
        plus = gibbs_measure(pot, torus, boundary=BoundaryCondition.fixed(+1), volume=torus.sites())
        minus = gibbs_measure(pot, torus, boundary=BoundaryCondition.fixed(-1), volume=torus.sites())
        grid = [0.0, 0.3, 1.0, 2.5]
        fam = TestFunctionFamily.monomials(torus, 1, max_count=3)
        report = nogo_experiment(rates, plus.probs, minus.probs, grid, fam)
        engine = engine_for(rates)
        assert engine.flip_symmetric
        pairs = engine.evolve_measures_over(np.vstack([plus.probs, minus.probs]), grid)
        assert np.all(pairs >= 0)
        p = (sp.identity(engine.n_states, format="csr") + generator_matrix(rates) / engine.lam).T.tocsr()
        for row, t in zip(report.rows, grid):
            w = engine.poisson_weights(t)
            cur = np.vstack([plus.probs, minus.probs]).T
            acc = w[0] * cur
            for wk in w[1:]:
                cur = p @ cur
                acc = acc + wk * cur
            full = acc.T
            assert np.all(full >= 0)
            assert row["tv"] == pytest.approx(total_variation(full[0], full[1]), rel=1e-12)
            assert row["entropy"] == pytest.approx(relative_entropy(full[1], full[0]), rel=1e-12)
