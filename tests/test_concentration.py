"""Concentration ratios, tails, and the theorem pipelines."""

import math
import re
import warnings
from itertools import combinations

import numpy as np
import pytest
from conftest import log_exponential_moment, variance
from scipy.linalg import expm

from spinflip import concentration
from spinflip.concentration import (
    ABS_P_RANGE,
    DEFAULT_LAMBDA_GRID,
    HJCSpec,
    TestFunctionFamily,
    check_uvb,
    empirical_gcb_constant,
    family_summary,
    hjc_check,
    hjc_library,
    product_gcb_constant,
    product_uvb_constant,
    psi_identity_check,
    theorem31_check,
    theorem52_check,
    theorem53_check,
    theorem53_constant,
)
from spinflip.dynamics import (
    CustomRates,
    GlauberRates,
    IndependentRates,
    PerturbedRates,
    SemigroupEngine,
    engine_for,
    generator_matrix,
)
from spinflip.gibbs import Potential, dirac_vector, gibbs_measure, product_measure, uniform_measure
from spinflip.lattice import Observable, Torus, lipschitz_norm, lipschitz_vector


def binomial_upper_tail(n, u):
    """P(sum of n uniform spins >= u)."""
    total = 0.0
    for k in range(n + 1):
        if 2 * k - n >= u:
            total += math.comb(n, k) / 2.0**n
    return total


def spin(s, i, n=6):
    """The spin at site i mod n of the state s, as +-1"""
    return 1.0 if s >> (i % n) & 1 else -1.0


def gcb_ratio(mu, f):
    """log E_mu e^{f - E_mu f} / ||delta f||_2^2: the scan of f alone at
    lambda = 1, which refuses a constant f."""
    return empirical_gcb_constant(mu, TestFunctionFamily([f], [1.0])).best_constant


class TestRatios:
    def test_single_site_closed_form(self):
        torus = Torus((1,))
        mu = uniform_measure(torus)
        f = Observable.monomial(torus, [0])
        assert gcb_ratio(mu, f) == pytest.approx(math.log(math.cosh(1.0)) / 4.0, abs=1e-12)

    def test_dirac_ratio_is_zero(self):
        torus = Torus((3,))
        mu = dirac_vector(torus, 5)
        f = Observable.monomial_sum(torus, [(1.0, [0]), (0.5, [1, 2])])
        assert abs(gcb_ratio(mu, f)) < 1e-12

    def test_magnetization_under_product_measure(self):
        # E e^{lam sum sigma_i} factorizes into cosh^N
        torus = Torus((6,))
        mu = uniform_measure(torus)
        f = Observable.monomial_sum(torus, [(1.0, [i]) for i in torus.sites()])
        for lam in (0.25, 0.5, 1.0, 2.0):
            got = log_exponential_moment(mu, lam * f.dense_values())
            assert got == pytest.approx(6 * math.log(math.cosh(lam)), abs=1e-10)
            ratio = got / (lam * lam * 24.0)
            assert ratio <= 0.5

    def test_constant_function_rejected(self):
        torus = Torus((2,))
        with pytest.raises(ValueError):
            gcb_ratio(uniform_measure(torus), Observable.constant(torus, 3.0))

    def test_centering_invariance(self):
        torus = Torus((4,))
        rng = np.random.default_rng(2)
        mu = rng.uniform(0.1, 1.0, size=16)
        mu /= mu.sum()
        f = Observable.monomial_sum(torus, [(0.7, [0, 2]), (-0.3, [1])])
        shifted = f + Observable.constant(torus, 11.0)
        assert gcb_ratio(mu, f) == pytest.approx(gcb_ratio(mu, shifted), abs=1e-10)
        assert variance(mu, f.dense_values()) == pytest.approx(
            variance(mu, shifted.dense_values()), abs=1e-10
        )

    def test_small_scale_limit_is_half_the_variance_ratio(self):
        torus = Torus((4,))
        mu = uniform_measure(torus)
        f = Observable.monomial_sum(torus, [(1.0, [0]), (0.5, [1, 3])])
        var_ratio = variance(mu, f.dense_values()) / 6.0  # l2sq = 4 + 1 + 1
        lam = 1e-4
        assert gcb_ratio(mu, f * lam) == pytest.approx(var_ratio / 2.0, abs=1e-6)


    def test_stacked_log_moments_match_rows(self):
        torus = Torus((5,))
        mu = gibbs_measure(Potential.ising_nn(1, 0.3), torus)
        fam = TestFunctionFamily.random_combinations(torus, 3, seed=2)
        stack = np.array([[lam * f.dense_values() for lam in fam.lambda_grid] for f in fam.members])
        got = log_exponential_moment(mu, stack)
        assert isinstance(got, np.ndarray) and got.shape == stack.shape[:2]
        rows = [[log_exponential_moment(mu, row) for row in block] for block in stack]
        np.testing.assert_allclose(got, rows, rtol=0, atol=1e-13)
        assert type(log_exponential_moment(mu, stack[0, 0])) is float


class TestFamilies:
    def test_monomials_enumeration(self):
        torus = Torus((4,))
        fam = TestFunctionFamily.monomials(torus, k_max=2)
        assert len(fam) == 4 + len(list(combinations(range(4), 2)))
        supports = [f.support for f in fam.members]
        assert supports[0] == (0,)
        assert supports[-1] == (2, 3)

    def test_random_family_is_reproducible(self):
        torus = Torus((5,))
        a = TestFunctionFamily.random_combinations(torus, 6, seed=9)
        b = TestFunctionFamily.random_combinations(torus, 6, seed=9)
        for fa, fb in zip(a.members, b.members):
            assert fa.support == fb.support
            np.testing.assert_array_equal(fa.table, fb.table)

    def test_zero_scale_rejected(self):
        torus = Torus((2,))
        with pytest.raises(ValueError):
            TestFunctionFamily([Observable.monomial(torus, [0])], lambda_grid=(0.0, 1.0))

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            TestFunctionFamily([])

    @pytest.mark.parametrize("max_count", [0, -3])
    def test_monomials_need_room_for_a_member(self, max_count, monkeypatch):
        # refused before any member is built
        torus = Torus((4,))
        monkeypatch.setattr(Observable, "monomial", None)
        with pytest.raises(ValueError, match="max_count"):
            TestFunctionFamily.monomials(torus, 2, max_count=max_count)


class TestEmpiricalConstants:
    def test_dirac_best_constant_zero(self):
        torus = Torus((4,))
        fam = TestFunctionFamily.monomials(torus, 2)
        report = empirical_gcb_constant(dirac_vector(torus, 9), fam)
        assert abs(report.best_constant) < 1e-12

    def test_uniform_product_window(self):
        torus = Torus((6,))
        fam = TestFunctionFamily.monomials(torus, 2)
        report = empirical_gcb_constant(uniform_measure(torus), fam, bound=product_gcb_constant())
        assert 0.10 <= report.best_constant <= product_gcb_constant() + 1e-9
        assert report.holds

    def test_ising_gibbs_within_certified_constant(self):
        potential = Potential.ising_nn(1, 0.2)
        torus = Torus((10,))
        mu = gibbs_measure(potential, torus)
        fam = TestFunctionFamily.monomials(torus, 2, max_count=25)
        certified = potential.gcb_constant_dobrushin()
        report = empirical_gcb_constant(mu, fam, bound=certified)
        assert report.holds
        assert report.best_constant <= certified

    def test_uvb_single_site(self):
        torus = Torus((1,))
        fam = TestFunctionFamily([Observable.monomial(torus, [0])])
        report = check_uvb(uniform_measure(torus), fam)
        assert report.best_constant == pytest.approx(0.25, abs=1e-14)

    def test_uvb_scale_invariance(self):
        torus = Torus((4,))
        mu = uniform_measure(torus)
        f = Observable.monomial_sum(torus, [(1.0, [0, 1]), (-0.5, [2])])
        a = check_uvb(mu, TestFunctionFamily([f]))
        b = check_uvb(mu, TestFunctionFamily([f * 7.0]))
        assert a.best_constant == pytest.approx(b.best_constant, rel=1e-12)

    def test_translates_tie_to_the_first_label(self):
        # the translates of sigma_0 sigma_1 under an evolved Gibbs state have
        # equal ratios up to rounding: both scans name the first of them
        torus = Torus((8,))
        pot = Potential.ising_nn(1, 0.3)
        nu = engine_for(GlauberRates(torus, pot)).evolve_measures(dirac_vector(torus, 0), 0.4)
        members = [Observable.monomial(torus, sorted((i, (i + 1) % 8))) for i in range(8)]
        fam = TestFunctionFamily(members, lambda_grid=(0.5, 1.0))
        for report in (empirical_gcb_constant(nu, fam), check_uvb(nu, fam)):
            ratios = [row["ratio"] for row in report.rows]
            assert report.best_constant == max(ratios)
            assert report.best_label == "f0[0,1]"

    def test_uvb_dirac_zero(self):
        torus = Torus((3,))
        fam = TestFunctionFamily.monomials(torus, 2)
        report = check_uvb(dirac_vector(torus, 0), fam, bound=product_uvb_constant())
        assert report.best_constant == pytest.approx(0.0, abs=1e-14)
        assert report.holds


class TestSubgaussianTail:
    def test_binomial_oracle(self):
        # GCB implies sub-Gaussian tails: the exact tail of the uniform
        # product measure sits below e^{-u^2 / (4 C ||delta f||_2^2)} with
        # its certified constant C = 1/8 (Hoeffding's e^{-u^2 / 2n})
        n = 6
        torus = Torus((n,))
        f = Observable.monomial_sum(torus, [(1.0, [i]) for i in range(n)])
        probs = uniform_measure(torus)
        values = f.dense_values()
        l2sq = lipschitz_norm(lipschitz_vector(f), 2.0) ** 2
        for u in (0.0, 1.0, 2.0, 4.0, 6.0):
            tail = float(probs[values - float(probs @ values) >= u].sum())
            assert tail == pytest.approx(binomial_upper_tail(n, u), abs=1e-12)
            bound = math.exp(-u * u / (4.0 * product_gcb_constant() * l2sq))
            assert bound == pytest.approx(math.exp(-u * u / (2.0 * n)), abs=1e-12)
            assert tail <= bound * (1 + 1e-12)


class TestWeakGCB:
    LAMS = np.array([2.0**-j for j in range(13)])

    def test_single_site_limits(self):
        # for g = f - E f, log E e^{lambda g} / lambda^2 tends to Var(g) / 2
        # and 2 (E e^{lambda g} - 1) / lambda^2 to Var(g) as lambda -> 0
        torus = Torus((1,))
        mu = uniform_measure(torus)
        values = Observable.monomial(torus, [0]).dense_values()
        l2sq = 4.0
        logmoms = log_exponential_moment(mu, np.multiply.outer(self.LAMS, values))
        ratios = logmoms / (self.LAMS**2 * l2sq)
        assert np.all(ratios <= 0.25)
        assert variance(mu, values) / l2sq == pytest.approx(0.25, abs=1e-14)
        assert ratios[-1] == pytest.approx(0.125, abs=1e-6)
        assert 2.0 * math.expm1(logmoms[-1]) / (self.LAMS[-1] ** 2 * l2sq) == pytest.approx(0.25, abs=1e-6)

    def test_dirac_vacuous(self):
        # under a point mass f - E f = 0, so every scale's log-moment is 0
        torus = Torus((3,))
        values = Observable.monomial(torus, [0, 1]).dense_values()
        logmoms = log_exponential_moment(dirac_vector(torus, 4), np.multiply.outer(self.LAMS, values))
        assert np.all(logmoms == 0.0)

    def test_uvb_constant_covers_the_window(self):
        # the proof's window: ratio <= e C / 2 once lambda <= 1/(2||f||+1)
        torus = Torus((5,))
        rng = np.random.default_rng(7)
        mu = rng.uniform(0.05, 1.0, size=32)
        mu /= mu.sum()
        f = Observable.monomial_sum(torus, [(0.8, [0, 1]), (0.6, [2]), (-0.4, [3, 4])])
        l2sq = sum(d * d for d in (1.6, 1.6, 1.2, 0.8, 0.8))
        c_var = variance(mu, f.dense_values()) / l2sq
        lams = self.LAMS[self.LAMS <= 1.0 / (2.0 * np.abs(f.table).max() + 1.0)]
        assert lams.size
        ratios = log_exponential_moment(mu, np.multiply.outer(lams, f.dense_values())) / (lams**2 * l2sq)
        assert np.all(ratios <= math.e * c_var / 2.0 * (1 + 1e-9) + 1e-12)


class TestPsiIdentity:
    def test_zero_time(self):
        torus = Torus((5,))
        rates = IndependentRates(torus, 1.0)
        report = psi_identity_check(rates, 0.0, Observable.monomial(torus, [0, 1]))
        assert report.gap < 1e-12

    def test_constant_function(self):
        torus = Torus((5,))
        rates = IndependentRates(torus, 1.0)
        report = psi_identity_check(rates, 0.8, Observable.constant(torus, 3.0), steps=16)
        assert report.gap < 1e-12

    def test_quadrature_order(self):
        torus = Torus((6,))
        rates = GlauberRates(torus, Potential.ising_nn(1, 0.3))
        f = Observable.monomial(torus, [0, 1])
        g32 = psi_identity_check(rates, 0.6, f, steps=32).gap
        g64 = psi_identity_check(rates, 0.6, f, steps=64).gap
        assert g64 < g32
        assert g32 / g64 > 8.0

    def test_odd_steps_rejected(self):
        torus = Torus((4,))
        rates = IndependentRates(torus, 1.0)
        with pytest.raises(ValueError):
            psi_identity_check(rates, 0.5, Observable.monomial(torus, [0]), steps=7)


class TestTheorem31:
    def test_time_zero_reduces_to_the_initial_gcb(self):
        torus = Torus((6,))
        rates = IndependentRates(torus, 1.0)
        fam = TestFunctionFamily.monomials(torus, 2, max_count=12)
        report = theorem31_check(rates, 0.0, uniform_measure(torus), fam, product_gcb_constant())
        assert report.holds
        assert report.inner_constant == pytest.approx(0.0, abs=1e-12)
        assert report.composite_constant == pytest.approx(product_gcb_constant(), abs=1e-12)

    def test_independent_dynamics_grid(self):
        torus = Torus((6,))
        rates = IndependentRates(torus, 1.0)
        fam = TestFunctionFamily.monomials(torus, 2, max_count=10)
        mu = uniform_measure(torus)
        for t in (0.1, 0.5, 1.0):
            report = theorem31_check(rates, t, mu, fam, product_gcb_constant())
            assert report.holds
            assert report.measured_constant <= report.composite_constant + 1e-9

    def test_perturbed_rates_pipeline(self):
        torus = Torus((8,))
        rates = PerturbedRates.pair(torus, 0.1)
        fam = TestFunctionFamily.monomials(torus, 2, max_count=10)
        report = theorem31_check(rates, 0.5, uniform_measure(torus), fam, product_gcb_constant())
        assert report.holds

    def test_gibbs_initial_measure(self):
        potential = Potential.ising_nn(1, 0.2)
        torus = Torus((6,))
        rates = GlauberRates(torus, potential)
        mu = gibbs_measure(potential, torus)
        fam = TestFunctionFamily.monomials(torus, 2, max_count=8)
        report = theorem31_check(rates, 0.3, mu, fam, potential.gcb_constant_dobrushin())
        assert report.holds

    @pytest.mark.parametrize("n", [8, 10])
    def test_flip_symmetry_fixes_single_site_rows(self, n):
        # flip-symmetric rates keep the uniform measure flip-invariant, so
        # under mu S(t) a one-site spin is a fair coin: every row's left side
        # is log cosh lam, the same at lam and -lam
        torus = Torus((n,))
        rates = PerturbedRates.pair(torus, 0.1)
        fam = TestFunctionFamily.monomials(torus, 1)
        for t in (0.25, 0.5, 1.0, 2.0):
            rows = theorem31_check(rates, t, uniform_measure(torus), fam, product_gcb_constant()).rows
            assert len(rows) == n * len(fam.lambda_grid)
            lhs = {(row["label"], row["lam"]): row["lhs"] for row in rows}
            for (label, lam), value in lhs.items():
                assert value == pytest.approx(math.log(math.cosh(lam)), rel=1e-13, abs=0)
                assert value == pytest.approx(lhs[label, -lam], rel=1e-13, abs=0)


    @pytest.mark.parametrize("kind", ["orbits", "random"])
    def test_large_scales_match_logsumexp(self, kind):
        # at lam = +-400, e^{lam f} is past the float range: the shifted
        # reader stays finite and matches the log-sum-exp of a dense expm
        torus = Torus((6,))
        rates = PerturbedRates.pair(torus, 0.1)
        lams = (400.0, -400.0)
        if kind == "orbits":
            fam = TestFunctionFamily.monomials(torus, 2, lambda_grid=lams)
            assert family_summary(rates, fam)["orbits"] < len(fam)
        else:
            fam = TestFunctionFamily.random_combinations(torus, 4, seed=3, lambda_grid=lams)
        mu = product_measure(torus, np.linspace(0.2, 0.7, 6))
        e = expm(0.5 * generator_matrix(rates).toarray())
        d_t, measured, lhs = 0.0, 0.0, []
        for f in fam.members:
            v = f.dense_values()
            l2sq = lipschitz_norm(lipschitz_vector(f), 2.0) ** 2
            for lam in lams:
                d_t = max(d_t, max(log_exponential_moment(row, lam * v) for row in e) / (lam * lam * l2sq))
                lhs.append(log_exponential_moment(mu @ e, lam * v))
                measured = max(measured, lhs[-1] / (lam * lam * l2sq))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = theorem31_check(rates, 0.5, mu, fam, product_gcb_constant())
        assert all(math.isfinite(row[k]) for row in report.rows for k in ("lhs", "rhs"))
        assert report.inner_constant == pytest.approx(d_t, rel=1e-10, abs=0)
        assert report.measured_constant == pytest.approx(measured, rel=1e-10, abs=0)
        assert [row["lhs"] for row in report.rows] == pytest.approx(lhs, rel=1e-10, abs=0)


class TestTheorem52:
    def test_time_zero_reduces_to_the_initial_uvb(self):
        torus = Torus((6,))
        rates = IndependentRates(torus, 1.0)
        fam = TestFunctionFamily.monomials(torus, 2, max_count=12)
        report = theorem52_check(rates, 0.0, uniform_measure(torus), fam, product_uvb_constant())
        assert report.holds
        assert report.inner_constant == pytest.approx(0.0, abs=1e-12)
        assert report.composite_constant == pytest.approx(product_uvb_constant(), abs=1e-12)

    def test_glauber_pipeline(self):
        potential = Potential.ising_nn(1, 0.2)
        torus = Torus((8,))
        rates = GlauberRates(torus, potential)
        mu = gibbs_measure(potential, torus)
        fam = TestFunctionFamily.monomials(torus, 2, max_count=10)
        # Efron-Stein style certified constant for the Gibbs measure: use the
        # Dobrushin GCB constant, which dominates the variance ratio
        c_mu = potential.gcb_constant_dobrushin()
        report = theorem52_check(rates, 0.5, mu, fam, c_mu)
        assert report.holds

    def test_dirac_initial_measure(self):
        torus = Torus((6,))
        rates = IndependentRates(torus, 1.0)
        fam = TestFunctionFamily.monomials(torus, 1)
        start = 13
        report = theorem52_check(rates, 0.4, dirac_vector(torus, start), fam, 0.0)
        assert report.holds
        # the start integral collapses to the single start's constant
        assert report.composite_constant == pytest.approx(report.inner_constant, abs=1e-12)


class TestTheorem53:
    def test_zero_time(self):
        torus = Torus((4,))
        rates = IndependentRates(torus, 1.0)
        result = theorem53_constant(rates, 0.0)
        assert result.constant == 0.0

    def test_independent_closed_form(self):
        # Gamma = 0 so K = 1 and the constant is 2 chat t = 2 t
        torus = Torus((5,))
        rates = IndependentRates(torus, 1.0)
        for t in (0.25, 1.0, 2.0):
            result = theorem53_constant(rates, t)
            assert result.constant == pytest.approx(2.0 * t, rel=1e-9)
        fam = TestFunctionFamily.monomials(torus, 2, max_count=8)
        report = theorem53_check(rates, 0.5, fam)
        assert report.holds
        # single-spin variance under any start is 1 - e^{-4t}
        f = Observable.monomial(torus, [0])
        row0 = engine_for(rates).evolve_measures(dirac_vector(torus, 0), 0.5)
        v = f.dense_values()
        var0 = float((row0 @ v**2) - (row0 @ v) ** 2)
        assert var0 == pytest.approx(1.0 - math.exp(-4.0 * 0.5), abs=1e-10)

    def test_glauber_bound_holds(self):
        torus = Torus((6,))
        rates = GlauberRates(torus, Potential.ising_nn(1, 0.3))
        fam = TestFunctionFamily.monomials(torus, 2, max_count=8)
        report = theorem53_check(rates, 0.5, fam)
        assert report.holds
        assert report.composite_constant == theorem53_constant(rates, 0.5).constant

    def test_non_normal_gamma_raises(self, weighted_cycle):
        # a model that is not translation invariant and whose Gamma is not
        # normal: int_0^t K(s)^2 ds has no closed form, and the check refuses
        family = TestFunctionFamily.monomials(weighted_cycle.torus, 1)
        with pytest.raises(ValueError, match="translation"):
            theorem53_check(weighted_cycle, 3.0, family)


class TestPerStartOracle:
    """The per-start quantities of Theorems 3.1, 5.2 and 5.3 against a dense
    expm(t Q), whose row sigma is delta_sigma S(t), and their measured sides
    against mu S(t) = mu expm(t Q)."""

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_dense_transition_matrix(self, t):
        self.against_dense(PerturbedRates.pair(Torus((6,)), 0.1), t)

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_dense_transition_matrix_unfolded(self, t):
        # the field breaks the flip symmetry, so the engine runs unfolded
        potential = Potential.ising_nn(1, 0.3) + Potential.external_field(1, 0.25)
        rates = GlauberRates(Torus((6,)), potential)
        assert not engine_for(rates).flip_symmetric
        self.against_dense(rates, t)

    @staticmethod
    def against_dense(rates, t, mu=None):
        # the family adds a two-level member with levels 0 and 1, not +-c,
        # and a three-level member; mu defaults to a Gibbs measure
        torus = rates.torus
        mu = gibbs_measure(Potential.ising_nn(1, 0.3), torus).probs if mu is None else mu
        fam = TestFunctionFamily(
            TestFunctionFamily.monomials(torus, 2, max_count=6).members
            + TestFunctionFamily.random_combinations(torus, 3, seed=5).members
            + [Observable(torus, (0,), [0.0, 1.0]), Observable.monomial_sum(torus, [(1.0, [0]), (1.0, [2])])]
        )
        assert [np.unique(f.dense_values()).size for f in fam.members[-2:]] == [2, 3]
        e = expm(t * generator_matrix(rates).toarray())
        mu_t = mu @ e
        states = np.arange(1 << torus.n_sites)
        d_t, c_sigma = 0.0, np.zeros(states.size)
        measured31, lhs31, ratios52, worst53 = 0.0, [], [], []
        for f in fam.members:
            v = f.dense_values()
            l2sq = sum(np.max(np.abs(v[states ^ (1 << i)] - v)) ** 2 for i in torus.sites())
            for lam in fam.lambda_grid:
                logmom = np.log(e @ np.exp(lam * v)) - lam * (e @ v)
                d_t = max(d_t, float(logmom.max()) / (lam * lam * l2sq))
                lhs31.append(float(np.log(mu_t @ np.exp(lam * v)) - lam * (mu_t @ v)))
                measured31 = max(measured31, lhs31[-1] / (lam * lam * l2sq))
            start_var = e @ (v * v) - (e @ v) ** 2
            c_sigma = np.maximum(c_sigma, start_var / l2sq)
            worst53.append(float(start_var.max()) / l2sq)
            ratios52.append(float(mu_t @ (v - mu_t @ v) ** 2) / l2sq)

        assert not hasattr(concentration, "evolve_dirac_matrix")
        r31 = theorem31_check(rates, t, mu, fam, product_gcb_constant())
        r52 = theorem52_check(rates, t, mu, fam, product_uvb_constant())
        r53 = theorem53_check(rates, t, fam)
        assert r31.inner_constant == pytest.approx(d_t, rel=1e-10, abs=1e-13)
        assert r52.inner_constant == pytest.approx(float(mu @ c_sigma), rel=1e-10, abs=1e-13)
        assert r53.measured_constant == pytest.approx(max(worst53), rel=1e-10, abs=1e-13)
        assert [row["ratio"] for row in r53.rows] == pytest.approx(worst53, rel=1e-10, abs=1e-13)
        assert r31.measured_constant == pytest.approx(measured31, rel=1e-10, abs=1e-13)
        assert [row["lhs"] for row in r31.rows] == pytest.approx(lhs31, rel=1e-10, abs=1e-13)
        assert r52.measured_constant == pytest.approx(max(ratios52), rel=1e-10, abs=1e-13)
        assert [row["ratio"] for row in r52.rows] == pytest.approx(ratios52, rel=1e-10, abs=1e-13)


def four_checks(rates, t, mu, family):
    """Theorems 3.1, 5.2 and 5.3 and the square (H, J, C) check, each as a
    zero-argument call"""
    return [
        lambda: theorem31_check(rates, t, mu, family, product_gcb_constant()),
        lambda: theorem52_check(rates, t, mu, family, product_uvb_constant()),
        lambda: theorem53_check(rates, t, family),
        lambda: hjc_check(rates, t, mu, hjc_library("square"), family),
    ]


def law_batches(monkeypatch, rates, mu, family):
    """(measures, width) of every _apply call, per check of four_checks at
    t = 0.5"""
    calls = []
    apply = SemigroupEngine._apply

    def counted(engine, vec, times, measures):
        calls.append((measures, vec.reshape(len(vec), -1).shape[1]))
        return apply(engine, vec, times, measures)

    monkeypatch.setattr(SemigroupEngine, "_apply", counted)
    out = []
    for check in four_checks(rates, 0.5, mu, family):
        calls.clear()
        check()
        out.append(list(calls))
    return out


class TestOneEvolution:
    """Each conservation check evolves its members' law columns once and
    evolves no measure: the measured side reads the same columns by duality.
    A member with L levels evolves L - 1 columns, so a monomial evolves one,
    and only one member of each orbit under the rate automorphisms evolves."""

    @staticmethod
    def batches(monkeypatch, field, fam):
        """(measures, width) of every _apply call, per check"""
        torus = fam.members[0].torus
        potential = Potential.ising_nn(1, 0.3) + Potential.external_field(1, field)
        rates = GlauberRates(torus, potential)
        assert engine_for(rates).flip_symmetric is (field == 0.0)
        return law_batches(monkeypatch, rates, gibbs_measure(potential, torus), fam)

    @pytest.mark.parametrize("field", [0.0, 0.25], ids=["flip-symmetric", "asymmetric"])
    def test_one_function_evolution_per_check(self, monkeypatch, field):
        fam = TestFunctionFamily.random_combinations(Torus((6,)), 4, seed=3)
        n_levels = [np.unique(f.dense_values()).size for f in fam.members]
        assert max(n_levels) > 2
        width = sum(n_levels) - len(n_levels)
        assert self.batches(monkeypatch, field, fam) == [[(False, width)]] * 4

    @pytest.mark.parametrize("field", [0.0, 0.25], ids=["flip-symmetric", "asymmetric"])
    def test_default_monomials_one_column_per_member(self, monkeypatch, field):
        # the command line's default family: on the 6-ring its 40 members
        # fall into 7 orbits under the translations and reflections, which
        # the field keeps
        fam = TestFunctionFamily.monomials(Torus((6,)), 3)
        assert len(fam) == 40
        assert self.batches(monkeypatch, field, fam) == [[(False, 7)]] * 4


def six_checks(family):
    """The six family scans, each as a zero-argument call, at t = 0.5."""
    torus = family.members[0].torus
    rates = PerturbedRates.pair(torus, 0.1)
    mu = uniform_measure(torus)
    return four_checks(rates, 0.5, mu, family) + [
        lambda: empirical_gcb_constant(mu, family),
        lambda: check_uvb(mu, family),
    ]


def member_route(rates):
    """rates with the identity as their only automorphism, so that every
    member of a family evolves and reads its own laws"""
    rates.__dict__["automorphisms"] = np.arange(rates.torus.n_sites)[None, :]
    return rates


def assert_same_reports(got, want):
    """Two lists of theorem reports agree to 1e-12 relative, with equal
    labels, holds and row verdicts"""
    for a, b in zip(got, want, strict=True):
        for key in ("k_t", "c_mu", "inner_constant", "composite_constant", "measured_constant"):
            assert getattr(a, key) == pytest.approx(getattr(b, key), rel=1e-12, abs=1e-15), key
        assert a.holds == b.holds
        assert [(r["label"], r["ok"]) for r in a.rows] == [(r["label"], r["ok"]) for r in b.rows]
        for key in a.rows[0].keys() - {"label", "ok"}:
            assert [r[key] for r in a.rows] == pytest.approx([r[key] for r in b.rows], rel=1e-12, abs=1e-15), key


class TestOrbitRoute:
    """A member that is an earlier one moved by a rate automorphism reads
    that representative's laws: start maxima copied, per-start vectors and
    the start measure moved.  Every report matches the per-member route, in
    which each member evolves its own columns, and the dense oracle where
    2^N allows, with no invariance of the start measure assumed."""

    @staticmethod
    def compare(build_rates, mu, family, t=0.5):
        got = [check() for check in four_checks(build_rates(), t, mu, family)]
        want = [check() for check in four_checks(member_route(build_rates()), t, mu, family)]
        assert_same_reports(got, want)
        return got

    def test_dirac_start(self):
        torus = Torus((6,))
        build = lambda: PerturbedRates.pair(torus, 0.1)
        mu = dirac_vector(torus, 0b001101)
        family = TestFunctionFamily.monomials(torus, 2)
        assert family_summary(build(), family) == {"members": 21, "orbits": 4, "law_columns": 4}
        reports = self.compare(build, mu, family)
        # the translates of sigma_0 read different laws from this start
        assert len({round(row["lhs"], 12) for row in reports[0].rows[:6 * len(family.lambda_grid)]}) > 8
        TestPerStartOracle.against_dense(build(), 0.5, mu)

    def test_family_that_leaves_a_translate_out(self):
        # 8 one-site members and 12 of the 28 pairs: no pair orbit is whole
        torus = Torus((8,))
        build = lambda: PerturbedRates.pair(torus, 0.1)
        family = TestFunctionFamily.monomials(torus, 3, max_count=20)
        assert family_summary(build(), family) == {"members": 20, "orbits": 5, "law_columns": 5}
        mu = product_measure(torus, np.linspace(0.2, 0.7, 8))
        self.compare(build, mu, family)
        # the pairs alone, whose maxima over members at a start no whole
        # orbit covers, so Theorem 5.2's start integral reads each member's
        # map in its direction
        self.compare(build, mu, TestFunctionFamily(family.members[8:]))

    def test_one_orbit_takes_the_narrow_route(self, monkeypatch):
        # the 14 one-site monomials evolve one column, which steps on the
        # orbits of its stabilizer: the reflection through site 0 and the flip
        torus = Torus((14,))
        pot = Potential.ising_nn(1, 0.3)
        family = TestFunctionFamily.monomials(torus, 1)
        mu = product_measure(torus, np.linspace(0.1, 0.8, 14))
        rates = GlauberRates(torus, pot)
        assert family_summary(rates, family) == {"members": 14, "orbits": 1, "law_columns": 1}
        assert law_batches(monkeypatch, rates, mu, family) == [[(False, 1)]] * 4
        assert [q["order"] for q in engine_for(rates).summary()["quotients"]] == [4]
        monkeypatch.undo()
        self.compare(lambda: GlauberRates(torus, pot), mu, family)

    def test_site_dependent_rates_evolve_every_member(self, monkeypatch):
        # a site-dependent own-spin bias next to a symmetric pair term: Gamma
        # is symmetric, hence normal, and the identity is the only automorphism
        torus = Torus((6,))
        rates = CustomRates(
            torus,
            lambda i: (i, (i - 1) % 6, (i + 1) % 6),
            lambda i, s: 1.0 + 0.05 * (i + 1) * spin(s, i) + 0.1 * spin(s, i - 1) * spin(s, i + 1),
        )
        assert len(rates.automorphisms) == 1
        family = TestFunctionFamily.monomials(torus, 3)
        assert family_summary(rates, family) == {"members": 40, "orbits": 40, "law_columns": 40}
        mu = gibbs_measure(Potential.ising_nn(1, 0.3), torus).probs
        assert law_batches(monkeypatch, rates, mu, family) == [[(False, 40)]] * 4
        TestPerStartOracle.against_dense(rates, 0.5)


class TestConstantMembers:
    """A constant member has ||delta f||_2 = 0, so every scan skips it."""

    def test_constant_member_is_skipped(self):
        torus = Torus((4,))
        sigma0 = Observable.monomial(torus, [0])
        mixed = [check() for check in six_checks(TestFunctionFamily([sigma0, Observable.constant(torus, 2.0)]))]
        alone = [check() for check in six_checks(TestFunctionFamily([sigma0]))]
        assert mixed == alone
        assert all(report.holds for report in mixed)

    @pytest.mark.parametrize("index", range(6))
    def test_all_constant_family_rejected(self, index):
        torus = Torus((4,))
        family = TestFunctionFamily([Observable.constant(torus, 2.0), Observable.constant(torus, -1.0)])
        with pytest.raises(ValueError, match="only constant functions"):
            six_checks(family)[index]()


class TestHJC:
    def test_library_shapes(self):
        sq = hjc_library("square")
        assert sq.j_inv(sq.j(1.7)) == pytest.approx(1.7)
        ex = hjc_library("exponential")
        assert ex.j_inv(ex.j(0.9)) == pytest.approx(0.9)
        p4 = hjc_library("abs_p:4")
        assert p4.h(-2.0) == 16.0

    @pytest.mark.parametrize("p", ["nan", "inf", "0.5"])
    def test_abs_p_outside_its_range_rejected(self, p):
        # a nan p passes p < 1 and J's roundtrip check, and J would read nan
        with pytest.raises(ValueError, match=re.escape(ABS_P_RANGE)):
            hjc_library(f"abs_p:{p}")

    def test_nonconvex_h_rejected(self):
        with pytest.raises(ValueError):
            HJCSpec(np.sin, lambda y: y, lambda y: y)

    def test_nonmonotone_j_rejected(self):
        with pytest.raises(ValueError):
            HJCSpec(lambda x: x * x, lambda y: -y, lambda y: -y)

    @staticmethod
    def at_time_zero(mu, f, spec):
        """hjc_check at t = 0 on the single member f at scale 1, where every
        row's left side is int H(f - E f) dmu."""
        torus = f.torus
        family = TestFunctionFamily([f], lambda_grid=(1.0,))
        return hjc_check(IndependentRates(torus, 1.0), 0.0, mu, spec, family)

    def test_fourth_moment_example(self):
        # one uniform spin: E |sigma|^4 = 1 = (C ||delta f||_2)^4 at C = 1/2,
        # the measured constant of the initial measure
        torus = Torus((1,))
        report = self.at_time_zero(uniform_measure(torus), Observable.monomial(torus, [0]), hjc_library("abs_p:4"))
        assert report.rows[0]["lhs"] == pytest.approx(1.0)
        assert report.c_mu == pytest.approx(0.5)
        assert report.holds

    def test_square_reduces_to_variance(self):
        torus = Torus((4,))
        mu = uniform_measure(torus)
        f = Observable.monomial(torus, [0, 2])
        report = self.at_time_zero(mu, f, hjc_library("square"))
        assert report.rows[0]["lhs"] == pytest.approx(variance(mu, f.dense_values()), abs=1e-12)
        assert report.holds

    def test_dirac_left_side_vanishes(self):
        torus = Torus((3,))
        report = self.at_time_zero(dirac_vector(torus, 1), Observable.monomial(torus, [0]), hjc_library("square"))
        assert report.rows[0]["lhs"] == 0.0

    def test_pipeline_square(self):
        torus = Torus((6,))
        rates = IndependentRates(torus, 1.0)
        fam = TestFunctionFamily.monomials(torus, 2, max_count=8)
        spec = hjc_library("square")
        report = hjc_check(rates, 0.5, uniform_measure(torus), spec, fam)
        assert report.holds

    @pytest.mark.parametrize(
        "rates, t",
        [(IndependentRates(Torus((6,)), 1.0), 50.0), (PerturbedRates.pair(Torus((6,)), 0.1), 20.0)],
        ids=["independent-50", "perturbed-20"],
    )
    def test_a_member_constant_to_rounding_bounds_nothing(self, rates, t):
        # the conserve defaults on a 6-ring (uniform start, 40 monomials of
        # up to 3 sites, square (H, J)): by these times some evolved members
        # are constant to rounding, with Lipschitz norm exactly 0, and 0 <=
        # J(0) leaves C_out to the others
        torus = rates.torus
        family = TestFunctionFamily.monomials(torus, 3, max_count=40)
        _, laws = concentration._member_laws(rates, t, family)
        assert np.any(laws.mean_lipschitz() == 0.0) and np.any(laws.mean_lipschitz() > 0.0)
        report = hjc_check(rates, t, uniform_measure(torus), hjc_library("square"), family)
        assert report.holds
        assert math.isfinite(report.c_mu) and math.isfinite(report.composite_constant)

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_dense_transition_matrix(self, t):
        # C_start, C_out and every row's left side from a dense expm(t Q),
        # whose row sigma is delta_sigma S(t), with H applied entrywise
        torus = Torus((6,))
        rates = PerturbedRates.pair(torus, 0.1)
        probs = gibbs_measure(Potential.ising_nn(1, 0.3), torus).probs
        fam = TestFunctionFamily(
            TestFunctionFamily.monomials(torus, 2, max_count=6).members
            + TestFunctionFamily.random_combinations(torus, 3, seed=5).members
        )
        e = expm(t * generator_matrix(rates).toarray())
        mu_t = probs @ e
        states = np.arange(1 << torus.n_sites)

        def l2(v):
            return math.sqrt(sum(np.max(np.abs(v[states ^ (1 << i)] - v)) ** 2 for i in torus.sites()))

        for name in ("square", "exponential", "abs_p:4"):
            spec = hjc_library(name)
            h = np.vectorize(spec.h, otypes=[float])
            c_start, c_out, lhs = 0.0, 0.0, []
            for f in fam.members:
                v = f.dense_values()
                for lam in fam.lambda_grid:
                    x = lam * v
                    g = e @ x
                    inner = np.sum(e * h(2.0 * (x[None, :] - g[:, None])), axis=1)
                    c_start = max(c_start, spec.j_inv(float(inner.max())) / (2.0 * l2(x)))
                    c_out = max(c_out, spec.j_inv(float(probs @ h(2.0 * (g - probs @ g)))) / (2.0 * l2(g)))
                    lhs.append(float(mu_t @ h(x - mu_t @ x)))
            report = hjc_check(rates, t, probs, spec, fam)
            assert report.inner_constant == pytest.approx(c_start, rel=1e-10, abs=1e-13)
            assert report.c_mu == pytest.approx(c_out, rel=1e-10, abs=1e-13)
            assert [row["lhs"] for row in report.rows] == pytest.approx(lhs, rel=1e-10, abs=1e-13)
        assert not hasattr(concentration, "evolve_dirac_matrix")

    def test_j_past_the_float_range_reads_inf(self):
        # exponential J = e^y - 1 overflows at y > 709.8: such a bound is
        # vacuous, so its row holds with rhs = inf
        torus = Torus((8,))
        pot = Potential.ising_nn(1, 0.3)
        fam = TestFunctionFamily.random_combinations(torus, 40, seed=0)
        spec = hjc_library("exponential")
        report = hjc_check(GlauberRates(torus, pot), 2.0, gibbs_measure(pot, torus).probs, spec, fam)
        vacuous = [row for row in report.rows if row["rhs"] == math.inf]
        assert vacuous and all(row["ok"] for row in vacuous)

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_h_past_the_float_range_reads_inf(self, t):
        # cosh(2 lam (f - E f)) - 1 overflows at lam = 400, so the bound reads
        # inf and every row holds vacuously; at t = 0 each start's law is a
        # point mass, whose unrealized level adds 0, not 0 * inf
        torus = Torus((4,))
        fam = TestFunctionFamily.monomials(torus, 1, lambda_grid=(400.0,))
        spec = hjc_library("exponential")
        report = hjc_check(IndependentRates(torus, 1.0), t, uniform_measure(torus), spec, fam)
        assert report.inner_constant == (0.0 if t == 0 else math.inf)
        assert [row["rhs"] for row in report.rows] == [math.inf] * len(fam)
        assert report.holds

    def test_outer_constant_weighs_charged_starts_only(self):
        # from a point mass the outer H overflows at every other start, whose
        # weight 0 must add 0, not 0 * inf = NaN: the point mass has no
        # spread, so C_mu reads 0
        torus = Torus((4,))
        fam = TestFunctionFamily.monomials(torus, 1, lambda_grid=(1000.0,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = hjc_check(
                IndependentRates(torus, 1.0), 0.5, dirac_vector(torus, 3), hjc_library("exponential"), fam
            )
        assert report.c_mu == 0.0
        assert report.holds
        assert not any(math.isnan(row[k]) for row in report.rows for k in ("lhs", "rhs"))

    def test_pipeline_fourth_power(self):
        torus = Torus((5,))
        rates = PerturbedRates.pair(torus, 0.1)
        fam = TestFunctionFamily.monomials(torus, 1, lambda_grid=(0.5, -0.5, 1.0))
        spec = hjc_library("abs_p:4")
        report = hjc_check(rates, 0.4, uniform_measure(torus), spec, fam)
        assert report.holds


class TestScanLaws:
    """The GCB/UVB scans read each member's law under the measure from its
    support marginal; every row against the dense log-sum-exp and variance
    oracles over all 2^N states."""

    @staticmethod
    def family(torus, lambda_grid=DEFAULT_LAMBDA_GRID):
        # a member built from unsorted sites, one with more than two levels,
        # and a bitwise copy of that one, a new object
        members = TestFunctionFamily.monomials(torus, 2, max_count=10).members + [
            Observable.monomial(torus, [5, 2]),
            Observable.monomial_sum(torus, [(1.0, [0]), (0.5, [3, 6]), (-0.25, [1, 4, 7])]),
        ]
        members.append(Observable(torus, members[-1].support, members[-1].table))
        assert np.unique(members[-1].table).size >= 3
        return TestFunctionFamily(members, lambda_grid)

    @pytest.mark.parametrize("kind", ["product", "gibbs", "evolved"])
    def test_rows_match_the_dense_oracles(self, kind):
        torus = Torus((8,))
        pot = Potential.ising_nn(1, 0.3)
        mu = {
            "product": lambda: product_measure(torus, 0.3),
            "gibbs": lambda: gibbs_measure(pot, torus).probs,
            "evolved": lambda: engine_for(GlauberRates(torus, pot)).evolve_measures(product_measure(torus, 0.3), 0.5),
        }[kind]()
        fam = self.family(torus)
        gcb, uvb = empirical_gcb_constant(mu, fam), check_uvb(mu, fam)
        want_gcb, want_uvb = [], []
        for f in fam.members:
            v = f.dense_values()
            l2sq = lipschitz_norm(lipschitz_vector(f), 2.0) ** 2
            want_gcb += [log_exponential_moment(mu, lam * v) / (lam * lam * l2sq) for lam in fam.lambda_grid]
            want_uvb.append(variance(mu, v) / l2sq)
        assert [row["ratio"] for row in gcb.rows] == pytest.approx(want_gcb, rel=1e-12, abs=0)
        assert [row["ratio"] for row in uvb.rows] == pytest.approx(want_uvb, rel=1e-12, abs=0)
        assert [row["lam"] for row in gcb.rows] == list(fam.lambda_grid) * len(fam)
        assert [row["label"] for row in uvb.rows] == [label for label, _ in fam.labeled()]

    @pytest.mark.parametrize("start", ["dirac", "all_minus"])
    def test_point_masses_read_zero_at_large_scales(self, start):
        # a level of no mass adds e^{-inf} = 0, so the realized level's term
        # does not underflow against a larger lam l of an unrealized level
        torus = Torus((8,))
        mu = dirac_vector(torus, 0b10110010) if start == "dirac" else product_measure(torus, 0.0)
        fam = self.family(torus, lambda_grid=(400.0, -400.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = [empirical_gcb_constant(mu, fam), check_uvb(mu, fam)]
            t31 = theorem31_check(IndependentRates(torus, 1.0), 0.0, mu, fam, product_gcb_constant())
        assert [row["ratio"] for report in reports for row in report.rows] == [0.0] * (4 * len(fam))
        assert [row["lhs"] for row in t31.rows] == [0.0] * (3 * len(fam))
        assert t31.inner_constant == 0.0 and t31.measured_constant == 0.0 and t31.holds

    def test_a_copy_reads_the_rows_of_its_original(self):
        torus = Torus((8,))
        fam = self.family(torus)
        *_, (original, _), (copy, _) = fam.labeled()
        mu = gibbs_measure(Potential.ising_nn(1, 0.3), torus)
        for report in (empirical_gcb_constant(mu, fam), check_uvb(mu, fam)):
            rows = {}
            for row in report.rows:
                rows.setdefault(row["label"], []).append((row["lam"], row["ratio"], row["lipschitz_sq"]))
            assert rows[copy] == rows[original]

    def test_two_scans_prepare_each_member_once(self, monkeypatch):
        # the copy joins its original, so it is not prepared at all
        torus = Torus((8,))
        fam = self.family(torus)
        prepared = []

        def counted(f):
            prepared.append(f)
            return lipschitz_vector(f)

        monkeypatch.setattr(concentration, "lipschitz_vector", counted)
        mu = product_measure(torus, 0.3)
        empirical_gcb_constant(mu, fam)
        check_uvb(mu, fam)
        assert len(prepared) == len(fam) - 1
        assert all(a is b for a, b in zip(prepared, fam.members))

    def test_no_member_is_read_at_every_state(self, monkeypatch):
        torus = Torus((6,))
        pot = Potential.ising_nn(1, 0.3)
        mu = gibbs_measure(pot, torus)
        fam = TestFunctionFamily.random_combinations(torus, 6, seed=4)

        def refused(self):
            raise AssertionError("a scan read a member at every state")

        monkeypatch.setattr(Observable, "dense_values", refused)
        assert empirical_gcb_constant(mu, fam).rows
        assert check_uvb(mu, fam).rows
