import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.special import ive

import spinflip
from spinflip import dynamics
from spinflip.dynamics import (
    CustomRates,
    GlauberRates,
    IndependentRates,
    PerturbedRates,
    SemigroupEngine,
    _SYMMETRY_RTOL,
    _chebyshev_coefficients,
    _Fold,
    _steps_by_row,
    engine_for,
    gamma_matrix,
    generator_matrix,
    k_of_t,
    validate_conditions,
)
from spinflip.concentration import TestFunctionFamily, theorem31_check
from spinflip.gibbs import BoundaryCondition, Potential, gibbs_measure
from spinflip.lattice import (
    Observable,
    Torus,
    lipschitz_vector,
    lipschitz_vector_dense,
    monomial_values_dense,
    permute_states,
)


def detailed_balance_residual(rates, probs):
    """max |c(i,s) mu(s) - c(i,s^i) mu(s^i)| over sites and states, rates
    read one Python-int state at a time: zero iff mu is reversible."""
    n = rates.torus.n_sites
    return max(
        abs(rates.rate(i, s) * probs[s] - rates.rate(i, s ^ (1 << i)) * probs[s ^ (1 << i)])
        for i in range(n)
        for s in range(1 << n)
    )


def ergodicity(rates):
    """(eps, M): eps = inf over i and sigma of c(i, sigma) + c(i, sigma^i),
    and M the largest off-diagonal row sum of Gamma.  For M < eps,
    ||delta S(t) f||_2^2 <= e^{-alpha t} ||delta f||_2^2 with
    alpha = 2 (eps - M)."""
    c = rates.rate_matrix()
    states = np.arange(c.shape[1])
    eps = min(float(np.min(row + row[states ^ (1 << i)])) for i, row in enumerate(c))
    g = gamma_matrix(rates).matrix
    return eps, float(np.max(g.sum(axis=1) - np.diag(g)))


def assert_lipschitz_decay(rates, alpha, t, seed=7):
    """||delta S(t) f||_2^2 <= e^{-alpha t} ||delta f||_2^2 on the exact
    semigroup, for three seeded random local functions f."""
    n = rates.torus.n_sites
    rng = np.random.default_rng(seed)
    for _ in range(3):
        sites = tuple(int(s) for s in rng.choice(n, size=int(rng.integers(1, min(3, n) + 1)), replace=False))
        f = Observable.monomial_sum(rates.torus, [(float(rng.normal()), sites), (float(rng.normal()), sites[:1])])
        d0 = np.sum(lipschitz_vector(f) ** 2)
        dt = np.sum(lipschitz_vector_dense(n, engine_for(rates).evolve_functions(f.dense_values(), t)) ** 2)
        assert dt <= np.exp(-alpha * t) * d0 + 1e-8 * max(1.0, d0)


def random_measure(n_states, rng):
    p = rng.random(n_states) + 1e-3
    return p / p.sum()


def uniformized_sum(op, vec, weights):
    """sum_k weights[k] op^k vec, term by term: the reference for one t."""
    acc, cur = weights[0] * vec, vec
    for w in weights[1:]:
        cur = op @ cur
        acc = acc + w * cur
    return acc


def full_p(engine):
    """The full 2^N x 2^N uniformized operator I + Q / lam of an engine's rates."""
    q = generator_matrix(engine.rates)
    return (sp.identity(engine.n_states, format="csr") + q / engine.lam).tocsr()


def model_zoo(torus):
    return [
        IndependentRates(torus, 1.0),
        GlauberRates(torus, Potential.ising_nn(torus.dim, 0.3)),
        PerturbedRates.pair(torus, 0.2),
    ]


class TestRateModels:
    def test_independent_rate_constant(self):
        t = Torus((5,))
        rates = IndependentRates(t, 2.5)
        for s in (0, 7, 31):
            assert rates.rate(2, s) == 2.5
        assert rates.min_rate() == rates.max_rate() == 2.5
        assert rates.interaction_range() == 0

    def test_glauber_rate_closed_form(self):
        # 1D Ising: c(i, sigma) = exp(-beta sigma_i (sigma_{i-1} + sigma_{i+1}))
        beta = 0.3
        t = Torus((6,))
        rates = GlauberRates(t, Potential.ising_nn(1, beta))
        rng = np.random.default_rng(0)
        for _ in range(30):
            s = int(rng.integers(0, 64))
            i = int(rng.integers(0, 6))
            spin = lambda j: 1 if (s >> (j % 6)) & 1 else -1
            want = np.exp(-beta * spin(i) * (spin(i - 1) + spin(i + 1)))
            assert rates.rate(i, s) == pytest.approx(want, rel=1e-12)

    def test_glauber_min_max_rates(self):
        beta = 0.25
        t = Torus((6,))
        rates = GlauberRates(t, Potential.ising_nn(1, beta))
        assert rates.min_rate() == pytest.approx(np.exp(-2 * beta))
        assert rates.max_rate() == pytest.approx(np.exp(2 * beta))
        assert rates.interaction_range() == 1

    def test_perturbed_rates(self):
        t = Torus((5,))
        rates = PerturbedRates.pair(t, 0.2)
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = int(rng.integers(0, 32))
            i = int(rng.integers(0, 5))
            spin = lambda j: 1 if (s >> (j % 5)) & 1 else -1
            assert rates.rate(i, s) == pytest.approx(1 + 0.2 * spin(i) * spin(i + 1))
        assert rates.eps0 == pytest.approx(0.2)

    def test_perturbed_bound_enforced(self):
        t = Torus((4,))
        with pytest.raises(ValueError):
            PerturbedRates.pair(t, 1.0)

    def test_validate_conditions(self):
        t = Torus((6,))
        for rates in model_zoo(t):
            rep = validate_conditions(rates)
            assert rep.ok
            assert rep.positive and rep.min_rate > 0
            assert rep.translation_invariant
        bad = CustomRates(t, lambda i: (i,), lambda i, s: -1.0 if i == 0 else 1.0)
        rep = validate_conditions(bad)
        assert not rep.positive and not rep.ok

    @pytest.mark.parametrize("weights", ["site-dependent", "uniform"])
    def test_translation_invariance_is_read_from_the_tables(self, weights):
        # read from the tables on a 14-site ring: a rate whose weight varies
        # from site to site is not translation invariant, a uniform one is
        n = 14
        a = [0.1 + 0.02 * i if weights == "site-dependent" else 0.1 for i in range(n)]
        rates = CustomRates(
            Torus((n,)),
            lambda i: (i, (i + 1) % n),
            lambda i, s: 1.0 + a[i] * (1.0 if s >> ((i + 1) % n) & 1 else -1.0),
        )
        uniform = weights == "uniform"
        rep = validate_conditions(rates)
        assert rates.translation_invariant is rep.translation_invariant is uniform
        assert rep.positive and rep.ok is uniform
        assert len(rates.automorphisms) == (n if uniform else 1)

    def test_automorphisms_ignore_listed_sites_the_table_does_not_read(self):
        # c(i, .) = 1 + 0.2 sigma_{i+1} on a 6-ring, listed once with only
        # i + 1 at every site, and with site 0 also listing itself or the
        # farther site 3: the same rates, so the same dependence, range,
        # automorphisms and conditions
        n = 6
        rate = lambda i, s: 1.0 + 0.2 * (1.0 if s >> ((i + 1) % n) & 1 else -1.0)
        plain = CustomRates(Torus((n,)), lambda i: ((i + 1) % n,), rate)
        assert len(plain.automorphisms) == n and plain.interaction_range() == 1
        for extra in (0, 3):
            padded = CustomRates(Torus((n,)), lambda i: (extra, 1) if i == 0 else ((i + 1) % n,), rate)
            assert padded.dependence(0) == (1,)
            assert padded.interaction_range() == 1
            assert np.array_equal(plain.rate_matrix(), padded.rate_matrix())
            assert np.array_equal(padded.automorphisms, plain.automorphisms)
            assert validate_conditions(padded) == validate_conditions(plain)
            assert validate_conditions(padded).ok and padded.translation_invariant

    def test_repeated_sites_read_the_diagonal(self):
        # on a side-2 ring the offsets 0 and 2 land on the same site, whose
        # two key bits read the diagonal of the table: the same structure as
        # the rates listing each read site once
        torus = Torus((2,))
        repeated = PerturbedRates(torus, ((0,), (1,), (2,)), np.linspace(-0.7, 0.7, 8))
        once = CustomRates(torus, lambda i: (i, (i + 1) % 2), repeated.rate)
        assert np.array_equal(repeated.rate_matrix(), once.rate_matrix())
        assert repeated.min_rate() == once.min_rate() and repeated.max_rate() == once.max_rate()
        assert np.array_equal(gamma_matrix(repeated).matrix, gamma_matrix(once).matrix)
        assert np.array_equal(repeated.automorphisms, once.automorphisms)
        assert [repeated.dependence(i) for i in range(2)] == [once.dependence(i) for i in range(2)] == [(0, 1)] * 2

    def test_glauber_tables_are_bitwise_symmetric(self):
        # each site sums its terms' energy differences in sorted order, so
        # every automorphism of the 4x4 torus maps the table to itself bit
        # for bit: c(g[i], g(s)) = c(i, s)
        torus = Torus((4, 4))
        c = GlauberRates(torus, Potential.ising_nn(2, 0.6)).rate_matrix()
        states = np.arange(c.shape[1])
        autos = torus.automorphisms()
        assert len(autos) == 128
        for g in autos:
            moved = permute_states(states, torus.n_sites, g)
            assert all(np.array_equal(c[g[i]][moved], c[i]) for i in torus.sites())
        rep = validate_conditions(GlauberRates(Torus((3, 4)), Potential.ising_nn(2, 0.6)))
        assert rep.translation_invariant and rep.ok


    def test_engine_rejects_negative_rates(self):
        torus = Torus((4,))
        signed = CustomRates(torus, lambda i: (i, (i + 1) % 4), lambda i, bits: 1.0 if (bits >> i) & 1 else -0.5)
        with pytest.raises(ValueError):
            SemigroupEngine(signed)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_engine_rejects_non_finite_rates(self, bad):
        torus = Torus((4,))
        rates = CustomRates(torus, lambda i: (i,), lambda i, bits: bad if i == 2 and bits else 1.0)
        with pytest.raises(ValueError, match="non-finite rate"):
            SemigroupEngine(rates)

    def test_glauber_refuses_energy_differences_past_the_float_range(self):
        # at beta = 1e308 the energy differences overflow: a named error,
        # built without numpy's overflow or invalid-value warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            potential = Potential.ising_nn(1, 1e308)
            with pytest.raises(ValueError, match="not finite"):
                GlauberRates(Torus((4,)), potential)

    @pytest.mark.parametrize("t", [1e300, 1e308])
    def test_poisson_mean_past_the_quantile_range(self, t):
        # pdtrik returns NaN once lam t reaches about 1e15: a named error, not
        # a failed integer conversion
        engine = SemigroupEngine(PerturbedRates.pair(Torus((4,)), 0.1))
        with pytest.raises(ValueError, match="quantile"):
            engine.poisson_weights(t)


class TestGenerator:
    def test_rows_sum_to_zero(self):
        t = Torus((4,))
        for rates in model_zoo(t):
            q = generator_matrix(rates)
            assert np.allclose(np.asarray(q.sum(axis=1)).ravel(), 0.0, atol=1e-13)

    def test_offdiagonal_entries_are_rates(self):
        t = Torus((4,))
        rates = GlauberRates(t, Potential.ising_nn(1, 0.3))
        q = generator_matrix(rates).toarray()
        rng = np.random.default_rng(2)
        for _ in range(30):
            s = int(rng.integers(0, 16))
            i = int(rng.integers(0, 4))
            assert q[s, s ^ (1 << i)] == pytest.approx(rates.rate(i, s))

    def test_generator_apply_matches_matrix(self):
        # L f(s) = sum_i c(i, s) (f(s ^ 2^i) - f(s)), state by state
        t = Torus((5,))
        rng = np.random.default_rng(3)
        for rates in model_zoo(t):
            q = generator_matrix(rates)
            for _ in range(5):
                sites = tuple(rng.choice(5, size=rng.integers(1, 3), replace=False))
                f = Observable.monomial_sum(
                    t, [(float(rng.normal()), sites), (float(rng.normal()), (int(sites[0]),))]
                )
                want = [sum(rates.rate(i, s) * (f(s ^ (1 << i)) - f(s)) for i in range(5)) for s in range(32)]
                assert np.allclose(q @ f.dense_values(), want, atol=1e-12)

    def test_generator_apply_support_growth(self):
        # L sigma_3 reads only the sites within the interaction range of 3
        t = Torus((8,))
        rates = GlauberRates(t, Potential.ising_nn(1, 0.2))
        lf = generator_matrix(rates) @ Observable.monomial(t, (3,)).dense_values()
        assert set(np.flatnonzero(lipschitz_vector_dense(8, lf) > 1e-12)) <= {2, 3, 4}

    def test_constants_are_killed(self):
        t = Torus((4,))
        for rates in model_zoo(t):
            assert np.allclose(generator_matrix(rates) @ np.full(16, 3.5), 0.0)


class TestSemigroup:
    def test_matches_dense_expm_functions(self):
        t = Torus((4,))
        rng = np.random.default_rng(4)
        for rates in model_zoo(t):
            q = generator_matrix(rates).toarray()
            f = rng.normal(size=16)
            for tt in (0.15, 0.8, 2.0):
                want = scipy.linalg.expm(tt * q) @ f
                got = engine_for(rates).evolve_functions(f, tt)
                assert np.allclose(got, want, atol=1e-11)

    def test_matches_dense_expm_measures(self):
        t = Torus((4,))
        rng = np.random.default_rng(5)
        for rates in model_zoo(t):
            q = generator_matrix(rates).toarray()
            mu = random_measure(16, rng)
            for tt in (0.3, 1.1):
                want = mu @ scipy.linalg.expm(tt * q)
                got = engine_for(rates).evolve_measures(mu, tt)
                assert np.allclose(got, want, atol=1e-11)

    def test_probability_preserved(self):
        t = Torus((5,))
        rng = np.random.default_rng(6)
        for rates in model_zoo(t):
            mu = random_measure(32, rng)
            nu = engine_for(rates).evolve_measures(mu, 1.7)
            assert np.all(nu >= -1e-15)
            assert nu.sum() == pytest.approx(1.0, abs=1e-12)

    def test_poisson_weights_cached_read_only(self):
        rates = GlauberRates(Torus((4,)), Potential.ising_nn(1, 0.4))
        engine = SemigroupEngine(rates)
        w = engine.poisson_weights(0.7)
        assert engine.poisson_weights(np.float64(0.7)) is w
        assert not w.flags.writeable
        assert np.array_equal(w, SemigroupEngine(rates).poisson_weights(0.7))
        f = np.arange(16.0)
        assert np.array_equal(engine.evolve_functions(f, 0.7), SemigroupEngine(rates).evolve_functions(f, 0.7))

    def test_grid_pass_equals_single_times(self):
        rates = GlauberRates(Torus((2, 3)), Potential.ising_nn(2, 0.5))
        engine = engine_for(rates)
        rng = np.random.default_rng(15)
        times = [0.9, 0.0, 0.3, 0.9, 2.2]
        for probs in (random_measure(64, rng), np.stack([random_measure(64, rng) for _ in range(3)])):
            grid = engine.evolve_measures_over(probs, times)
            assert grid.shape == (len(times),) + probs.shape
            for j, t in enumerate(times):
                assert np.array_equal(grid[j], engine.evolve_measures(probs, t))
                want = uniformized_sum(full_p(engine).T, probs.T, engine.poisson_weights(t)).T
                assert np.abs(grid[j] - want).sum(axis=-1).max() <= 1e-13
        with pytest.raises(ValueError):
            engine.evolve_measures_over(probs, [0.5, -0.1])
        with pytest.raises(ValueError):
            engine.evolve_measures_over(probs, [])

    def test_poisson_weights_follow_the_quantile_rule(self):
        # the truncation point is poisson.isf(tail_tol, m) + 2, doubled on
        # until the tail mass is below tail_tol
        from scipy.special import gammaln
        from scipy.stats import poisson

        engine = SemigroupEngine(IndependentRates(Torus((2,)), 1.0))
        for m in np.geomspace(1e-6, 5e3, 4000):
            k_max = int(poisson.isf(engine.tail_tol, m)) + 2
            while poisson.sf(k_max, m) > engine.tail_tol:
                k_max = 2 * k_max + 8
            k = np.arange(k_max + 1)
            want = np.exp(-m + k * np.log(m) - gammaln(k + 1))
            assert np.array_equal(engine._poisson_weights(m), want), m

    def test_importing_the_package_skips_scipy_stats(self):
        code = "import sys, spinflip.cli; print('scipy.stats' in sys.modules)"
        src = str(Path(spinflip.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    def test_one_stored_operator(self):
        engine = SemigroupEngine(GlauberRates(Torus((5,)), Potential.ising_nn(1, 0.4)))
        assert not hasattr(engine, "q")
        # P^T is a second CSR on P's index structure, with its own data
        assert engine.pt.format == "csr"
        assert np.shares_memory(engine.pt.indices, engine.p.indices)
        assert np.shares_memory(engine.pt.indptr, engine.p.indptr)
        assert np.array_equal(engine.pt.toarray(), engine.p.toarray().T)

    def test_semigroup_law(self):
        t = Torus((4,))
        rng = np.random.default_rng(7)
        for rates in model_zoo(t):
            f = rng.normal(size=16)
            a = engine_for(rates).evolve_functions(engine_for(rates).evolve_functions(f, 0.4), 0.9)
            b = engine_for(rates).evolve_functions(f, 1.3)
            assert np.allclose(a, b, atol=1e-11)

    def test_duality(self):
        # <mu S(t), f> = <mu, S(t) f>
        t = Torus((5,))
        rng = np.random.default_rng(8)
        for rates in model_zoo(t):
            mu = random_measure(32, rng)
            f = rng.normal(size=32)
            lhs = engine_for(rates).evolve_measures(mu, 0.8) @ f
            rhs = mu @ engine_for(rates).evolve_functions(f, 0.8)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_independent_spectral_law(self):
        # S(t) sigma_A = exp(-2 r |A| t) sigma_A
        t = Torus((2, 3))
        rates = IndependentRates(t, 1.5)
        for sites in [(0,), (1, 4), (0, 2, 5)]:
            vals = monomial_values_dense(t, sites)
            got = engine_for(rates).evolve_functions(vals, 0.6)
            want = np.exp(-2 * 1.5 * len(sites) * 0.6) * vals
            assert np.allclose(got, want, atol=1e-12)

    def test_single_site_relaxation(self):
        # one site, rate r: E_t[sigma] = e^{-2rt} sigma_0
        t = Torus((1,))
        rates = IndependentRates(t, 0.7)
        mu = np.array([0.0, 1.0])  # Dirac at +
        for tt in (0.2, 1.0, 3.0):
            nu = engine_for(rates).evolve_measures(mu, tt)
            mean = nu[1] - nu[0]
            assert mean == pytest.approx(np.exp(-2 * 0.7 * tt), abs=1e-12)

    def test_glauber_stationarity(self):
        t = Torus((6,))
        pot = Potential.ising_nn(1, 0.35)
        rates = GlauberRates(t, pot)
        mu = gibbs_measure(pot, t)
        nu = engine_for(rates).evolve_measures(mu.probs, 1.3)
        assert 0.5 * np.abs(nu - mu.probs).sum() < 1e-10

    def test_detailed_balance(self):
        t = Torus((5,))
        pot = Potential.ising_nn(1, 0.4) + Potential.external_field(1, 0.2)
        rates = GlauberRates(t, pot)
        mu = gibbs_measure(pot, t)
        assert detailed_balance_residual(rates, mu.probs) < 1e-12
        ind = IndependentRates(t, 2.0)
        assert detailed_balance_residual(ind, np.full(32, 1 / 32)) < 1e-15

    def test_stationary_solver(self):
        # the left null vector of Q, normalized, is the one stationary law
        t = Torus((4,))
        pot = Potential.ising_nn(1, 0.3)
        for rates, want in (
            (GlauberRates(t, pot), gibbs_measure(pot, t).probs),
            (IndependentRates(t, 1.0), np.full(16, 1 / 16)),
        ):
            a = generator_matrix(rates).T.toarray()
            a[-1, :] = 1.0
            assert np.allclose(np.linalg.solve(a, np.eye(16)[-1]), want, atol=1e-10)

    def test_batched_evolution_matches_loop(self):
        t = Torus((4,))
        rates = PerturbedRates.pair(t, 0.15)
        rng = np.random.default_rng(9)
        cols = rng.normal(size=(16, 3))
        batch = engine_for(rates).evolve_functions(cols, 0.7)
        for j in range(3):
            assert np.allclose(batch[:, j], engine_for(rates).evolve_functions(cols[:, j], 0.7))
        rows = np.stack([random_measure(16, rng) for _ in range(3)])
        batch_m = engine_for(rates).evolve_measures(rows, 0.7)
        for j in range(3):
            assert np.allclose(batch_m[j], engine_for(rates).evolve_measures(rows[j], 0.7))


@pytest.mark.parametrize("vectors", [0, 1, 3], ids=["1-D", "one column", "three columns"])
def test_private_csr_kernels_add_the_product(vectors):
    # the engine steps through scipy.sparse._sparsetools' csr_matvec and
    # csr_matvecs, which add A x to y in place (x and y C-ordered, int32
    # indices); a rename or a change of that contract fails here
    rng = np.random.default_rng(vectors)
    a = sp.random(40, 30, density=0.2, format="csr", random_state=rng)
    assert a.indices.dtype == np.int32
    shape = (30,) if vectors == 0 else (30, vectors)
    x = rng.normal(size=shape)
    y0 = rng.normal(size=(40,) + shape[1:])
    y = y0.copy()
    if vectors == 0:
        dynamics.csr_matvec(40, 30, a.indptr, a.indices, a.data, x, y)
    else:
        dynamics.csr_matvecs(40, 30, vectors, a.indptr, a.indices, a.data, x.reshape(-1), y.reshape(-1))
    assert np.allclose(y, y0 + a @ x, rtol=1e-14, atol=1e-14)
    zero = np.zeros_like(y0)
    if vectors == 0:
        dynamics.csr_matvec(40, 30, a.indptr, a.indices, a.data, x, zero)
    else:
        dynamics.csr_matvecs(40, 30, vectors, a.indptr, a.indices, a.data, x.reshape(-1), zero.reshape(-1))
    assert np.array_equal(zero, a @ x)


def flip_columns(torus, rng):
    """Columns of every parity class on the states of a torus: even, odd,
    neither, a column next to its global flip, a repeat, and zero."""
    odd = monomial_values_dense(torus, (0,))
    even = odd * monomial_values_dense(torus, (torus.n_sites - 1,)) + 0.5
    mixed = rng.normal(size=odd.size)
    cols = [even, odd, 2.0 * odd, mixed, mixed[::-1], mixed, even + odd, np.zeros(odd.size)]
    return np.column_stack(cols)


def flip_rows(torus, rng):
    """Measures: random, one next to its global flip, uniform and a point mass."""
    size = 1 << torus.n_sites
    mu = random_measure(size, rng)
    point = np.zeros(size)
    point[size - 1] = 1.0
    return np.stack([mu, mu[::-1], random_measure(size, rng), np.full(size, 1.0 / size), point])


ORACLE_TORI = [(1,), (2,), (5,), (2, 3), (3, 3)]


def asymmetric_models(torus):
    d = torus.dim
    return [
        GlauberRates(torus, Potential.ising_nn(d, 0.3) + Potential.external_field(d, 0.25)),
        PerturbedRates(torus, ((0,) * d,), [0.2, -0.2]),
        CustomRates(torus, lambda i: (i,), lambda i, s: 1.0 + 0.1 * i + 0.3 * (s >> i & 1)),
    ]


class TestFoldedEngine:
    """Flip-symmetric rates run on half the states; the rest on the full P.
    Both routes against a dense expm(tQ)."""

    def check_against_expm(self, rates, rng):
        engine = SemigroupEngine(rates)
        q = generator_matrix(rates).toarray()
        cols, rows = flip_columns(rates.torus, rng), flip_rows(rates.torus, rng)
        times = [0.0, 0.35, 1.2]
        grid = engine.evolve_measures_over(rows, times)
        for j, t in enumerate(times):
            e = scipy.linalg.expm(t * q)
            scale = np.abs(cols).max(axis=0)
            got = engine.evolve_functions(cols, t)
            assert np.all(np.abs(got - e @ cols).max(axis=0) <= 1e-12 * np.maximum(scale, 1.0))
            assert np.abs(engine.evolve_functions(cols[:, 3], t) - e @ cols[:, 3]).max() <= 1e-12 * scale[3]
            want = rows @ e
            assert np.abs(engine.evolve_measures(rows, t) - want).sum(axis=1).max() <= 1e-12
            assert np.abs(engine.evolve_measures(rows[0], t) - want[0]).sum() <= 1e-12
            assert np.abs(grid[j] - want).sum(axis=1).max() <= 1e-12
        return engine

    @pytest.mark.parametrize("sides", ORACLE_TORI, ids=str)
    def test_symmetric_models_fold_and_match_expm(self, sides):
        rng = np.random.default_rng(len(sides) * 10 + sides[0])
        for rates in model_zoo(Torus(sides)):
            engine = self.check_against_expm(rates, rng)
            half = engine.n_states // 2
            assert engine.flip_symmetric
            assert engine.p.shape == (half, half)
            assert engine.evolve_functions(np.empty((engine.n_states, 0)), 0.5).shape == (engine.n_states, 0)
            assert engine.evolve_measures(np.empty((0, engine.n_states)), 0.5).shape == (0, engine.n_states)

    @pytest.mark.parametrize("sides", [(1,), (5,), (2, 3)], ids=str)
    def test_asymmetric_models_keep_the_full_operator(self, sides):
        rng = np.random.default_rng(sides[-1])
        for rates in asymmetric_models(Torus(sides)):
            engine = self.check_against_expm(rates, rng)
            assert not engine.flip_symmetric
            assert engine.p.shape == (engine.n_states, engine.n_states)

    def test_folded_operator_is_the_lower_block_of_p(self):
        engine = SemigroupEngine(GlauberRates(Torus((2, 3)), Potential.ising_nn(2, 0.5)))
        p = full_p(engine).toarray()
        half = engine.n_states // 2
        assert np.allclose(engine.p.toarray(), p[:half, :half], rtol=1e-15, atol=0)
        # the top site's flips, s -> s + half, are the vector the engine keeps
        assert np.allclose(engine._top, p[np.arange(half), np.arange(half) + half], rtol=1e-15, atol=0)
        assert engine.summary() == {
            "lam": engine.lam,
            "flip_symmetric": True,
            "states": 64,
            "operator_nnz": engine.p.nnz,
            # two float data arrays, one shared int32 index array and indptr
            "operator_bytes": 2 * 8 * engine.p.nnz + 4 * engine.p.nnz + 4 * (half + 1),
            # reversible rates: the Chebyshev route, with what sets its terms
            "route": "chebyshev",
            "rho": engine._balance.rho,
            "pi_min": engine._balance.pi_min,
            # no narrow evolution has run, so no orbit quotient is cached
            "quotients": [],
        }

    def test_folded_matches_full_p_sum(self):
        # on flip-symmetric rates, the folded sum against the same Poisson
        # weights on the full P, to 1e-13 (sup norm / l1)
        rng = np.random.default_rng(21)
        for rates in model_zoo(Torus((3, 3))):
            engine = SemigroupEngine(rates)
            p = full_p(engine)
            cols, rows = flip_columns(rates.torus, rng), flip_rows(rates.torus, rng)
            for t in (0.4, 1.5):
                w = engine.poisson_weights(t)
                want = uniformized_sum(p, cols, w)
                got = engine.evolve_functions(cols, t)
                assert np.all(np.abs(got - want).max(axis=0) <= 1e-13 * np.maximum(np.abs(cols).max(axis=0), 1.0))
                want_m = uniformized_sum(p.T, rows.T, w).T
                assert np.abs(engine.evolve_measures(rows, t) - want_m).sum(axis=1).max() <= 1e-13

    def test_evolved_measures_stay_nonnegative(self):
        rates = GlauberRates(Torus((3, 3)), Potential.ising_nn(2, 0.9))
        rows = flip_rows(rates.torus, np.random.default_rng(3))
        for nu in SemigroupEngine(rates).evolve_measures_over(rows, [0.1, 0.5, 3.0]):
            assert np.all(nu >= 0)
            assert np.allclose(nu.sum(axis=1), 1.0, atol=1e-13)


class TestBatchRoutes:
    """Narrow batches step one contiguous row per (half-)column, wide ones
    as one multi-vector product; both on CSR P and P^T with one index
    structure.  Every torus here has fewer than _ORBIT_MIN_STATES states, so
    narrow batches keep the fold; TestQuotientRoute covers the orbit route."""

    @staticmethod
    def models(torus):
        return model_zoo(torus) + asymmetric_models(torus)

    @pytest.mark.parametrize("sides", [(5,), (2, 3)], ids=str)
    def test_transpose_shares_the_index_structure(self, sides):
        for rates in self.models(Torus(sides)):
            engine = SemigroupEngine(rates)
            assert engine.p.format == engine.pt.format == "csr"
            assert np.shares_memory(engine.pt.indices, engine.p.indices)
            assert np.shares_memory(engine.pt.indptr, engine.p.indptr)
            assert not engine.p.indices.flags.writeable
            assert np.array_equal(engine.pt.toarray(), engine.p.toarray().T)

    @staticmethod
    def routed(engine, cols, rows):
        """The widest leading slices of cols and rows that step by row, after
        checking that the whole batches take the multi-vector route."""
        h = engine.p.shape[0]

        def width(batch):
            return _Fold(batch).halves.shape[1] if engine.flip_symmetric else batch.shape[1]

        assert not _steps_by_row(h, width(cols)) and not _steps_by_row(h, width(rows.T))
        jc = max(j for j in range(1, cols.shape[1]) if _steps_by_row(h, width(cols[:, :j])))
        jr = max(j for j in range(1, len(rows)) if _steps_by_row(h, width(rows[:j].T)))
        return jc, jr

    @pytest.mark.parametrize("sides", [(5,), (2, 3), (12,)], ids=str)
    def test_narrow_and_wide_batches_agree(self, sides):
        # (12,) folds to 2048 rows, where up to four halves step by row
        rng = np.random.default_rng(sum(sides))
        torus = Torus(sides)
        cols, rows = flip_columns(torus, rng), flip_rows(torus, rng)
        for rates in self.models(torus):
            engine = SemigroupEngine(rates)
            jc, jr = self.routed(engine, cols, rows)
            scale = np.maximum(np.abs(cols[:, :jc]).max(axis=0), 1.0)
            for t in (0.3, 1.1):
                narrow = engine.evolve_functions(cols[:, :jc], t)
                wide = engine.evolve_functions(cols, t)[:, :jc]
                assert np.all(np.abs(narrow - wide).max(axis=0) <= 1e-15 * scale)
                narrow = engine.evolve_measures(rows[:jr], t)
                wide = engine.evolve_measures(rows, t)[:jr]
                assert np.abs(narrow - wide).sum(axis=1).max() <= 1e-15

    @pytest.mark.parametrize("sides", [(5,), (2, 3), (12,)], ids=str)
    def test_grid_passes_equal_single_times_on_both_routes(self, sides):
        rng = np.random.default_rng(3 * sum(sides))
        torus = Torus(sides)
        cols, rows = flip_columns(torus, rng), flip_rows(torus, rng)
        times = [0.0, 0.25, 0.9]
        for rates in self.models(torus):
            engine = SemigroupEngine(rates)
            _, jr = self.routed(engine, cols, rows)
            for batch in (rows[:jr], rows):
                grid = engine.evolve_measures_over(batch, times)
                for j, t in enumerate(times):
                    assert np.array_equal(grid[j], engine.evolve_measures(batch, t))

    def test_fold_shares_identical_halves(self):
        # sigma_A and sigma_A^2 = 1 for six sets A, as Theorem 5.2's start
        # variances batch them: six halves of parity -+1 and one all-ones half
        torus = Torus((10,))
        sets = [(0,), (3,), (7,), (1, 2), (4, 9), (5, 8)]
        values = np.column_stack([monomial_values_dense(torus, a) for a in sets])
        cols = np.hstack([values, values * values])
        fold = _Fold(cols)
        assert fold.halves.shape == (512, 7)
        assert np.array_equal(fold.unfold(fold.halves[None])[0], cols)
        engine = SemigroupEngine(PerturbedRates.pair(torus, 0.1))
        got = engine.evolve_functions(cols, 0.4)
        # the six all-ones columns share one half, so evolve bit for bit alike
        assert all(np.array_equal(got[:, 6], got[:, j]) for j in range(7, 12))
        assert np.array_equal(got[:, :6], engine.evolve_functions(np.hstack([values, values[:, :1] ** 2]), 0.4)[:, :6])

        # a mixed batch: the even, odd and zero columns are their own
        # partners, and each general column and its flip make one pair
        torus = Torus((12,))
        rng = np.random.default_rng(5)
        odd = monomial_values_dense(torus, (0,))
        even = odd * monomial_values_dense(torus, (11,)) + 0.5
        general, other = rng.normal(size=(2, odd.size))
        cols = np.column_stack([general, even, general[::-1], odd, other, general, np.zeros(odd.size)])
        fold = _Fold(cols)
        h, m = fold.halves.shape
        assert (fold.n_self, m) == (3, 7)
        assert fold.sign.tolist() == [1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        # pair k at n_self + k and m' - 1 - k; the flip and the repeat share them
        for k, j in enumerate((0, 4)):
            assert (fold.lo_of[j], fold.hi_of[j]) == (3 + k, m - 1 - k)
        assert (fold.lo_of[2], fold.hi_of[2]) == (fold.hi_of[0], fold.lo_of[0])
        assert (fold.lo_of[5], fold.hi_of[5]) == (fold.lo_of[0], fold.hi_of[0])
        assert np.array_equal(fold.unfold(fold.halves[None])[0], cols)
        # the first four columns fold to four halves, which step by row; the
        # whole batch steps as one multi-vector product, folded or not
        assert _steps_by_row(h, 4) and not _steps_by_row(h, m) and not _steps_by_row(2 * h, cols.shape[1])
        for rates in self.models(torus):
            engine = SemigroupEngine(rates)
            assert np.array_equal(engine.evolve_functions(cols[:, :4], 0.4), engine.evolve_functions(cols, 0.4)[:, :4])
            assert np.array_equal(engine.evolve_measures(cols[:, :4].T, 0.4), engine.evolve_measures(cols.T, 0.4)[:4])


def acceptance_grid():
    """(label, rates, potential of its Gibbs states): 4x4 Glauber on the
    Chebyshev route, folded; 3x4 Glauber with a field, unfolded, so lattice
    characters only; pair-perturbed rates on a 12-ring, by uniformization,
    which admit the translations and refuse the reflections."""
    ising = Potential.ising_nn(2, 0.6)
    field = ising + Potential.external_field(2, 0.25)
    return [
        ("glauber-4x4", GlauberRates(Torus((4, 4)), ising), ising),
        ("field-3x4", GlauberRates(Torus((3, 4)), field), field),
        ("perturbed-12", PerturbedRates.pair(Torus((12,)), 0.2), Potential.ising_nn(1, 0.4)),
    ]


def widened(batch, rng, measures):
    """batch (columns, or rows for measures) and six random ones: a batch
    wide enough for one multi-vector product on the fold at any size"""
    size = batch.shape[-1] if measures else len(batch)
    extra = np.stack([random_measure(size, rng) for _ in range(6)]) if measures else rng.normal(size=(size, 6))
    return np.vstack([batch, extra]) if measures else np.column_stack([batch, extra])


def sup_gap(got, want):
    """max over columns of |got - want|_inf / |want|_inf"""
    return float(np.max(np.abs(got - want).max(axis=0) / np.abs(want).max(axis=0)))


@pytest.fixture
def orbits_everywhere(monkeypatch):
    """The orbit route on tori of any size, dense-expm oracles included."""
    monkeypatch.setattr(dynamics, "_ORBIT_MIN_STATES", 1)


class TestQuotientRoute:
    """A narrow batch steps each column that has a lattice symmetry on the
    orbits of its stabilizer.  Against the fold (the same columns in a wide
    batch) and a dense expm, to 1e-13: sup relative to ||f||_inf for
    functions, l1 for measures."""

    @pytest.mark.parametrize("label, rates, potential", acceptance_grid(), ids=lambda x: x if isinstance(x, str) else "")
    def test_matches_the_fold(self, label, rates, potential, orbits_everywhere):
        torus = rates.torus
        engine = SemigroupEngine(rates)
        rng = np.random.default_rng(len(label))
        # a site, its bond along the last axis and one more across (the
        # second neighbour on a ring)
        across = torus.sides[-1] if torus.dim > 1 else 2
        cols = np.column_stack([monomial_values_dense(torus, a) for a in ((0,), (0, 1), (0, across))])
        dirac, point = np.zeros((2, engine.n_states))
        dirac[3] = point[-1] = 1.0
        plus, minus = (gibbs_measure(potential, torus, BoundaryCondition.fixed(e)).probs for e in (1, -1))
        starts = np.vstack([dirac, point, gibbs_measure(potential, torus).probs, plus, minus])
        times = [0.2, 0.5]
        for t in times:
            wide = engine.evolve_functions(widened(cols, rng, False), t)[:, :3]
            assert sup_gap(engine.evolve_functions(cols, t), wide) <= 1e-13
            if t == times[0]:
                batch_quotients = engine.summary()["quotients"]
            for j in range(3):
                assert sup_gap(engine.evolve_functions(cols[:, j], t)[:, None], wide[:, j : j + 1]) <= 1e-13
        wide = engine.evolve_measures_over(widened(starts, rng, True), times)[:, :5]
        # one start at a time, and the plus/minus pair as one narrow batch
        for batch in (starts[:1], starts[1:2], starts[2:3], starts[3:]):
            grid = engine.evolve_measures_over(batch, times)
            at = [np.flatnonzero((starts == row).all(axis=1))[0] for row in batch]
            for j, t in enumerate(times):
                assert np.abs(grid[j] - wide[j][at]).sum(axis=1).max() <= 1e-13
                assert np.array_equal(grid[j], engine.evolve_measures(batch, t))
        quotients = engine.summary()["quotients"]
        assert quotients and all(q["orbits"] < engine.n_states for q in quotients)
        if label == "glauber-4x4":
            # sigma_x: the point group of x (8) and the odd global flip; a
            # bond: its 4 reflections and the even flip
            # the vertical bond is the horizontal one's image under a swap of
            # the axes, and in one batch reads its result moved
            assert batch_quotients == [
                {"order": 16, "odd": 8, "orbits": 4808, "direction": "functions"},
                {"order": 8, "odd": 0, "orbits": 8832, "direction": "functions"},
            ]
            # the plus density, judged in l1(pi): its 8 reflections and
            # rotations hold to rounding, the global flip does not
            assert {"order": 8, "odd": 0, "orbits": 8548, "direction": "functions"} in quotients
        if label == "field-3x4":
            assert not engine.flip_symmetric and len(rates.automorphisms) == 48
        if label == "perturbed-12":
            # the 12 translations only; measures step through P^T
            assert len(rates.automorphisms) == 12
            assert all(np.array_equal(g, np.roll(np.arange(12), -g[0])) for g in rates.automorphisms)
            assert all(q["direction"] == "measures" for q in quotients)

    @pytest.mark.parametrize(
        "model", range(6), ids=["independent", "glauber", "pair", "glauber-field", "site", "custom"]
    )
    def test_ring_models_match_the_fold(self, model, orbits_everywhere):
        # TestBatchRoutes' inputs on a 12-ring, every rate model there: the
        # narrow slices and each column or row alone against a wide batch
        torus = Torus((12,))
        rng = np.random.default_rng(12)
        cols, rows = flip_columns(torus, rng), flip_rows(torus, rng)
        rates = (model_zoo(torus) + asymmetric_models(torus))[model]
        engine = SemigroupEngine(rates)
        jc, jr = TestBatchRoutes.routed(engine, cols, rows)
        scale = np.maximum(np.abs(cols).max(axis=0), 1.0)
        for t in (0.3, 1.1):
            wide = engine.evolve_functions(cols, t)
            narrow = engine.evolve_functions(cols[:, :jc], t)
            assert np.all(np.abs(narrow - wide[:, :jc]).max(axis=0) <= 1e-13 * scale[:jc])
            for j, col in enumerate(cols.T):
                assert np.abs(engine.evolve_functions(col, t) - wide[:, j]).max() <= 1e-13 * scale[j]
            wide = engine.evolve_measures(rows, t)
            assert np.abs(engine.evolve_measures(rows[:jr], t) - wide[:jr]).sum(axis=1).max() <= 1e-13
            for row, want in zip(rows, wide):
                assert np.abs(engine.evolve_measures(row, t) - want).sum() <= 1e-13
        # the custom rates differ from site to site: no lattice symmetry
        assert bool(engine.summary()["quotients"]) == rates.translation_invariant

    @pytest.mark.parametrize("sides", [(5,), (2, 3), (3, 3)], ids=str)
    def test_symmetric_columns_match_expm(self, sides, orbits_everywhere):
        torus = Torus(sides)
        n = torus.n_sites
        cols = [monomial_values_dense(torus, (0,)), monomial_values_dense(torus, (0, n - 1)) + 0.5, np.full(1 << n, 2.0)]
        point = np.zeros(1 << n)
        point[-1] = 1.0
        rows = [point, np.full(1 << n, 1.0 / (1 << n)), gibbs_measure(Potential.ising_nn(torus.dim, 0.4), torus).probs]
        for rates in model_zoo(torus) + asymmetric_models(torus):
            engine = SemigroupEngine(rates)
            q = generator_matrix(rates).toarray()
            for t in (0.35, 1.2):
                e = scipy.linalg.expm(t * q)
                for col in cols:
                    assert np.abs(engine.evolve_functions(col, t) - e @ col).max() <= 1e-13 * np.abs(col).max()
                for row in rows:
                    assert np.abs(engine.evolve_measures(row, t) - row @ e).sum() <= 1e-13
            if rates.translation_invariant:
                assert engine.summary()["quotients"]

    def test_a_column_off_its_symmetry_keeps_the_fold(self):
        torus = Torus((4, 4))
        engine = SemigroupEngine(GlauberRates(torus, Potential.ising_nn(2, 0.6)))
        col = monomial_values_dense(torus, (0,))
        sym = engine._stabilizer(col, None)
        assert (len(sym.images), sym.flip) == (8, -1.0) and np.all(sym.chars == 1.0)
        # an entry that no symmetry of sigma_0 fixes, moved by 1e-10
        moved = [permute_states(np.arange(col.size), 16, g) for g in sym.images[1:]]
        s = next(s for s in range(col.size) if all(m[s] != s for m in moved))
        off = col.copy()
        off[s] += 1e-10
        assert engine._stabilizer(off, None) is None
        got = engine.evolve_functions(off, 0.5)
        assert engine.summary()["quotients"] == []
        rng = np.random.default_rng(0)
        assert sup_gap(got[:, None], engine.evolve_functions(widened(off, rng, False), 0.5)[:, :1]) <= 1e-13
        # within _SYMMETRY_RTOL of the norm the symmetry holds
        near = col.copy()
        near[s] += 0.5 * _SYMMETRY_RTOL
        assert len(engine._stabilizer(near, None).images) == 8

    def test_a_density_is_judged_in_the_measures_l1(self):
        # the Gibbs state with its least likely entry raised by 1e-8 of
        # itself moves by ~1e-25 in l1 under every symmetry, inside the
        # tolerance, though its density moves by 1e-8 at that state, past
        # the tolerance in a plain l1 of the density
        torus = Torus((4, 4))
        potential = Potential.ising_nn(2, 0.6)
        engine = SemigroupEngine(GlauberRates(torus, potential))
        mu = gibbs_measure(potential, torus).probs
        mu[np.argmin(mu)] *= 1.0 + 1e-8
        got = engine.evolve_measures(mu, 0.5)
        assert engine.summary()["quotients"] == [{"order": 256, "odd": 0, "orbits": 433, "direction": "functions"}]
        rng = np.random.default_rng(1)
        assert np.abs(got - engine.evolve_measures(widened(mu[None], rng, True), 0.5)[0]).sum() <= 1e-13

    def test_a_table_that_breaks_a_reflection_is_not_admitted(self, orbits_everywhere):
        # site 0 reads sigma_1 and not sigma_5, so the reflection x -> -x,
        # which fixes sigma_0, does not commute with P
        torus = Torus((6,))
        reflection = (-np.arange(6)) % 6

        def model(extra):
            def rate(i, s):
                spin = [1.0 if s >> j & 1 else -1.0 for j in range(6)]
                return 1.0 + 0.2 * spin[(i - 1) % 6] * spin[(i + 1) % 6] + (extra * spin[1] if i == 0 else 0.0)

            return CustomRates(torus, lambda i: ((i - 1) % 6, i, (i + 1) % 6), rate)

        def admitted(engine):
            return {g.tobytes() for g in engine.rates.automorphisms}

        assert reflection.tobytes() in admitted(SemigroupEngine(model(0.0)))
        engine = SemigroupEngine(model(0.1))
        assert reflection.tobytes() not in admitted(engine)
        col = monomial_values_dense(torus, (0,))
        e = scipy.linalg.expm(0.7 * generator_matrix(engine.rates).toarray())
        assert np.abs(engine.evolve_functions(col, 0.7) - e @ col).max() <= 1e-13

    def test_odd_orbits_read_zero(self, orbits_everywhere):
        # sigma_0 - sigma_1 is odd under the reflection swapping sites 0 and
        # 1, which fixes every state with equal spins at 0 and 1 and a
        # mirror-symmetric rest: those orbits carry 0 and are dropped
        torus = Torus((3, 3))
        rates = GlauberRates(torus, Potential.ising_nn(2, 0.6))
        engine = SemigroupEngine(rates)
        col = monomial_values_dense(torus, (0,)) - monomial_values_dense(torus, (1,))
        got = engine.evolve_functions(col, 0.5)
        (odd,) = engine.summary()["quotients"]
        assert odd["odd"] > 0
        swap = next(g for g in rates.automorphisms if g[0] == 1 and g[1] == 0)
        states = np.arange(engine.n_states)
        fixed = permute_states(states, torus.n_sites, swap) == states
        assert fixed.sum() > 0 and np.all(got[fixed] == 0.0)
        e = scipy.linalg.expm(0.5 * generator_matrix(rates).toarray())
        assert np.abs(got - e @ col).max() <= 1e-13 * np.abs(col).max()

    def test_wide_batches_skip_the_search(self, monkeypatch, orbits_everywhere):
        def refuse(self, col, weights):
            raise AssertionError("symmetry search on a wide batch")

        monkeypatch.setattr(SemigroupEngine, "_stabilizer", refuse)
        torus = Torus((12,))
        rates = GlauberRates(torus, Potential.ising_nn(1, 0.4))
        engine = engine_for(rates)
        rng = np.random.default_rng(4)
        engine.evolve_functions(flip_columns(torus, rng), 0.3)
        engine.evolve_measures_over(flip_rows(torus, rng), [0.2, 0.6])
        # the law columns of a theorem check: one wide batch
        family = TestFunctionFamily.monomials(torus, 2)
        theorem31_check(rates, 0.4, gibbs_measure(Potential.ising_nn(1, 0.4), torus), family, 1.0)
        assert engine.summary()["quotients"] == []
        with pytest.raises(AssertionError, match="wide batch"):
            engine.evolve_functions(flip_columns(torus, rng)[:, :1], 0.3)

    @staticmethod
    def count_searches(monkeypatch):
        """Counters of _stabilizer and _image calls on every engine"""
        calls = {"_stabilizer": 0, "_image": 0}
        for name in calls:
            search = getattr(SemigroupEngine, name)

            def counted(self, *args, name=name, search=search):
                calls[name] += 1
                return search(self, *args)

            monkeypatch.setattr(SemigroupEngine, name, counted)
        return calls

    def test_a_repeated_batch_reads_the_memo(self, monkeypatch, orbits_everywhere):
        # two bonds, the second the first's image under the swap of the axes:
        # a group and an image, found once per engine
        torus = Torus((3, 3))
        engine = SemigroupEngine(GlauberRates(torus, Potential.ising_nn(2, 0.6)))
        cols = np.column_stack([monomial_values_dense(torus, a) for a in ((0, 1), (0, 3))])
        calls = self.count_searches(monkeypatch)
        first = engine.evolve_functions(cols, 0.4)
        assert calls == {"_stabilizer": 1, "_image": 2}
        again = engine.evolve_functions(cols, 0.4)
        later = engine.evolve_functions(cols, 0.9)
        assert calls == {"_stabilizer": 1, "_image": 2}
        assert np.array_equal(again, first)
        rng = np.random.default_rng(3)
        for t, got in ((0.4, first), (0.9, later)):
            assert sup_gap(got, engine.evolve_functions(widened(cols, rng, False), t)[:, :2]) <= 1e-13
        # the memo holds the last batch's two columns, one operator
        assert [len(found) for found in engine._searched.values()] == [2]
        assert len(engine.summary()["quotients"]) == 1
        # the vertical bond alone: its source is not in the batch, so it is
        # searched again and steps on its own group's orbits
        alone = engine.evolve_functions(cols[:, 1], 0.4)
        assert calls == {"_stabilizer": 2, "_image": 3}
        assert sup_gap(alone[:, None], first[:, 1:]) <= 1e-13

    def test_a_column_changed_in_place_is_searched_again(self, monkeypatch, orbits_everywhere):
        torus = Torus((3, 3))
        rates = GlauberRates(torus, Potential.ising_nn(2, 0.6))
        engine = SemigroupEngine(rates)
        col = monomial_values_dense(torus, (0,))
        engine.evolve_functions(col, 0.5)
        calls = self.count_searches(monkeypatch)
        # off every symmetry of sigma_0 by 1e-3: a stale group would project
        # it back onto sigma_0's symmetric columns
        col += 1e-3 * np.random.default_rng(5).normal(size=col.size)
        got = engine.evolve_functions(col, 0.5)
        assert calls["_stabilizer"] == 1
        assert np.array_equal(got, SemigroupEngine(rates).evolve_functions(col, 0.5))
        e = scipy.linalg.expm(0.5 * generator_matrix(rates).toarray())
        assert np.abs(got - e @ col).max() <= 1e-13 * np.abs(col).max()

    def test_functions_and_densities_are_keyed_apart(self, monkeypatch):
        # the density g = mu / pi of test_a_density_is_judged_in_the_measures_l1
        # has the 256-element group in l1(pi), and only the stabilizer of the
        # raised state in sup; as a function its bytes are searched again
        torus = Torus((4, 4))
        potential = Potential.ising_nn(2, 0.6)
        engine = SemigroupEngine(GlauberRates(torus, potential))
        mu = gibbs_measure(potential, torus).probs
        mu[np.argmin(mu)] *= 1.0 + 1e-8
        engine.evolve_measures(mu, 0.5)
        assert [q["order"] for q in engine.summary()["quotients"]] == [256]
        g = mu / engine._balance.pi
        calls = self.count_searches(monkeypatch)
        got = engine.evolve_functions(g, 0.5)
        assert calls["_stabilizer"] == 1
        assert engine.summary()["quotients"][-1]["order"] < 256
        rng = np.random.default_rng(2)
        assert sup_gap(got[:, None], engine.evolve_functions(widened(g, rng, False), 0.5)[:, :1]) <= 1e-13

    def test_the_cache_keeps_what_fits_in_the_operator(self):
        # one engine, one narrow evolution after another: sigma_0, two
        # bonds, sigma_0 - sigma_1, two Dirac starts, the periodic Gibbs state
        # and the plus/minus pair, 7 groups and 12.6 MB of orbit operators
        # against the engine's own 10.6 MB
        torus = Torus((4, 4))
        potential = Potential.ising_nn(2, 0.6)
        engine = SemigroupEngine(GlauberRates(torus, potential))
        budget = engine.summary()["operator_bytes"]
        sigma = [monomial_values_dense(torus, a) for a in ((0,), (0, 1), (0, 4), (1,))]
        dirac, point = np.zeros((2, engine.n_states))
        dirac[3] = point[-1] = 1.0
        plus, minus = (gibbs_measure(potential, torus, BoundaryCondition.fixed(e)).probs for e in (1, -1))
        first = engine.evolve_functions(sigma[0], 0.3)
        built = []
        for run in (
            lambda: engine.evolve_functions(sigma[1], 0.3),
            lambda: engine.evolve_functions(sigma[2], 0.3),
            lambda: engine.evolve_functions(sigma[0] - sigma[3], 0.3),
            lambda: engine.evolve_measures(dirac, 0.3),
            lambda: engine.evolve_measures(point, 0.3),
            lambda: engine.evolve_measures(gibbs_measure(potential, torus).probs, 0.3),
            lambda: engine.evolve_measures(np.vstack([plus, minus]), 0.3),
        ):
            run()
            cached = engine._quotients.values()
            assert sum(q.nbytes for q in cached) <= budget
            built.append(len(cached))
        assert max(built) < 7 and {"order": 16, "odd": 8, "orbits": 4808, "direction": "functions"} not in (
            engine.summary()["quotients"]
        )
        assert np.array_equal(engine.evolve_functions(sigma[0], 0.3), first)
        assert engine.summary()["quotients"][-1] == {"order": 16, "odd": 8, "orbits": 4808, "direction": "functions"}


class TestLipschitzPropagation:
    def test_gamma_closed_forms(self):
        beta = 0.3
        t = Torus((6,))
        g = gamma_matrix(GlauberRates(t, Potential.ising_nn(1, beta))).matrix
        for i in range(6):
            assert g[i, i] == pytest.approx(np.exp(2 * beta) - np.exp(-2 * beta))
            assert g[i, (i + 1) % 6] == pytest.approx(np.exp(2 * beta) - 1)
            assert g[i, (i - 1) % 6] == pytest.approx(np.exp(2 * beta) - 1)
            assert g[i, (i + 2) % 6] == 0.0
        gp = gamma_matrix(PerturbedRates.pair(t, 0.2)).matrix
        for i in range(6):
            assert gp[i, i] == pytest.approx(0.4)
            assert gp[i, (i + 1) % 6] == pytest.approx(0.4)
            assert gp[i, (i - 1) % 6] == 0.0
        assert np.all(gamma_matrix(IndependentRates(t, 1.0)).matrix == 0.0)

    def test_pointwise_bound_dominates(self):
        # delta_i S(t) f <= (e^{t Gamma} delta f)_i for every model and t
        t = Torus((5,))
        rng = np.random.default_rng(13)
        for rates in model_zoo(t):
            eng = engine_for(rates)
            for _ in range(5):
                sites = tuple(rng.choice(5, size=rng.integers(1, 4), replace=False))
                f = Observable.monomial_sum(
                    t,
                    [(float(rng.normal()), sites), (float(rng.normal()), (int(sites[0]),))],
                )
                d0 = lipschitz_vector(f)
                for tt in (0.2, 0.9):
                    lhs = lipschitz_vector_dense(5, eng.evolve_functions(f.dense_values(), tt))
                    rhs = scipy.linalg.expm(tt * gamma_matrix(rates).matrix.T) @ d0
                    assert np.all(lhs <= rhs + 1e-9)

    def test_propagation_is_circular_convolution(self):
        # translation invariant rates: (e^{tG^T} d)_i = sum_j gamma_t(i-j) d_j
        # with gamma_t(m) = (e^{tG})_{0m}
        t = Torus((6,))
        rng = np.random.default_rng(21)
        for rates in model_zoo(t):
            g = gamma_matrix(rates).matrix
            tt = 0.7
            kernel = scipy.linalg.expm(tt * g)[0]
            d = np.abs(rng.normal(size=6))
            want = np.array(
                [sum(kernel[(i - j) % 6] * d[j] for j in range(6)) for i in range(6)]
            )
            assert np.allclose(scipy.linalg.expm(tt * g.T) @ d, want, atol=1e-10)

    def test_k_of_t_properties(self):
        t = Torus((6,))
        rates = GlauberRates(t, Potential.ising_nn(1, 0.2))
        gamma = gamma_matrix(rates)
        g = gamma.matrix
        assert k_of_t(g, 0.0) == pytest.approx(1.0)
        # Schur's test: ||Gamma||_2 <= sqrt(max column sum * max row sum)
        schur = np.sqrt(np.abs(g).sum(axis=0).max() * np.abs(g).sum(axis=1).max())
        for tt in (0.3, 0.8, 1.5):
            assert 1.0 <= gamma.k_of_t(tt) <= np.exp(2.0 * tt * schur) * (1 + 1e-10)

    def test_independent_contraction(self):
        t = Torus((5,))
        rates = IndependentRates(t, 1.0)
        gamma = gamma_matrix(rates)
        assert np.all(gamma.matrix == 0.0)
        assert gamma.k_of_t(0.7) == pytest.approx(1.0)
        eps, m = ergodicity(rates)
        assert eps == pytest.approx(2.0)
        assert m == 0.0
        assert_lipschitz_decay(rates, 2 * (eps - m), 0.7)

    def test_independent_exact_decay(self):
        # ||delta S(t) sigma_A||^2 = e^{-4r|A|t} ||delta sigma_A||^2,
        # which in particular beats the alpha = 4r envelope
        t = Torus((4,))
        rates = IndependentRates(t, 1.2)
        eng = engine_for(rates)
        f = Observable.monomial(t, (0, 2))
        d0 = lipschitz_vector(f)
        for tt in (0.4, 1.0):
            dt = lipschitz_vector_dense(4, eng.evolve_functions(f.dense_values(), tt))
            assert np.sum(dt**2) == pytest.approx(
                np.exp(-4 * 1.2 * 2 * tt) * np.sum(d0**2), rel=1e-9
            )
            assert np.sum(dt**2) <= np.exp(-4 * 1.2 * tt) * np.sum(d0**2) + 1e-12

    def test_glauber_alpha_regime(self):
        t = Torus((6,))
        rates = GlauberRates(t, Potential.ising_nn(1, 0.2))
        eps, m = ergodicity(rates)
        assert eps == pytest.approx(2.0)
        assert m == pytest.approx(2 * (np.exp(0.4) - 1))
        assert_lipschitz_decay(rates, 2 * (eps - m), 0.8)
        # beta = 0.4 leaves the M < eps regime
        eps, m = ergodicity(GlauberRates(t, Potential.ising_nn(1, 0.4)))
        assert m >= eps

    def test_truncation_tolerance_controls_error(self):
        t = Torus((4,))
        rates = GlauberRates(t, Potential.ising_nn(1, 0.3))
        q = generator_matrix(rates).toarray()
        rng = np.random.default_rng(14)
        mu = random_measure(16, rng)
        want = mu @ scipy.linalg.expm(2.0 * q)
        loose = SemigroupEngine(rates, tail_tol=1e-6).evolve_measures(mu, 2.0)
        tight = SemigroupEngine(rates, tail_tol=1e-13).evolve_measures(mu, 2.0)
        assert 0.5 * np.abs(tight - want).sum() < 1e-12
        assert 0.5 * np.abs(loose - want).sum() < 1e-5


def gauss_legendre_k_squared(gamma, t, nodes=64):
    """int_0^t K(s)^2 ds by Gauss-Legendre on the expm + svdvals K."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    s = 0.5 * t * (x + 1.0)
    return 0.5 * t * sum(wi * k_of_t(gamma, si) ** 2 for si, wi in zip(s, w))


class TestGammaSpectrum:
    """K(t) and int_0^t K(s)^2 ds in closed form from alpha, the top
    eigenvalue of (Gamma + Gamma^T)/2, for a normal Gamma."""

    @pytest.mark.parametrize(
        "rates",
        [
            PerturbedRates.pair(Torus((8,)), 0.1),
            GlauberRates(Torus((4, 4)), Potential.ising_nn(2, 0.3)),
            IndependentRates(Torus((5,)), 1.0),
        ],
        ids=["perturbed-1d", "glauber-4x4", "independent"],
    )
    def test_closed_form_matches_the_oracles(self, rates):
        gamma = gamma_matrix(rates)
        assert gamma.alpha == pytest.approx(
            np.linalg.eigvalsh(0.5 * (gamma.matrix + gamma.matrix.T))[-1], rel=1e-15
        )
        for t in (0.1, 0.25):
            assert gamma.k_of_t(t) == pytest.approx(k_of_t(gamma.matrix, t), rel=1e-12)
            q = gamma.k_squared_integral(t)
            assert type(q) is float
            assert q == pytest.approx(gauss_legendre_k_squared(gamma.matrix, t), rel=1e-12)

    def test_independent_rates_are_exact_at_alpha_zero(self):
        gamma = gamma_matrix(IndependentRates(Torus((5,)), 1.0))
        assert gamma.alpha == 0.0
        assert gamma.k_of_t(3.0) == 1.0
        assert gamma.k_squared_integral(3.0) == 3.0
        assert gamma.k_squared_integral(0.0) == 0.0

    def test_non_normal_gamma_raises(self, weighted_cycle):
        # K(t) is kept in closed form only: a Gamma that is not normal
        # (rates that are not translation invariant) is refused
        with pytest.raises(ValueError, match="translation"):
            gamma_matrix(weighted_cycle)

    def test_closed_form_past_the_float_range_raises(self):
        # field-free Glauber at beta = 3: alpha is about 1.2e3, so
        # exp(4 alpha t) overflows at t = 0.2 and exp(2 alpha t) at t = 1
        gamma = gamma_matrix(GlauberRates(Torus((6,)), Potential.ising_nn(1, 3.0)))
        assert np.isfinite(gamma.k_of_t(0.2))
        with pytest.raises(ValueError, match="float range"):
            gamma.k_squared_integral(0.2)
        with pytest.raises(ValueError, match="float range"):
            gamma.k_of_t(1.0)

    def test_built_once_per_rate_model_and_read_only(self):
        rates = GlauberRates(Torus((5,)), Potential.ising_nn(1, 0.3))
        gamma = gamma_matrix(rates)
        assert gamma_matrix(rates) is gamma
        assert not gamma.matrix.flags.writeable
        with pytest.raises(ValueError):
            gamma.matrix[0] = 1.0



def metropolis_ring(torus, beta):
    """Metropolis rates min(1, e^{-dH}) of the nearest-neighbour Ising ring,
    tabulated: reversible against its Gibbs measure, though not Glauber's."""
    n = torus.n_sites

    def rate(i, bits):
        spin = [2 * (bits >> j & 1) - 1 for j in range(n)]
        return min(1.0, float(np.exp(-2.0 * beta * spin[i] * (spin[i - 1] + spin[(i + 1) % n]))))

    return CustomRates(torus, lambda i: ((i - 1) % n, i, (i + 1) % n), rate)


def one_sided_ring(torus):
    """c(i, s) = 1 + 0.5 * (spins i and i + 1 differ): c(i, s) / c(i, s^i)
    reads the right neighbour only, where a balancing measure would need
    both, so no measure balances the flips."""
    n = torus.n_sites
    return CustomRates(torus, lambda i: (i, (i + 1) % n), lambda i, bits: 1.0 + 0.5 * ((bits >> i ^ bits >> (i + 1) % n) & 1))


CHEBYSHEV_MODELS = [
    pytest.param((6,), GlauberRates, 0.3, id="ring-glauber-0.3"),
    pytest.param((6,), GlauberRates, 0.9, id="ring-glauber-0.9"),
    pytest.param((3, 3), GlauberRates, 0.3, id="square-glauber-0.3"),
    pytest.param((3, 3), GlauberRates, 0.9, id="square-glauber-0.9"),
    pytest.param((6,), IndependentRates, 1.3, id="ring-independent"),
    pytest.param((3, 3), IndependentRates, 0.7, id="square-independent"),
]


def chebyshev_model(sides, kind, param):
    torus = Torus(sides)
    if kind is GlauberRates:
        return GlauberRates(torus, Potential.ising_nn(torus.dim, param))
    return IndependentRates(torus, param)


class TestChebyshevRoute:
    """Reversible rates run a Chebyshev expansion in X = I + 2Q/rho; measures
    travel as densities against pi.  Certified: sup error <= tail_tol ||f||,
    total variation <= tail_tol, measures >= 0."""

    @pytest.mark.parametrize("sides, kind, param", CHEBYSHEV_MODELS)
    def test_matches_expm(self, sides, kind, param):
        rates = chebyshev_model(sides, kind, param)
        engine = SemigroupEngine(rates)
        assert engine.summary()["route"] == "chebyshev"
        rng = np.random.default_rng(len(sides) + int(10 * param))
        cols, rows = flip_columns(rates.torus, rng), flip_rows(rates.torus, rng)
        q = generator_matrix(rates).toarray()
        times = [0.0, 0.35, 1.2]
        grid = engine.evolve_measures_over(rows, times)
        scale = np.abs(cols).max(axis=0)
        for j, t in enumerate(times):
            e = scipy.linalg.expm(t * q)
            got = engine.evolve_functions(cols, t)
            assert np.all(np.abs(got - e @ cols).max(axis=0) <= 1e-13 * scale)
            want = rows @ e
            assert np.abs(grid[j] - want).sum(axis=1).max() <= 1e-13
            assert np.array_equal(grid[j], engine.evolve_measures(rows, t))

    def test_dirac_starts_stay_nonnegative(self):
        # min g = 0 off the start: clipping keeps every entry >= 0, from the
        # least and the most likely state alike
        rates = GlauberRates(Torus((3, 3)), Potential.ising_nn(2, 0.9))
        engine = SemigroupEngine(rates)
        pi = engine._balance.pi
        diracs = np.eye(engine.n_states)[[int(np.argmin(pi)), int(np.argmax(pi)), 5]]
        q = generator_matrix(rates).toarray()
        times = [0.05, 0.5, 3.0]
        for t, nu in zip(times, engine.evolve_measures_over(diracs, times)):
            assert np.all(nu >= 0)
            assert np.allclose(nu.sum(axis=1), 1.0, rtol=0, atol=1e-13)
            assert np.abs(nu - diracs @ scipy.linalg.expm(t * q)).sum(axis=1).max() <= 1e-12

    def test_route_follows_reversibility(self):
        ring = Torus((6,))
        chebyshev = [
            GlauberRates(ring, Potential.ising_nn(1, 0.5)),
            GlauberRates(ring, Potential.ising_nn(1, 0.3) + Potential.external_field(1, 0.25)),
            IndependentRates(ring, 2.0),
            metropolis_ring(ring, 0.4),
        ]
        zero_rate = CustomRates(ring, lambda i: (i,), lambda i, bits: float(bits >> i & 1))
        uniformization = [PerturbedRates.pair(ring, 0.1), one_sided_ring(ring), zero_rate]
        for rates in chebyshev:
            engine = SemigroupEngine(rates)
            summary = engine.summary()
            assert summary["route"] == "chebyshev", rates
            assert summary["pi_min"] == engine._balance.pi.min() > 0
            assert engine.coefficients(0.7) is engine.coefficients(0.7)
            assert not engine.coefficients(0.7).flags.writeable
        for rates in uniformization:
            engine = SemigroupEngine(rates)
            assert engine._balance is None, rates
            assert engine.summary()["route"] == "uniformization"
            assert "rho" not in engine.summary()
            assert engine.coefficients(0.7) is engine.poisson_weights(0.7)

    def test_pi_is_the_gibbs_measure(self):
        torus = Torus((3, 3))
        pot = Potential.ising_nn(2, 0.6)
        pi = SemigroupEngine(GlauberRates(torus, pot))._balance.pi
        assert np.allclose(pi, gibbs_measure(pot, torus).probs, rtol=1e-13, atol=0)
        # folded: exactly flip-symmetric
        assert np.array_equal(pi, pi[::-1])
        ring = Torus((6,))
        metropolis = SemigroupEngine(metropolis_ring(ring, 0.4))._balance.pi
        assert np.allclose(metropolis, gibbs_measure(Potential.ising_nn(1, 0.4), ring).probs, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("sides, kind, param", CHEBYSHEV_MODELS)
    def test_rho_bounds_the_spectrum(self, sides, kind, param):
        rates = chebyshev_model(sides, kind, param)
        engine = SemigroupEngine(rates)
        rho = engine._balance.rho
        spectrum = np.abs(np.linalg.eigvals(-generator_matrix(rates).toarray()))
        assert spectrum.max() <= rho * (1 + 1e-12)
        assert rho <= 2.0 * engine.lam
        # Gershgorin on the pi-symmetrized generator, from the rate table
        c = rates.rate_matrix()
        states = np.arange(engine.n_states)
        gershgorin = sum(row + np.sqrt(row * row[states ^ (1 << i)]) for i, row in enumerate(c))
        assert rho == min(gershgorin.max(), 2.0 * engine.lam)

    def test_truncation_rule(self):
        # K is the smallest with 2 sum_{k>K} ive(k, z) <= tol, against a
        # long direct sum; the ratio bound behind the evaluated range holds
        for z in (0.0, 1e-3, 0.7, 12.0, 96.0, 850.0):
            for tol in (1e-13, 1e-20):
                coef = _chebyshev_coefficients(z, tol)
                a = ive(np.arange(4000), z)
                tail = 2.0 * np.append(np.cumsum(a[:0:-1])[::-1], 0.0)
                assert coef.size - 1 == int(np.argmax(tail <= tol)), (z, tol)
                assert coef[0] == a[0]
                assert np.array_equal(coef[1:], 2.0 * a[1 : coef.size])
        for z in np.geomspace(1e-3, 1e4, 60):
            k = np.arange(2000)
            a = ive(k, z)
            live = a[:-1] > 1e-280
            assert np.all(a[1:][live] / a[:-1][live] <= z / (k[:-1][live] + np.hypot(k[:-1][live], z)))

    @pytest.mark.parametrize("t", [1e10, 1e300, 1e308])
    def test_times_past_the_term_cap(self, t):
        engine = SemigroupEngine(GlauberRates(Torus((4,)), Potential.ising_nn(1, 0.4)))
        with pytest.raises(ValueError, match="Chebyshev argument"):
            engine.coefficients(t)

    def test_fewer_terms_than_uniformization(self):
        engine = SemigroupEngine(GlauberRates(Torus((3, 3)), Potential.ising_nn(2, 0.6)))
        for t, ratio in ((0.5, 0.6), (3.0, 0.4)):
            assert engine.coefficients(t).size <= ratio * engine.poisson_weights(t).size
