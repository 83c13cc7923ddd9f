"""The (2,)*N state tensor against the per-state key gathers it replaced.

Each oracle below is the gather-based body a converted function had: it
packs every state's bits into a table key with gather_bits (or unpacks
one with scatter_bits) and indexes the table.  The converted functions
read the same table entries through broadcasting, so they must agree bit
for bit; only marginals sum in another order.  The grid holds 1-, 2- and
3-site rings, where every shape and rate dependence wraps onto itself
(repeated key positions), and 2x2, 3x3 and 4x4 tori.
"""

import math

import numpy as np
import pytest

from spinflip.dynamics import GlauberRates, PerturbedRates, RateModel, SemigroupEngine, _flip_matrices
from spinflip.entropy import marginal
from spinflip.gibbs import (
    BoundaryCondition,
    Potential,
    fixed_volume_terms,
    gibbs_measure,
    hamiltonian_fixed,
    hamiltonian_periodic,
    product_measure,
)
from spinflip.lattice import (
    Observable,
    Torus,
    bit_tensor,
    gather_bits,
    lipschitz_vector_dense,
    monomial_values_dense,
    permute_states,
    scatter_bits,
    spin_product,
)

GRID = [(1,), (2,), (3,), (2, 2), (3, 3), (4, 4)]


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def states_of(n):
    return np.arange(1 << n, dtype=np.int64)


def energy_oracle(terms, n):
    energy = np.zeros(1 << n)
    for positions, table in terms:
        energy += table[gather_bits(states_of(n), positions)]
    return energy


def rate_matrix_oracle(rates):
    n = rates.torus.n_sites
    return np.stack([table[gather_bits(states_of(n), sites)] for sites, table in rates._terms])


def product_measure_oracle(n, p):
    states = states_of(n)
    probs = np.ones(states.size)
    for i in range(n):
        up = ((states >> np.int64(i)) & 1).astype(bool)
        probs *= np.where(up, p[i], 1.0 - p[i])
    return probs


def expectation_oracle(mu, obs):
    sv = states_of(mu.n_sites)
    pos = {s: p for p, s in enumerate(mu.volume)}
    if isinstance(obs, Observable):
        return float(mu.probs @ obs.table[gather_bits(sv, [pos[s] for s in obs.support])])
    mask = 0
    for s in obs:
        mask ^= 1 << pos[s]
    return float(mu.probs @ spin_product(sv, mask).astype(float))


def marginal_oracle(probs, sites, n):
    keys = gather_bits(states_of(n), sorted(set(sites)))
    return np.bincount(keys, weights=probs, minlength=1 << len(set(sites)))


def flip_data_oracle(flips, diag):
    """The data of M and M^T in _flip_matrices, transposed by a gather."""
    n, size = flips.shape
    cols = np.arange(size)[:, None] ^ (1 << np.arange(n))
    data = np.column_stack([flips.T, diag])
    data_t = data.copy()
    data_t[:, :n] = np.take_along_axis(flips, cols.T, axis=1).T
    return data.reshape(-1), data_t.reshape(-1)


def random_potential(dim, rng):
    """A field, a pair and a three-site shape with random tables; on small
    sides their wrapped translates repeat sites."""
    e = [tuple(1 if b == a else 0 for b in range(dim)) for a in range(dim)]
    zero = (0,) * dim
    far = tuple(2 if a == 0 else 1 for a in range(dim))
    return Potential(
        dim,
        [((zero,), rng.normal(size=2)), ((zero, e[-1]), rng.normal(size=4)), ((zero, e[0], far), rng.normal(size=8))],
    )


def random_rates(torus, rng):
    """Rates whose per-site key positions are drawn with replacement, so
    most sites read some position twice."""
    n = torus.n_sites
    terms = []
    for _ in range(n):
        k = int(rng.integers(0, 5))
        terms.append((tuple(int(s) for s in rng.integers(n, size=k)), rng.random(1 << k) + 0.1))
    return RateModel(torus, terms, "random")


@pytest.fixture(params=GRID, ids=str)
def torus(request):
    return Torus(request.param)


@pytest.fixture
def rng(torus):
    return np.random.default_rng([torus.n_sites, torus.dim])


class TestBitTensor:
    def test_table_view_reads_the_gathered_key(self, torus, rng):
        n = torus.n_sites
        for k in range(6):
            positions = [int(s) for s in rng.integers(n, size=k)]
            table = rng.normal(size=1 << k)
            full = np.broadcast_to(bit_tensor(table, n, positions), (2,) * n).reshape(-1)
            assert_bitwise(full, table[gather_bits(states_of(n), positions)])

    def test_state_view_is_the_reshape(self, torus):
        n = torus.n_sites
        values = np.arange(1 << n, dtype=float)
        view = bit_tensor(values, n)
        view[(1,) + (0,) * (n - 1)] = -1.0  # the top site's axis comes first
        assert values[1 << (n - 1)] == -1.0

    @pytest.mark.parametrize(
        "table, positions, needle",
        [(np.zeros(4), [0], "table length"), (np.zeros(2), [3], "position 3 outside"), (np.zeros(2), [-1], "outside")],
    )
    def test_bad_tables_are_refused(self, table, positions, needle):
        with pytest.raises(ValueError, match=needle):
            bit_tensor(table, 3, positions)


class TestOracles:
    def test_rate_matrix(self, torus, rng):
        for rates in (
            random_rates(torus, rng),
            GlauberRates(torus, random_potential(torus.dim, rng)),
            PerturbedRates(torus, [(0,) * torus.dim, (1,) * torus.dim, (-1,) * torus.dim], 0.9 * rng.uniform(-1, 1, 8)),
        ):
            assert_bitwise(rates.rate_matrix(), rate_matrix_oracle(rates))

    def test_hamiltonians(self, torus, rng):
        pot = random_potential(torus.dim, rng)
        n = torus.n_sites
        assert_bitwise(hamiltonian_periodic(pot, torus), energy_oracle(pot.periodic_terms(torus), n))
        eta = {}
        random_eta = BoundaryCondition.fixed(lambda c: eta.setdefault(c, int(rng.choice([-1, 1]))))
        for boundary in (BoundaryCondition.fixed(1), BoundaryCondition.fixed(-1), random_eta):
            for volume in (tuple(torus.sites()), tuple(range(0, n, 2))):
                _, terms = fixed_volume_terms(pot, torus, volume, boundary)
                got = hamiltonian_fixed(pot, torus, volume, boundary)
                assert_bitwise(got, energy_oracle(terms, len(volume)))

    def test_flip_data(self, torus, rng):
        n = torus.n_sites
        flips, diag = rng.random((n, 1 << n)), rng.random(1 << n)
        p, pt = _flip_matrices(flips, diag)
        want_p, want_pt = flip_data_oracle(flips, diag)
        assert_bitwise(p.data, want_p)
        assert_bitwise(pt.data, want_pt)

    def test_engine_operator(self, torus, rng):
        """The folded (flip-symmetric) and full operators of an engine."""
        for rates in (GlauberRates(torus, Potential.ising_nn(torus.dim, 0.6)), random_rates(torus, rng)):
            engine = SemigroupEngine(rates)
            c = rate_matrix_oracle(rates)
            exit_rate, inv = c.sum(axis=0), 1.0 / engine.lam
            if engine.flip_symmetric:
                h = c.shape[1] // 2
                c, exit_rate = c[:-1, :h], exit_rate[:h]
            want_p, want_pt = flip_data_oracle(c * inv, 1.0 - exit_rate * inv)
            assert_bitwise(engine.p.data, want_p)
            assert_bitwise(engine.pt.data, want_pt)

    def test_dense_observables(self, torus, rng):
        n = torus.n_sites
        for k in range(min(n, 4) + 1):
            sites = tuple(int(s) for s in rng.choice(n, size=k, replace=False))
            f = Observable(torus, sites, rng.normal(size=1 << k))
            assert_bitwise(f.dense_values(), f.table[gather_bits(states_of(n), f.support)])
            mask = sum(1 << s for s in sites)
            assert_bitwise(monomial_values_dense(torus, sites), spin_product(states_of(n), mask).astype(float))

    def test_lipschitz_vector_dense(self, torus, rng):
        n = torus.n_sites
        values = rng.normal(size=1 << n)
        want = [np.max(np.abs(values[states_of(n) ^ (1 << i)] - values)) for i in range(n)]
        assert_bitwise(lipschitz_vector_dense(n, values), np.array(want))

    def test_product_measure(self, torus, rng):
        n = torus.n_sites
        p = rng.random(n)
        assert_bitwise(product_measure(torus, p), product_measure_oracle(n, p))
        assert_bitwise(product_measure(torus, 0.3), product_measure_oracle(n, [0.3] * n))

    def test_expectation(self, torus, rng):
        n = torus.n_sites
        pot = random_potential(torus.dim, rng)
        half = tuple(range(0, n, 2))
        for mu in (gibbs_measure(pot, torus), gibbs_measure(pot, torus, BoundaryCondition.fixed(1), half)):
            k = min(len(mu.volume), 3)
            sites = tuple(int(s) for s in rng.choice(mu.volume, size=k, replace=False))
            f = Observable(torus, sites, rng.normal(size=1 << k))
            assert mu.expectation(f) == expectation_oracle(mu, f)
            for a in (sites, sites + sites[:1], ()):
                assert mu.expectation(a) == expectation_oracle(mu, a)

    def test_translate_states(self, torus, rng):
        # permute_states by a translation's site image moves each state's
        # spins as scattering its bits there does
        n = torus.n_sites
        offsets = [tuple(1 if b == a else 0 for b in range(torus.dim)) for a in range(torus.dim)]
        for offset in offsets + [tuple(int(x) for x in rng.integers(-3, 4, size=torus.dim))]:
            targets = [torus.translate(i, offset) for i in torus.sites()]
            assert_bitwise(permute_states(states_of(n), n, targets), scatter_bits(states_of(n), targets))

    def test_marginal(self, torus, rng):
        """Within 1e-15 relative of the exactly rounded sums, and within the
        a priori bound of the oracle's sequential sums: (m - 1) 2^-53
        relative for m terms per entry."""
        n = torus.n_sites
        probs = rng.random(1 << n)
        probs /= probs.sum()
        for k in range(n + 1):
            sites = tuple(int(s) for s in rng.choice(n, size=k, replace=False))
            got = marginal(probs, sites, n)
            keys = gather_bits(states_of(n), sorted(sites))
            order = np.argsort(keys, kind="stable")
            groups = np.split(probs[order], np.cumsum(np.bincount(keys, minlength=1 << k))[:-1])
            exact = np.array([math.fsum(g) for g in groups])
            np.testing.assert_allclose(got, exact, rtol=1e-15, atol=0)
            m = 1 << (n - k)
            np.testing.assert_allclose(got, marginal_oracle(probs, sites, n), rtol=1e-15 + (m - 1) * 2.0**-53, atol=0)


def test_fixed_boundaries_are_exact_mirrors(torus, rng):
    """For a potential whose tables are even under the global flip, the
    minus state is the plus state read backwards, bit for bit."""
    pot = random_potential(torus.dim, rng)
    even = Potential(torus.dim, [(s.offsets, s.table + s.table[::-1]) for s in pot.shapes])
    plus = gibbs_measure(even, torus, BoundaryCondition.fixed(1))
    minus = gibbs_measure(even, torus, BoundaryCondition.fixed(-1))
    assert_bitwise(minus.probs, plus.probs[::-1])
    assert minus.log_z == plus.log_z
