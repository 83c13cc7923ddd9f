import numpy as np
import pytest

from spinflip.lattice import (
    Observable,
    SpinConfiguration,
    Torus,
    discrete_gradient,
    flip,
    gather_bits,
    lipschitz_norm,
    lipschitz_vector,
    lipschitz_vector_dense,
    monomial_eval,
    monomial_values_dense,
    permute_states,
    scatter_bits,
    spin_product,
)


def loop_gather(state, positions):
    return sum(((state >> p) & 1) << j for j, p in enumerate(positions))


def loop_scatter(key, positions):
    return sum(((key >> j) & 1) << p for j, p in enumerate(positions))


def loop_spin_product(state, sites):
    out = 1
    for i in sites:
        out *= 1 if (state >> i) & 1 else -1
    return out


class TestBitHelpers:
    def test_gather_matches_loop_on_arrays_and_ints(self):
        rng = np.random.default_rng(0)
        states = rng.integers(0, 1 << 12, size=200, dtype=np.int64)
        for _ in range(20):
            positions = [int(p) for p in rng.choice(12, size=rng.integers(0, 6), replace=False)]
            keys = gather_bits(states, positions)
            assert keys.dtype == np.int64
            assert keys.tolist() == [loop_gather(int(s), positions) for s in states]
            assert gather_bits(int(states[0]), positions) == loop_gather(int(states[0]), positions)

    def test_scatter_inverts_gather(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            positions = [int(p) for p in rng.choice(14, size=rng.integers(1, 7), replace=False)]
            keys = np.arange(1 << len(positions), dtype=np.int64)
            states = scatter_bits(keys, positions)
            assert states.tolist() == [loop_scatter(int(k), positions) for k in keys]
            assert np.array_equal(gather_bits(states, positions), keys)
            assert scatter_bits(5, positions) == loop_scatter(5, positions)
            state = int(rng.integers(0, 1 << 14))
            key = gather_bits(state, positions)
            mask = sum(1 << p for p in positions)
            assert scatter_bits(key, positions) == state & mask

    def test_repeated_positions_keep_their_own_bits(self):
        # multiset keys: a site listed twice fills two key bits
        positions = (3, 1, 3)
        for state in range(16):
            assert gather_bits(state, positions) == loop_gather(state, positions)
        states = np.arange(16, dtype=np.int64)
        assert gather_bits(states, positions).tolist() == [loop_gather(s, positions) for s in range(16)]

    def test_python_ints_beyond_int64(self):
        state = (1 << 64) - 1 - (1 << 5) + (1 << 70)
        positions = (63, 5, 64, 70, 0)
        assert state >= 1 << 63
        assert gather_bits(state, positions) == loop_gather(state, positions) == 0b11001
        assert scatter_bits(0b10111, positions) == loop_scatter(0b10111, positions)
        mask = (1 << 63) | (1 << 64) | (1 << 70)
        assert spin_product(state, mask) == loop_spin_product(state, (63, 64, 70)) == -1

    def test_spin_product_matches_per_site_product(self):
        rng = np.random.default_rng(2)
        states = np.arange(1 << 9, dtype=np.int64)
        for _ in range(20):
            sites = [int(s) for s in rng.choice(9, size=rng.integers(0, 6), replace=False)]
            mask = sum(1 << s for s in sites)
            signs = spin_product(states, mask)
            assert np.issubdtype(signs.dtype, np.integer)
            assert signs.tolist() == [loop_spin_product(int(s), sites) for s in states]
            assert type(spin_product(7, mask)) is int
            assert spin_product(7, mask) == loop_spin_product(7, sites)


def test_torus_indexing_roundtrip():
    t = Torus((3, 4))
    assert t.n_sites == 12
    for s in t.sites():
        assert t.site(t.coord(s)) == s
    assert t.site((3, 4)) == t.site((0, 0))
    assert t.site((-1, -1)) == t.site((2, 3))


def test_torus_distance_wraps():
    t = Torus((6,))
    assert t.distance(0, 5) == 1
    assert t.distance(0, 3) == 3
    t2 = Torus((4, 4))
    assert t2.distance(t2.site((0, 0)), t2.site((3, 3))) == 1


def test_flip_involution_and_spin():
    t = Torus((5,))
    rng = np.random.default_rng(0)
    for _ in range(50):
        bits = int(rng.integers(0, 1 << 5))
        s = SpinConfiguration(t, bits)
        i = int(rng.integers(0, 5))
        assert s.flip(i).flip(i) == s
        assert monomial_eval(s.flip(i), (i,)) == -monomial_eval(s, (i,))
    assert flip(flip(7, 2), 2) == 7


def test_monomial_sign_rule_under_flip():
    # sigma_A(sigma^i) = -sigma_A(sigma) iff i in A
    t = Torus((2, 3))
    rng = np.random.default_rng(1)
    for _ in range(100):
        bits = int(rng.integers(0, 1 << 6))
        a = tuple(rng.choice(6, size=rng.integers(1, 4), replace=False))
        i = int(rng.integers(0, 6))
        lhs = monomial_eval(flip(bits, i), a)
        rhs = -monomial_eval(bits, a) if i in a else monomial_eval(bits, a)
        assert lhs == rhs


def test_monomial_dense_matches_pointwise():
    t = Torus((4,))
    vals = monomial_values_dense(t, (0, 2))
    for s in range(16):
        assert vals[s] == monomial_eval(s, (0, 2))


@pytest.mark.parametrize("sites, needle", [((0, 0), "repeated site"), ((5,), "site 5 outside the torus")])
def test_monomial_dense_refuses_bad_sites(sites, needle):
    """A site off the torus is refused, not read as a minus spin."""
    with pytest.raises(ValueError, match=needle):
        monomial_values_dense(Torus((3,)), sites)


@pytest.mark.parametrize(
    "build, needle",
    [
        (lambda t: Observable.monomial(t, [0, 0]), "repeated site 0"),
        (lambda t: Observable.monomial_sum(t, [(1.0, (0,)), (0.5, (1, 2, 1))]), "repeated site 1"),
    ],
    ids=["monomial", "monomial-sum"],
)
def test_repeated_site_refused(build, needle):
    """sigma_i sigma_i = 1, not sigma_i: a repeated site is refused, not merged."""
    with pytest.raises(ValueError, match=needle):
        build(Torus((3,)))


def test_observable_monomial_table():
    t = Torus((4,))
    f = Observable.monomial(t, (1, 3))
    for s in range(16):
        assert f(s) == monomial_eval(s, (1, 3))
    g = Observable.monomial_sum(t, [(0.5, (0,)), (-2.0, (1, 2))])
    for s in range(16):
        want = 0.5 * monomial_eval(s, (0,)) - 2.0 * monomial_eval(s, (1, 2))
        assert abs(g(s) - want) < 1e-14


def test_observable_arithmetic_and_dense():
    t = Torus((4,))
    f = Observable.monomial(t, (0,))
    g = Observable.monomial(t, (2, 3))
    h = 2.0 * f + g + 1.0
    dense = h.dense_values()
    for s in range(16):
        want = 2 * monomial_eval(s, (0,)) + monomial_eval(s, (2, 3)) + 1
        assert abs(dense[s] - want) < 1e-14
        assert abs(h(s) - want) < 1e-14


def test_discrete_gradient_off_support_is_zero():
    t = Torus((6,))
    f = Observable.monomial(t, (1, 2))
    cfg = SpinConfiguration(t, 0b10110)
    assert discrete_gradient(f, 4, cfg) == 0.0
    assert discrete_gradient(f, 1, cfg) == -2.0 * f(cfg)


def test_lipschitz_vector_of_monomial():
    t = Torus((5,))
    f = Observable.monomial(t, (0, 3))
    delta = lipschitz_vector(f)
    want = np.zeros(5)
    want[0] = want[3] = 2.0
    assert np.array_equal(delta, want)
    assert lipschitz_norm(delta, 2) == pytest.approx(np.sqrt(8.0))
    assert lipschitz_norm(delta, 1) == pytest.approx(4.0)
    assert lipschitz_norm(delta, np.inf) == pytest.approx(2.0)


def test_lipschitz_norm_homogeneous_and_monotone():
    rng = np.random.default_rng(3)
    for _ in range(25):
        d = np.abs(rng.normal(size=6))
        c = float(np.abs(rng.normal()) + 0.1)
        for p in (1.0, 2.0, 3.5, np.inf):
            assert lipschitz_norm(c * d, p) == pytest.approx(c * lipschitz_norm(d, p))
        assert lipschitz_norm(d, np.inf) <= lipschitz_norm(d, 2) + 1e-12
        assert lipschitz_norm(d, 2) <= lipschitz_norm(d, 1) + 1e-12


def test_lipschitz_vector_single_site_example():
    # f = sigma_0 has delta_0 f = 2 and ||delta f||_2^2 = 4
    t = Torus((3,))
    f = Observable.monomial(t, (0,))
    delta = lipschitz_vector(f)
    assert delta[0] == 2.0
    assert lipschitz_norm(delta, 2) ** 2 == pytest.approx(4.0)


def test_lipschitz_vector_dense_agrees_with_table():
    t = Torus((5,))
    rng = np.random.default_rng(4)
    for _ in range(10):
        terms = [
            (float(rng.normal()), tuple(rng.choice(5, size=rng.integers(1, 4), replace=False)))
            for _ in range(3)
        ]
        f = Observable.monomial_sum(t, terms)
        assert np.allclose(
            lipschitz_vector(f), lipschitz_vector_dense(5, f.dense_values())
        )


def test_lipschitz_cap_raises():
    t = Torus((30,))
    with pytest.raises(ValueError):
        f = Observable.monomial(t, tuple(range(25)))
        lipschitz_vector(f)


def test_translate_states_moves_monomials():
    t = Torus((4,))
    # the states moved by the translation i -> i + 1
    perm = permute_states(np.arange(16), 4, [t.translate(i, (1,)) for i in t.sites()])
    f = monomial_values_dense(t, (0, 1))
    g = monomial_values_dense(t, (1, 2))
    # evaluating sigma_{A+1} at the translated state equals sigma_A at the original
    assert np.array_equal(g[perm], f)


@pytest.mark.parametrize(
    "sides, count",
    # translations x reflections x swaps of equal sides; on sides 1 and 2 a
    # reflection is the identity or a translation
    [((1,), 1), ((2,), 2), ((5,), 10), ((12,), 24), ((2, 2), 8), ((2, 3), 12), ((3, 4), 48), ((4, 4), 128)],
    ids=str,
)
def test_automorphisms_keep_the_torus_distance(sides, count):
    torus = Torus(sides)
    autos = torus.automorphisms()
    assert autos.shape == (count, torus.n_sites)
    assert np.array_equal(autos[0], np.arange(torus.n_sites))
    assert len({g.tobytes() for g in autos}) == count
    pairs = [(i, j) for i in torus.sites() for j in torus.sites()]
    for g in autos:
        assert sorted(g.tolist()) == list(torus.sites())
        assert all(torus.distance(g[i], g[j]) == torus.distance(i, j) for i, j in pairs)
    # every translation is one of them
    for offset in [(1,) + (0,) * (torus.dim - 1), (0,) * (torus.dim - 1) + (1,)]:
        moved = [torus.translate(i, offset) for i in torus.sites()]
        assert any(g.tolist() == moved for g in autos)


@pytest.mark.parametrize("sides", [(5,), (3, 3), (2, 4)], ids=str)
def test_permute_states_moves_spins_to_the_image_sites(sides):
    torus = Torus(sides)
    n = torus.n_sites
    states = np.arange(1 << n, dtype=np.int64)
    autos = torus.automorphisms()
    rng = np.random.default_rng(n)
    values = rng.normal(size=states.size)
    for g, h in zip(autos, autos[rng.permutation(len(autos))]):
        # g(s) carries spin_i(s) to site g[i]
        assert np.array_equal(permute_states(states, n, g), scatter_bits(states, g))
        # moving by g, then by h, is moving by g after h
        assert np.array_equal(permute_states(permute_states(values, n, g), n, h), permute_states(values, n, g[h]))
    a = (0,) if torus.dim == 1 else (0, 1)
    f = monomial_values_dense(torus, a)
    for g in autos:
        # sigma_A at g(s) is sigma_{g^-1 A} at s
        pre = [int(np.flatnonzero(g == i)[0]) for i in a]
        assert np.array_equal(permute_states(f, n, g), monomial_values_dense(torus, pre))
