import tracemalloc

import numpy as np
import pytest

from spinflip import dynamics, entropy, gibbs, lattice
from spinflip.dynamics import IndependentRates
from spinflip.entropy import marginal
from spinflip.gibbs import (
    BoundaryCondition,
    Potential,
    dirac_vector,
    gibbs_measure,
    hamiltonian_fixed,
    hamiltonian_periodic,
    product_measure,
    uniform_measure,
)
from spinflip.lattice import (
    Observable,
    SpinConfiguration,
    Torus,
    dense_size,
    monomial_eval,
    monomial_values_dense,
    permute_states,
)


def ising_ring_pair_correlation(n, beta):
    """Transfer-matrix oracle for <sigma_0 sigma_1> on an n-ring,
    H = -beta sum sigma_i sigma_{i+1}."""
    t = np.array([[np.exp(beta), np.exp(-beta)], [np.exp(-beta), np.exp(beta)]])
    s = np.diag([1.0, -1.0])
    tn1 = np.linalg.matrix_power(t, n - 1)
    z = np.trace(t @ tn1)
    return np.trace(s @ t @ s @ tn1) / z


def ising_ring_log_z(n, beta):
    lam_p = 2.0 * np.cosh(beta)
    lam_m = 2.0 * np.sinh(beta)
    return float(np.log(lam_p**n + lam_m**n))


class TestPotential:
    def test_two_site_ring_energy(self):
        # one bond term per site: H = -2 beta sigma_0 sigma_1 on the 2-ring
        beta = 0.3
        pot = Potential.ising_nn(1, beta)
        t = Torus((2,))
        cfg = SpinConfiguration(t, 0b11)
        assert hamiltonian_periodic(pot, t, cfg) == pytest.approx(-2 * beta)
        assert hamiltonian_periodic(pot, t, cfg.flip(0)) == pytest.approx(2 * beta)

    def test_ring_energy_matches_bond_sum(self):
        beta = 0.4
        pot = Potential.ising_nn(1, beta)
        t = Torus((5,))
        rng = np.random.default_rng(0)
        for _ in range(20):
            bits = int(rng.integers(0, 32))
            cfg = SpinConfiguration(t, bits)
            want = -beta * sum(monomial_eval(cfg, (i, (i + 1) % 5)) for i in range(5))
            assert hamiltonian_periodic(pot, t, cfg) == pytest.approx(want)

    def test_dobrushin_constant_ising(self):
        for beta in (0.1, 0.2, 0.4):
            pot = Potential.ising_nn(1, beta)
            assert pot.dobrushin_constant() == pytest.approx(2 * beta, abs=1e-15)
        # 2D: two bond orientations double the sum
        pot = Potential.ising_nn(2, 0.1)
        assert pot.dobrushin_constant() == pytest.approx(4 * 0.1, abs=1e-15)

    def test_single_site_field_has_zero_dobrushin(self):
        pot = Potential.external_field(1, 0.7)
        assert pot.dobrushin_constant() == 0.0
        assert pot.gcb_constant_dobrushin() == pytest.approx(0.5)

    def test_gcb_constant_values(self):
        pot = Potential.ising_nn(1, 0.4)
        assert pot.dobrushin_constant() == pytest.approx(0.8)
        assert pot.gcb_constant_dobrushin() == pytest.approx(12.5)
        with pytest.raises(ValueError):
            Potential.ising_nn(1, 0.5).gcb_constant_dobrushin()

    def test_interaction_range(self):
        assert Potential.ising_nn(1, 0.2).interaction_range() == 1
        assert Potential.external_field(1, 1.0).interaction_range() == 0

    def test_file_roundtrip(self, tmp_path):
        pot = Potential.ising_nn(2, 0.25) + Potential.external_field(2, -0.3)
        path = tmp_path / "u.pot"
        path.write_text(
            "# 2D Ising bonds at beta = 0.25 plus a field h = -0.3\n"
            "0,0 1,0 | -0.25 0.25 0.25 -0.25\n"
            "0,0 0,1 | -0.25 0.25 0.25 -0.25\n"
            "\n"
            "0,0 | -0.3 0.3\n"
        )
        back = Potential.load(path)
        assert back.dim == 2
        assert len(back.shapes) == len(pot.shapes)
        for a, b in zip(pot.shapes, back.shapes):
            assert a.offsets == b.offsets
            assert np.allclose(a.table, b.table)

    def test_file_value_order_documented(self, tmp_path):
        # first listed offset is the most significant bit:
        # values are v(--), v(-+), v(+-), v(++)
        path = tmp_path / "u.pot"
        path.write_text("0 1 | 10.0 20.0 30.0 40.0\n")
        pot = Potential.load(path)
        t = Torus((8,))
        cfg = SpinConfiguration(t, 0b1)  # spin +1 at site 0, -1 elsewhere
        # the term anchored at 0 contributes v(+-) = 30
        terms = pot.periodic_terms(t)
        sites, table = terms[0]
        assert sites == (0, 1)
        key = (cfg.bits >> 0 & 1) | ((cfg.bits >> 1 & 1) << 1)
        assert table[key] == 30.0

    def test_canonicalization_translates_to_origin(self):
        pot = Potential(1, [(((3,), (4,)), np.array([1.0, 2.0, 3.0, 4.0]))])
        assert pot.shapes[0].offsets == ((0,), (1,))


    @pytest.mark.parametrize(
        "shape, match",
        [
            (((), [1.0]), "no offset"),
            ((((0,), (1, 0)), [1, 2, 3, 4]), "dimension mismatch"),
            ((((0,), (1,)), [np.nan, 1, 1, 1]), "non-finite"),
        ],
        ids=["empty-shape", "mixed-dimension", "nan-value"],
    )
    def test_malformed_shape_rejected(self, shape, match):
        with pytest.raises(ValueError, match=match):
            Potential(1, [shape])


class TestGibbsMeasure:
    def test_pair_correlation_matches_transfer_matrix(self):
        for n, beta in [(6, 0.3), (8, 0.45), (10, 0.2)]:
            t = Torus((n,))
            mu = gibbs_measure(Potential.ising_nn(1, beta), t)
            got = mu.expectation((0, 1))
            want = ising_ring_pair_correlation(n, beta)
            assert got == pytest.approx(want, abs=1e-12)

    def test_log_z_matches_transfer_matrix(self):
        for n, beta in [(5, 0.3), (9, 0.6)]:
            t = Torus((n,))
            mu = gibbs_measure(Potential.ising_nn(1, beta), t)
            assert mu.log_z == pytest.approx(ising_ring_log_z(n, beta), abs=1e-10)

    def test_probability_vector(self):
        t = Torus((3, 3))
        mu = gibbs_measure(Potential.ising_nn(2, 0.25), t)
        assert mu.probs.shape == (512,)
        assert np.all(mu.probs >= 0)
        assert mu.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_translation_invariance_periodic(self):
        t = Torus((6,))
        mu = gibbs_measure(Potential.ising_nn(1, 0.35), t)
        moved = permute_states(mu.probs, 6, [t.translate(i, (1,)) for i in t.sites()])
        assert np.allclose(moved, mu.probs, atol=1e-14)

    def test_spin_flip_symmetry_without_field(self):
        t = Torus((5,))
        mu = gibbs_measure(Potential.ising_nn(1, 0.3), t)
        flipped = mu.probs[::-1]  # global flip maps state s to ~s = 2^N-1-s
        assert np.allclose(mu.probs, flipped, atol=1e-14)
        assert mu.expectation((0,)) == pytest.approx(0.0, abs=1e-13)

    def test_field_breaks_symmetry(self):
        t = Torus((4,))
        mu = gibbs_measure(
            Potential.ising_nn(1, 0.2) + Potential.external_field(1, 0.4), t
        )
        assert mu.expectation((0,)) > 0.1

    def test_repeated_sites_cancel(self):
        t = Torus((4,))
        mu = gibbs_measure(
            Potential.ising_nn(1, 0.2) + Potential.external_field(1, 0.4), t
        )
        assert mu.expectation((1, 1)) == pytest.approx(1.0, abs=1e-14)
        assert mu.expectation((0, 1, 1)) == pytest.approx(mu.expectation((0,)), abs=1e-14)

    def test_site_outside_volume_rejected(self):
        t = Torus((4,))
        mu = gibbs_measure(
            Potential.ising_nn(1, 0.2) + Potential.external_field(1, 0.4), t
        )
        with pytest.raises(ValueError):
            mu.expectation((4,))

    def test_expectation_observable_matches_sites(self):
        t = Torus((5,))
        mu = gibbs_measure(Potential.ising_nn(1, 0.3), t)
        f = Observable.monomial(t, (1, 2))
        assert mu.expectation(f) == pytest.approx(mu.expectation((1, 2)), abs=1e-14)


class TestFixedBoundary:
    def test_plus_minus_boundaries_differ(self):
        t = Torus((3,))
        pot = Potential.ising_nn(1, 0.5)
        mu_p = gibbs_measure(pot, t, BoundaryCondition.fixed(+1))
        mu_m = gibbs_measure(pot, t, BoundaryCondition.fixed(-1))
        assert mu_p.expectation((0,)) > 0.3
        assert mu_m.expectation((0,)) == pytest.approx(-mu_p.expectation((0,)))
        assert 0.5 * np.abs(mu_p.probs - mu_m.probs).sum() > 1e-3

    def test_fixed_energy_counts_boundary_bonds(self):
        # 3 sites in a line with + boundary: bonds (b,0),(0,1),(1,2),(2,b)
        t = Torus((3,))
        pot = Potential.ising_nn(1, 0.3)
        e = hamiltonian_fixed(pot, t, (0, 1, 2), BoundaryCondition.fixed(+1), 0b111)
        assert e == pytest.approx(-0.3 * 4)
        e2 = hamiltonian_fixed(pot, t, (0, 1, 2), BoundaryCondition.fixed(+1), 0b101)
        # bonds: +-, -+, +- , ++  -> energies +b +b -b -b ... recount: (b,0)=+,+ gives -b? spins: site0=+,1=-,2=+
        # (boundary,0): ++ -> -b ; (0,1): +- -> +b ; (1,2): -+ -> +b ; (2,boundary): ++ -> -b
        assert e2 == pytest.approx(0.0, abs=1e-14)

    def test_dlr_interior_window(self):
        # conditional of the periodic measure on an interior window equals the
        # fixed-boundary measure with eta read off the conditioning state
        n = 7
        t = Torus((n,))
        pot = Potential.ising_nn(1, 0.4)
        mu = gibbs_measure(pot, t)
        window = (2, 3, 4)  # interior: halo {1,5} does not wrap
        rng = np.random.default_rng(5)
        for _ in range(5):
            outside_bits = int(rng.integers(0, 1 << n))
            eta = {
                t.coord(s): (1 if (outside_bits >> s) & 1 else -1)
                for s in t.sites()
                if s not in window
            }
            nu = gibbs_measure(pot, t, BoundaryCondition.fixed(eta), volume=window)
            # conditional by brute force
            cond = np.zeros(8)
            for k in range(8):
                bits = outside_bits
                for j, s in enumerate(window):
                    bits = (bits & ~(1 << s)) | (((k >> j) & 1) << s)
                cond[k] = mu.probs[bits]
            cond /= cond.sum()
            assert np.allclose(nu.probs, cond, atol=1e-12)

    def test_free_boundary_differs_from_periodic(self):
        # fixed-bc box semantics never wraps: with eta touching only via bonds,
        # a full-volume fixed measure lacks the wrap bond
        t = Torus((4,))
        pot = Potential.ising_nn(1, 0.5)
        mu_per = gibbs_measure(pot, t)
        mu_p = gibbs_measure(pot, t, BoundaryCondition.fixed(+1))
        assert not np.allclose(mu_per.probs, mu_p.probs, atol=1e-6)

    def test_enumeration_cap(self):
        t = Torus((21,))
        with pytest.raises(ValueError):
            gibbs_measure(Potential.ising_nn(1, 0.1), t)

    @pytest.mark.parametrize(
        "build",
        [
            lambda t: gibbs_measure(Potential.ising_nn(1, 0.1), t),
            lambda t: gibbs_measure(Potential.ising_nn(1, 0.1), t, BoundaryCondition.fixed(+1)),
            uniform_measure,
            lambda t: product_measure(t, 0.5),
            lambda t: dirac_vector(t, 0),
            lambda t: IndependentRates(t).rate_matrix(),
            lambda t: Observable.monomial(t, [0]).dense_values(),
            lambda t: monomial_values_dense(t, [0]),
            lambda t: permute_states(np.arange(dense_size(t.n_sites)), t.n_sites, [t.translate(i, (1,)) for i in t.sites()]),
            lambda t: marginal(np.broadcast_to(0.0, (1 << t.n_sites,)), [0]),
        ],
        ids=["gibbs-periodic", "gibbs-fixed", "uniform", "product", "dirac", "rate-matrix", "dense-values", "monomial", "translate", "marginal"],
    )
    def test_dense_builders_share_the_cap(self, build, monkeypatch):
        """The cap is checked before any state tensor is viewed or any
        2^N-sized array is allocated."""
        views, real = [], lattice.bit_tensor

        def spy(*args):
            views.append(real(*args))
            return views[-1]

        for module in (lattice, gibbs, dynamics, entropy):
            monkeypatch.setattr(module, "bit_tensor", spy)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="21 sites exceeds the dense-state cap 20"):
                build(Torus((21,)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert views == []
        assert peak < 1 << 21

    @pytest.mark.parametrize("state", [-1, 8, 1 << 40])
    def test_dirac_state_out_of_range_rejected(self, state):
        with pytest.raises(ValueError, match="out of range for 3 sites"):
            dirac_vector(Torus((3,)), state)

    def test_dirac_vector_is_a_point_mass(self):
        assert np.array_equal(dirac_vector(Torus((3,)), 7), np.eye(8)[7])
        assert np.array_equal(dirac_vector(Torus((3,)), SpinConfiguration(Torus((3,)), 5)), np.eye(8)[5])

    @pytest.mark.parametrize("sides", [(1,), (5,), (3, 3)], ids=str)
    def test_flip_symmetric_measures_are_exact_mirrors(self, sides):
        t = Torus(sides)
        pot = Potential.ising_nn(t.dim, 0.6)
        plus = gibbs_measure(pot, t, BoundaryCondition.fixed(+1), volume=t.sites())
        minus = gibbs_measure(pot, t, BoundaryCondition.fixed(-1), volume=t.sites())
        periodic = gibbs_measure(pot, t)
        # state S - 1 - s is the global flip of s
        assert np.array_equal(minus.probs, plus.probs[::-1])
        assert np.array_equal(periodic.probs, periodic.probs[::-1])
        assert minus.log_z == plus.log_z
        assert plus.probs.sum() == pytest.approx(1.0, abs=1e-14)
