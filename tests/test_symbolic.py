"""Exact operator algebra: chains, generator powers, series, tail bounds."""

import math
from fractions import Fraction

import numpy as np
import pytest

from spinflip import cli, symbolic
from spinflip.dynamics import CustomRates, engine_for, generator_matrix
from spinflip.lattice import Observable, Torus
from spinflip.symbolic import (
    DeltaTail,
    GeneratorSpec,
    GeometricTail,
    POWER_CAP,
    SetPolynomial,
    analyticity_radius,
    apply_chain,
    apply_generator_power,
    as_monomial,
    chain_bound,
    combinatorial_sum,
    generator_powers,
    infinite_range_bound,
    realize_polynomial,
    truncated_series,
)


def random_shape(rng, max_size=3, span=3, allow_empty=True):
    lo = 0 if allow_empty else 1
    size = int(rng.integers(lo, max_size + 1))
    sites = rng.choice(np.arange(-span, span + 1), size=size, replace=False)
    return frozenset((int(s),) for s in sites)


def evaluate(poly, sigma) -> Fraction:
    """The value of poly at a spin assignment {coordinate: +-1}."""
    return sum((c * math.prod(sigma[site] for site in key) for key, c in poly.terms.items()), Fraction(0))


def brute_sup(poly):
    support = sorted(poly.support())
    best = Fraction(0)
    for pattern in range(1 << len(support)):
        sigma = {s: 1 if (pattern >> j) & 1 else -1 for j, s in enumerate(support)}
        best = max(best, abs(evaluate(poly, sigma)))
    return best


def chain_recursion(shapes, a):
    """Direct iterated expansion: (-2)^n sums over i_k in the running set."""
    terms = {}

    def rec(depth, current, coeff):
        if depth == len(shapes):
            terms[current] = terms.get(current, Fraction(0)) + coeff
            return
        b = shapes[depth]
        for i in current:
            nxt = frozenset(tuple(x + y for x, y in zip(s, i)) for s in b) ^ current
            rec(depth + 1, nxt, -2 * coeff)

    rec(0, a, Fraction(1))
    return {k: v for k, v in terms.items() if v != 0}


def translate(shape, i):
    return frozenset(tuple(x + y for x, y in zip(s, i)) for s in shape)


def generator_recursion(shapes, poly, n):
    """n applications of sum_B lambda(B) L_B on a {monomial: Fraction} dict,
    term by term; also returns how many monomials summed to zero."""
    terms = dict(poly)
    cancelled = 0
    for _ in range(n):
        out = {}
        for a, coeff in terms.items():
            for b, lam in shapes.items():
                for i in a:
                    key = translate(b, i) ^ a
                    out[key] = out.get(key, Fraction(0)) - 2 * lam * coeff
        terms = {k: v for k, v in out.items() if v != 0}
        cancelled += len(out) - len(terms)
    return terms, cancelled


def random_polynomial(rng, dim, n_terms, span=2, max_size=3):
    terms = {}
    for _ in range(n_terms):
        size = int(rng.integers(0, max_size + 1))
        key = frozenset(tuple(int(x) for x in rng.integers(-span, span + 1, size=dim)) for _ in range(size))
        terms[key] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
    return SetPolynomial(terms)


class TestSetPolynomial:
    def test_monomial_product_is_symmetric_difference(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            g = random_shape(rng)
            f = random_shape(rng)
            support = sorted(g | f)
            for pattern in range(1 << len(support)):
                sigma = {s: 1 if (pattern >> j) & 1 else -1 for j, s in enumerate(support)}
                lhs = evaluate(SetPolynomial.monomial(g), sigma) * evaluate(SetPolynomial.monomial(f), sigma)
                rhs = evaluate(SetPolynomial.monomial(g ^ f), sigma)
                assert lhs == rhs

    def test_add_merges_and_drops_zeros(self):
        p = SetPolynomial.monomial([0], Fraction(1, 3))
        q = SetPolynomial.monomial([0], Fraction(-1, 3)) + SetPolynomial.monomial([1], 2)
        s = p + q
        assert s.terms == {as_monomial([1]): Fraction(2)}
        assert (p + p.scale(-1)).n_terms() == 0

    def test_exact_sup_matches_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            terms = {}
            for _ in range(int(rng.integers(1, 5))):
                key = random_shape(rng, max_size=3, span=2, allow_empty=True)
                terms[key] = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4)))
            poly = SetPolynomial(terms)
            if poly.n_terms() == 0:
                assert poly.exact_sup_norm() == 0
                continue
            assert poly.exact_sup_norm() == brute_sup(poly)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_walsh_hadamard_sup_matches_enumeration(self, dim):
        rng = np.random.default_rng(40 + dim)
        polys = [SetPolynomial(), SetPolynomial({frozenset(): Fraction(-7, 3)})]
        polys += [random_polynomial(rng, dim, int(rng.integers(1, 9))) for _ in range(40)]
        for poly in polys:
            assert poly.exact_sup_norm() == brute_sup(poly)
        assert polys[1].exact_sup_norm() == Fraction(7, 3)

    def test_sup_overflow_guard_boundary(self):
        # the guard reads coeff_l1 * scale, the bound on every butterfly sum
        x = (0,)
        at = SetPolynomial({frozenset(): 1 << 61, frozenset({x}): 1 << 61})
        below = SetPolynomial({frozenset(): 1 << 61, frozenset({x}): (1 << 61) - 1})
        assert at.exact_sup_norm() is None
        assert below.exact_sup_norm() == (1 << 62) - 1
        third = SetPolynomial({frozenset({x}): Fraction(1 << 62, 3)})
        assert third.exact_sup_norm() is None
        third = SetPolynomial({frozenset({x}): Fraction((1 << 62) - 1, 3)})
        assert third.exact_sup_norm() == Fraction((1 << 62) - 1, 3)

    def test_sup_unavailable_beyond_cap(self):
        poly = SetPolynomial.monomial(range(6), 1)
        assert poly.exact_sup_norm(cap=5) is None
        assert poly.exact_sup_norm(cap=6) == 1
        poly = poly + SetPolynomial.monomial([0, 2], Fraction(-1, 2)) + SetPolynomial.monomial([], 3)
        assert poly.exact_sup_norm(cap=5) is None
        assert poly.exact_sup_norm(cap=6) == brute_sup(poly) == Fraction(9, 2)

    def test_empty_polynomial_norms(self):
        z = SetPolynomial()
        assert z.coeff_l1() == 0
        assert z.exact_sup_norm() == 0


class TestApplyLB:
    def test_constant_is_killed(self):
        assert GeneratorSpec([([0], 1)]).apply(SetPolynomial.monomial([])).n_terms() == 0

    def test_empty_shape_counts_the_support(self):
        out = GeneratorSpec([([], 1)]).apply(SetPolynomial.monomial([0]))
        assert out.terms == {as_monomial([0]): Fraction(-2)}
        out3 = GeneratorSpec([([], 1)]).apply(SetPolynomial.monomial([0, 1, 5]))
        assert out3.terms == {as_monomial([0, 1, 5]): Fraction(-6)}

    def test_single_site_shape_annihilates_single_spin(self):
        out = GeneratorSpec([([0], 1)]).apply(SetPolynomial.monomial([0]))
        assert out.terms == {as_monomial([]): Fraction(-2)}

    def test_linearity(self):
        rng = np.random.default_rng(5)
        b = random_shape(rng, allow_empty=False)
        p = SetPolynomial.monomial([0, 1], Fraction(2, 3))
        q = SetPolynomial.monomial([-1], Fraction(-1, 2))
        lb = GeneratorSpec([(b, 1)])
        assert lb.apply(p + q) == lb.apply(p) + lb.apply(q)

    def test_chain_example_two_site_shape(self):
        res = apply_chain([[0, 1]], [0])
        assert res.lemma_bound == 2
        assert res.polynomial.terms == {as_monomial([1]): Fraction(-2)}
        assert res.exact_sup_norm == 2
        assert res.coeff_l1_norm == 2

    def test_chain_matches_direct_recursion(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            shapes = [random_shape(rng) for _ in range(n)]
            a = random_shape(rng, allow_empty=False)
            res = apply_chain(shapes, a)
            assert res.polynomial.terms == chain_recursion(shapes, a)
            assert res.coeff_l1_norm <= res.lemma_bound
            if res.exact_available:
                assert res.exact_sup_norm <= res.coeff_l1_norm

    def test_chain_bound_ignores_last_shape(self):
        a = [0, 2]
        big = apply_chain([[0], [0, 1, 2]], a)
        small = apply_chain([[0], [1]], a)
        assert big.lemma_bound == small.lemma_bound == 4 * 2 * 3

    def test_chain_functional_oracle_on_torus(self):
        # realize each L_B as a signed rate model and compose pointwise
        torus = Torus((10,))
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            shapes = [
                frozenset((int(s),) for s in rng.choice(np.arange(0, 3), size=rng.integers(0, 3), replace=False))
                for _ in range(n)
            ]
            a = frozenset((int(s),) for s in rng.choice(np.arange(0, 3), size=rng.integers(1, 3), replace=False))
            values = Observable.monomial(torus, [s[0] for s in sorted(a)]).dense_values()
            for b in shapes:
                offs = [o[0] for o in b]
                model = CustomRates(
                    torus,
                    dep_fn=lambda i, offs=offs: [(i + o) % 10 for o in offs],
                    rate_fn=lambda i, bits, offs=offs: math.prod(
                        1.0 if (bits >> ((i + o) % 10)) & 1 else -1.0 for o in offs
                    ),
                )
                values = generator_matrix(model) @ values
            res = apply_chain(shapes, a)
            want = realize_polynomial(res.polynomial, torus)
            np.testing.assert_allclose(values, want, atol=1e-9)

    def test_chain_requires_shapes(self):
        with pytest.raises(ValueError):
            apply_chain([], [0])

    def test_chain_bound_empty_start(self):
        res = apply_chain([[0], [1]], [])
        assert res.lemma_bound == 0
        assert res.coeff_l1_norm == 0


class TestGeneratorPower:
    def test_power_zero_is_identity(self):
        gen = GeneratorSpec([(((0,),), 1)])
        res = apply_generator_power(gen, 0, [2])
        assert res.polynomial.terms == {as_monomial([2]): Fraction(1)}
        assert res.loccast_bound == 1

    def test_empty_shape_scales_by_support(self):
        gen = GeneratorSpec([((), 1)])
        for n in range(4):
            res = apply_generator_power(gen, n, [0, 3])
            assert res.polynomial.terms == {as_monomial([0, 3]): Fraction(-4) ** n}

    def test_single_site_shape_second_power_vanishes(self):
        gen = GeneratorSpec([(((0,),), 1)])
        res = apply_generator_power(gen, 2, [0])
        assert res.polynomial.n_terms() == 0
        assert res.loccast_bound == 32

    def test_factorial_bound_on_random_specs(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            shapes = []
            seen = set()
            for _ in range(int(rng.integers(1, 4))):
                b = random_shape(rng, max_size=2, span=2)
                if b not in seen:
                    seen.add(b)
                    shapes.append((tuple(sorted(b)), Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 3)))))
            if not shapes or all(lam == 0 for _, lam in shapes):
                continue
            shapes = [(b, lam) for b, lam in shapes if lam != 0]
            gen = GeneratorSpec(shapes)
            a = random_shape(rng, max_size=2, allow_empty=False)
            n = int(rng.integers(1, 5))
            res = apply_generator_power(gen, n, a)
            assert res.coeff_l1_norm <= res.loccast_bound
            if res.exact_available:
                assert res.exact_sup_norm <= res.coeff_l1_norm

    def test_matches_lattice_generator(self):
        # one generator application equals the signed-rate lattice generator
        torus = Torus((9,))
        gen = GeneratorSpec([((), 1), (((1,),), Fraction(3, 10)), (((0,), (1,)), Fraction(-1, 5))])
        rates = CustomRates(
            torus,
            dep_fn=lambda i: [i, (i + 1) % 9],
            rate_fn=lambda i, bits: 1.0
            + 0.3 * (1.0 if (bits >> ((i + 1) % 9)) & 1 else -1.0)
            - 0.2
            * (1.0 if (bits >> i) & 1 else -1.0)
            * (1.0 if (bits >> ((i + 1) % 9)) & 1 else -1.0),
        )
        for a in ([0], [0, 1], [0, 2, 4]):
            res = apply_generator_power(gen, 1, a)
            want = realize_polynomial(res.polynomial, torus)
            got = generator_matrix(rates) @ Observable.monomial(torus, a).dense_values()
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_power_cap(self):
        gen = GeneratorSpec([(((0,),), 1)])
        with pytest.raises(ValueError):
            apply_generator_power(gen, 9, [0])

    def test_duplicate_shapes_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec([(((0,),), 1), (((0,),), 2)])

    @pytest.mark.parametrize(
        "call, needle",
        [
            (lambda: apply_generator_power(GeneratorSpec([((), 1)]), 1, [0, 0]), "repeated site 0"),
            (lambda: apply_chain([[0, 0]], [0]), "repeated site 0"),
            (lambda: GeneratorSpec([(((1,), (1,)), 1)]), r"repeated site \(1,\)"),
        ],
        ids=["power-start", "chain-shape", "generator-shape"],
    )
    def test_repeated_site_refused(self, call, needle):
        """sigma_i sigma_i = 1, so a repeated site is not sigma_i: refused."""
        with pytest.raises(ValueError, match=needle):
            call()

    @pytest.mark.parametrize(
        "text, needle",
        [("1/0 : 1\n", "zero denominator"), ("1 : 1 1\n", "repeated offset"), ("1 : 0,1 2,3 0,1\n", "repeated offset")],
        ids=["zero-denominator", "repeated-offset", "repeated-offset-2d"],
    )
    def test_load_rejects(self, tmp_path, text, needle):
        path = tmp_path / "bad.gen"
        path.write_text(text)
        with pytest.raises(ValueError, match=needle):
            GeneratorSpec.load(path)

    def test_file_roundtrip(self, tmp_path):
        gen = GeneratorSpec([((), Fraction(1)), (((1,),), Fraction(3, 10)), (((0,), (2,)), Fraction(-1, 7))])
        path = tmp_path / "model.gen"
        path.write_text("# decay, a right-neighbor coupling and a two-site shape\n1 :\n3/10 : 1\n\n-1/7 : 0 2\n")
        back = GeneratorSpec.load(path)
        assert back.shapes == gen.shapes
        assert back.k_max_shape == 2
        assert back.m_max_coeff == 1


class TestIntegerExpansion:
    SPECS = {
        "1d": {
            frozenset(): Fraction(1),
            frozenset({(-2,)}): Fraction(1, 3),
            frozenset({(-1,), (1,)}): Fraction(-1, 3),
            frozenset({(0,), (2,)}): Fraction(2, 5),
        },
        "2d": {
            frozenset(): Fraction(1, 2),
            frozenset({(-1, 0)}): Fraction(-1, 4),
            frozenset({(1, 0)}): Fraction(1, 4),
            frozenset({(0, -1), (1, 1)}): Fraction(1, 4),
            frozenset({(0, 0), (-1, 2)}): Fraction(-3, 7),
        },
    }
    # the last starts are spread wider than the expansion reaches, so the
    # box closes the gaps between their intervals
    STARTS = {
        "1d": [[0], [0, 1], [-3, 0, 4], [-40, 0, 9, 10**6]],
        "2d": [[(0, 0)], [(0, 0), (1, -1)], [(-2, 3), (0, 0)], [(0, 0), (0, 30), (25, -10**6)]],
    }

    @pytest.mark.parametrize("dim", ["1d", "2d"])
    def test_powers_match_fraction_oracle(self, dim):
        shapes = self.SPECS[dim]
        gen = GeneratorSpec(list(shapes.items()))
        cancelled = 0
        for start in self.STARTS[dim]:
            a = as_monomial(start)
            for n in range(5):
                want, dropped = generator_recursion(shapes, {a: Fraction(1)}, n)
                cancelled += dropped
                assert apply_generator_power(gen, n, start).polynomial.terms == want
        assert cancelled > 0  # the oracle saw monomials sum to zero

    @pytest.mark.parametrize("dim", [1, 2])
    def test_apply_on_rational_polynomials_matches_oracle(self, dim):
        shapes = self.SPECS[f"{dim}d"]
        gen = GeneratorSpec(list(shapes.items()))
        rng = np.random.default_rng(70 + dim)
        for _ in range(15):
            poly = random_polynomial(rng, dim, int(rng.integers(1, 7)))
            want, _ = generator_recursion(shapes, poly.terms, 2)
            assert gen.apply(gen.apply(poly)).terms == want
            b = next(iter(k for k in shapes if k))
            assert GeneratorSpec([(b, 1)]).apply(poly).terms == generator_recursion({b: Fraction(1)}, poly.terms, 1)[0]

    def test_opposite_coefficients_cancel(self):
        # shapes {1} and {-1} with opposite signs give -2 sigma_{0,1} and
        # +2 sigma_{-1,0}; the empty shape on p - p cancels outright
        gen = GeneratorSpec([((), Fraction(1, 2)), (((1,),), 1), (((-1,),), -1)])
        assert apply_generator_power(gen, 1, [0]).polynomial.terms == {
            as_monomial([-1, 0]): Fraction(2),
            as_monomial([0, 1]): Fraction(-2),
            as_monomial([0]): Fraction(-1),
        }
        both = SetPolynomial.monomial([0], 1) + SetPolynomial.monomial([5], -1)
        assert GeneratorSpec([([], 1)]).apply(both).terms == {
            as_monomial([0]): Fraction(-2),
            as_monomial([5]): Fraction(2),
        }
        assert GeneratorSpec([([], 1)]).apply(both + both.scale(-1)).n_terms() == 0

    @pytest.mark.parametrize("dim", ["1d", "2d"])
    def test_generator_powers_yield_each_power(self, dim):
        gen = GeneratorSpec([(b, lam) for b, lam in self.SPECS[dim].items() if len(b) < 2])
        start = self.STARTS[dim][1]
        powers = list(generator_powers(gen, POWER_CAP, start))
        assert len(powers) == POWER_CAP + 1
        for n, poly in enumerate(powers):
            assert poly == apply_generator_power(gen, n, start).polynomial

    def test_generator_powers_check_the_power(self):
        gen = GeneratorSpec([((), 1)])
        with pytest.raises(ValueError):
            next(generator_powers(gen, POWER_CAP + 1, [0]))
        with pytest.raises(ValueError):
            next(generator_powers(gen, -1, [0]))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec([(((0,), (0, 1)), 1)])
        with pytest.raises(ValueError):
            GeneratorSpec([(((0,),), 1), (((0, 1),), 1)])
        gen = GeneratorSpec([(((1,),), 1)])
        with pytest.raises(ValueError):
            apply_generator_power(gen, 1, [(0, 0)])
        with pytest.raises(ValueError):
            next(generator_powers(gen, 1, [(0, 0)]))
        with pytest.raises(ValueError):
            gen.apply(SetPolynomial.monomial([(0, 0)]))
        with pytest.raises(ValueError):
            GeneratorSpec([([(1, 0)], 1)]).apply(SetPolynomial.monomial([0]))
        assert GeneratorSpec([((), 1)]).dim == 1
        assert GeneratorSpec([(((0, 1), (2, 3)), 1)]).dim == 2


def random_generator(rng, dim):
    """Shapes within a box of side 3 around 0; coefficients k/d with d <= 6,
    so the integer numerators of a power often share a factor with den."""
    shapes = {}
    while not any(shapes):
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(0, 3))
            b = frozenset(tuple(int(x) for x in rng.integers(-1, 2, size=dim)) for _ in range(size))
            lam = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 7)))
            if lam:
                shapes.setdefault(b, lam)
    return GeneratorSpec(list(shapes.items()))


def fraction_series(gen, t, a, n_max):
    """The series sum read from the polynomials' Fraction terms."""
    acc = {}
    for n, poly in enumerate(generator_powers(gen, n_max, a)):
        w = t**n / math.factorial(n)
        for key, c in poly.terms.items():
            acc[key] = acc.get(key, 0.0) + w * float(c)
    return {k: v for k, v in acc.items() if v != 0.0}


class TestIntegerRoute:
    """Norms, bound checks and series sums read the expansion's integer form;
    frozensets and Fractions are built only when a polynomial's terms are
    read."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_norms_match_the_set_polynomial_route(self, dim):
        rng = np.random.default_rng(90 + dim)
        reduced = 0
        for _ in range(40):
            gen = random_generator(rng, dim)
            a = {tuple(int(x) for x in rng.integers(-2, 3, size=dim)) for _ in range(int(rng.integers(1, 4)))}
            n = int(rng.integers(0, 6 if dim == 1 else 4))
            res = apply_generator_power(gen, n, a)
            poly = res.polynomial
            reduced += math.gcd(poly.den, *poly.nums.tolist()) > 1
            plain = SetPolynomial(poly.terms)
            assert res.coeff_l1_norm == plain.coeff_l1()
            assert res.exact_sup_norm == plain.exact_sup_norm()
            if len(plain.support()) <= 8:
                assert res.exact_sup_norm == brute_sup(plain)
            chain = apply_chain([next(iter(gen.shapes)) for _ in range(n + 1)], a)
            plain = SetPolynomial(chain.polynomial.terms)
            assert chain.coeff_l1_norm == plain.coeff_l1()
            assert chain.exact_sup_norm == plain.exact_sup_norm()
        assert reduced > 10  # numerators and den shared a factor

    @pytest.mark.parametrize(
        "terms, start, available",
        [
            # -2 lam sigma_0 has the integer numerator -(2^63 - 2) over 2:
            # reduced, 2^62 - 1 passes the guard and 2^62 + 1 does not
            ([((), Fraction((1 << 62) - 1, 2))], [0], True),
            ([((), Fraction((1 << 62) + 1, 2))], [0], False),
            # -(2^61 - k) sigma_01 - sigma_0 / 2 - sigma_012 / 2: reduced l1
            # norm 2^62 - 4 for k = 3 and 2^62 for k = 1
            ([((), Fraction((1 << 61) - 3, 4)), (((1,),), Fraction(1, 4))], [0, 1], True),
            ([((), Fraction((1 << 61) - 1, 4)), (((1,),), Fraction(1, 4))], [0, 1], False),
            # supports of 20 sites and of 21 or 22: the latter exceed the cap
            ([((), Fraction(1, 3))], list(range(20)), True),
            ([((), Fraction(1, 3))], list(range(21)), False),
            ([(((10,),), Fraction(2, 3))], list(range(10)), True),
            ([(((11,),), Fraction(2, 3))], list(range(11)), False),
        ],
    )
    def test_guards_match_the_set_polynomial_route(self, terms, start, available):
        res = apply_generator_power(GeneratorSpec(terms), 1, start)
        plain = SetPolynomial(res.polynomial.terms)
        assert res.exact_available is available
        assert res.exact_sup_norm == plain.exact_sup_norm()
        assert res.coeff_l1_norm == plain.coeff_l1()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_series_is_bitwise_the_fraction_sum(self, dim):
        rng = np.random.default_rng(60 + dim)
        for _ in range(20):
            gen = random_generator(rng, dim)
            a = [tuple(int(x) for x in rng.integers(-2, 3, size=dim))]
            t = float(rng.uniform(0.05, 0.95)) * float(analyticity_radius(gen, a))
            n_max = int(rng.integers(0, 6 if dim == 1 else 4))
            got = truncated_series(gen, t, a, n_max).coeffs
            want = fraction_series(gen, t, a, n_max)
            assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}

    def test_no_fraction_terms_until_read(self, monkeypatch, tmp_path):
        def refuse(self, *args):
            raise AssertionError("frozenset/Fraction terms built")

        shapes = TestIntegerExpansion.SPECS["1d"]
        gen = GeneratorSpec(list(shapes.items()))
        a = as_monomial([0, 1])
        with monkeypatch.context() as patch:
            patch.setattr(symbolic._Expansion, "polynomial", refuse)
            power = apply_generator_power(gen, 3, a)
            chain = apply_chain([[0, 1], [-1]], a)
            series = truncated_series(gen, 0.01, a, 4)
            code = cli.main(["symbolic-bound", "--gen", "nn_decay.gen", "--A", "0,1", "--n", "5", "--out", str(tmp_path)])
        assert code == 0
        assert series.coeffs
        assert power.polynomial.terms == generator_recursion(shapes, {a: Fraction(1)}, 3)[0]
        assert chain.polynomial.terms == chain_recursion([as_monomial([0, 1]), as_monomial([-1])], a)


def dict_step(terms: dict, table) -> dict:
    """The per-term dict step the word kernel replaced, kept as its oracle:
    sum_B lambda(B) L_B on {bitmask: numerator}, from the rows (bitmask of B
    shifted up by -base, base, lam) and L_B sigma_A = -2 sum_{i in A}
    sigma_{(B+i) ^ A}."""
    out = {}
    get = out.get
    for a, c in terms.items():
        sites = []
        bits = a
        while bits:
            low = bits & -bits
            sites.append(low.bit_length() - 1)
            bits ^= low
        for b, base, lam in table:
            v = lam * c
            for i in sites:
                key = (b << (i + base)) ^ a
                out[key] = get(key, 0) + v
    return {key: v for key, v in out.items() if v}


def both_steps(terms: dict, rows, n_bits: int):
    """One step of rows (box offsets, lam) on {bitmask: numerator} by the word
    kernel and by dict_step; the kernel's result as a dict, the oracle's, and
    the kernel's numerator dtype."""
    masks = symbolic._words([[j for j in range(n_bits) if m >> j & 1] for m in terms], n_bits)
    nums = symbolic._numerators(list(terms.values()))
    toggles = symbolic._toggles([d for d, _ in rows], masks.shape[1])
    got_masks, got_nums = symbolic._step(masks, nums, toggles, [lam for _, lam in rows])
    got = {int.from_bytes(row.tobytes(), "little"): c for row, c in zip(got_masks, got_nums.tolist())}
    assert len(got) == len(got_nums)  # merged: one row per monomial
    table = [(sum(1 << (d - min(ds)) for d in ds), min(ds, default=0), lam) for ds, lam in rows]
    return got, dict_step(terms, table), got_nums.dtype


class TestWordKernel:
    """The (T, W) word step against the dict step it replaced."""

    @staticmethod
    def random_case(rng, n_bits, stride):
        """Terms on sites far enough from the ends of n_bits positions that
        every offset stays inside, and rows of offsets dx * stride + dy with
        |dx|, |dy| <= 1 (stride 1: one axis, offsets in [-2, 2])."""
        if stride == 1:
            pool, reach = list(range(-2, 3)), 2
        else:
            pool, reach = [dx * stride + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)], stride + 1
        terms = {}
        for _ in range(int(rng.integers(1, 12))):
            sites = rng.choice(np.arange(reach, n_bits - reach), size=int(rng.integers(0, 5)), replace=False)
            terms[sum(1 << int(j) for j in sites)] = int(rng.choice([-9, -4, -1, 1, 2, 7]))
        rows = [
            ([int(d) for d in rng.choice(pool, size=int(rng.integers(0, 4)), replace=False)], int(rng.integers(1, 7)) * int(rng.choice([-1, 1])))
            for _ in range(int(rng.integers(1, 4)))
        ]
        return terms, rows

    # boxes of 63, 64 and 65 sites and one past 200, across word boundaries;
    # stride 70 makes shapes span more than one word
    @pytest.mark.parametrize("n_bits, stride", [(63, 1), (64, 1), (65, 1), (230, 1), (63, 8), (65, 8), (230, 70)])
    @pytest.mark.parametrize("block", [symbolic._BLOCK, 3], ids=["one-block", "row-blocks"])
    def test_matches_the_dict_step(self, monkeypatch, n_bits, stride, block):
        # a block of 3 merges each row's candidates alone, then joins them
        monkeypatch.setattr(symbolic, "_BLOCK", block)
        rng = np.random.default_rng([n_bits, stride])
        for _ in range(25):
            terms, rows = self.random_case(rng, n_bits, stride)
            got, want, dtype = both_steps(terms, rows, n_bits)
            assert got == want
            assert dtype == np.int64

    @pytest.mark.parametrize("n_bits", [65, 230])
    def test_rows_past_the_cap_are_built_in_slices(self, monkeypatch, n_bits):
        # the empty shape maps each of a term's |A_t| candidates to A_t: with
        # the cap at the term count, a row's sum_t |A_t| candidates are built
        # in slices and the slices' merged blocks folded together
        rng = np.random.default_rng(n_bits)
        for _ in range(25):
            terms, _ = self.random_case(rng, n_bits, 1)
            monkeypatch.setattr(symbolic, "TERM_CAP", len(terms))
            got, want, _ = both_steps(terms, [([], 3)], n_bits)
            assert got == want

    def test_powers_on_boxes_across_word_boundaries(self):
        # at n = 2 the box holds x - 2 .. x + 2 around each site of A: a run
        # of r sites and k sites 10 apart fill r + 4 + 5 k positions, here
        # 63, 64, 65 and 201, one, one, two and four words
        shapes = {frozenset(): Fraction(1), frozenset({(1,)}): Fraction(1, 3), frozenset({(-1,), (1,)}): Fraction(-1, 2)}
        gen = GeneratorSpec(list(shapes.items()))
        for r, k, width in ((4, 11, 1), (5, 11, 1), (6, 11, 2), (2, 39, 4)):
            start = list(range(r)) + [100 + 10 * i for i in range(k)]
            assert symbolic._Expansion(SetPolynomial.monomial(start), [gen.shapes] * 2).masks.shape == (1, width)
            want, _ = generator_recursion(shapes, {as_monomial(start): Fraction(1)}, 2)
            assert apply_generator_power(gen, 2, start).polynomial.terms == want

    def test_large_numerators_take_python_ints(self):
        rng = np.random.default_rng(5)
        for start in (1, 10**20):
            terms, rows = self.random_case(rng, 65, 1)
            terms = {m: c * start for m, c in terms.items()}
            rows = [(d, lam * 10**20) for d, lam in rows]
            got, want, dtype = both_steps(terms, rows, 65)
            assert got == want
            assert dtype == object

    def test_int64_while_the_bound_is_below_2_62(self):
        # one term of two sites and the empty shape: every partial sum is at
        # most 2 |c|; both bounds are exact in a double
        for c, dtype in ((2**61 - 2**9, np.int64), (2**61, object)):
            got, want, kind = both_steps({0b11 << 4: c}, [([], 1)], 64)
            assert got == want == {0b11 << 4: 2 * c}
            assert kind == dtype

    def test_cancelling_terms_drop_out(self):
        terms = {0b101 << 3: 3, 0b110 << 3: -2}
        got, want, _ = both_steps(terms, [([1], 2), ([1], -2)], 64)
        assert got == want == {}
        # on sigma_{3,5}, shape {-1} at 5 and shape {1} at 3 both give
        # sigma_{3,4,5}, with opposite signs
        got, want, _ = both_steps({0b101 << 3: 1}, [([-1], 1), ([1], -1)], 64)
        assert got == want == {(1 << 2) | (1 << 3) | (1 << 5): 1, (1 << 3) | (1 << 5) | (1 << 6): -1}

    def test_a_constant_is_killed(self):
        got, want, _ = both_steps({0: 5}, [([], 1), ([0, 1], 3)], 64)
        assert got == want == {}
        got, want, _ = both_steps({0: 5, 1 << 7: 2}, [([], 1), ([0, 1], 3)], 64)
        assert got == want == {1 << 7: 2, 1 << 8: 6}


class TestTermCap:
    # L = L_{} + L_{1} on sigma_{0,1}: each shape has 2 candidates, one per
    # site of A, and the step merges the 4 into 3 terms
    GEN = GeneratorSpec([((), 1), (((1,),), 1)])

    def test_just_under_the_cap(self, monkeypatch):
        monkeypatch.setattr(symbolic, "TERM_CAP", 3)
        assert apply_generator_power(self.GEN, 1, [0, 1]).polynomial.terms == {
            as_monomial([0, 1]): Fraction(-4),
            as_monomial([0]): Fraction(-2),
            as_monomial([0, 1, 2]): Fraction(-2),
        }

    def test_merged_terms_over_the_cap_raise(self, monkeypatch):
        monkeypatch.setattr(symbolic, "TERM_CAP", 2)
        with pytest.raises(RuntimeError, match="term-count overflow in the expansion"):
            apply_generator_power(self.GEN, 1, [0, 1])

    def test_blocks_stay_within_the_cap(self, monkeypatch):
        # L_{} on sigma_{0,1,2}: 3 candidates, all sigma_{0,1,2}; with the
        # cap at 1 each is its own block, and no merge sees more than 2 rows
        merged = []

        def merge(masks, nums):
            merged.append(len(nums))
            return _merge(masks, nums)

        _merge = symbolic._merge
        monkeypatch.setattr(symbolic, "TERM_CAP", 1)
        monkeypatch.setattr(symbolic, "_merge", merge)
        assert apply_generator_power(GeneratorSpec([((), 1)]), 1, [0, 1, 2]).polynomial.terms == {as_monomial([0, 1, 2]): Fraction(-6)}
        assert max(merged) == 2


class TestSeries:
    def test_radius_example(self):
        gen = GeneratorSpec([((), 1)])
        assert analyticity_radius(gen, [0]) == Fraction(1, 2)

    def test_radius_formula(self):
        gen = GeneratorSpec([(((0,), (1,)), Fraction(3, 2)), (((0,),), 1)])
        # M = 3/2, |bb| = 2, K = 2, |A| = 2
        assert analyticity_radius(gen, [0, 5]) == Fraction(1, 2 * 3 * 2 * 4) * 2

    def test_series_rejects_t_at_radius(self):
        gen = GeneratorSpec([((), 1)])
        with pytest.raises(ValueError):
            truncated_series(gen, 0.5, [0], 4)

    def test_independent_flip_coefficient(self):
        # rate-one independent flips: S(t) sigma_0 = e^{-2t} sigma_0
        gen = GeneratorSpec([((), 1)])
        res = truncated_series(gen, 0.2, [0], 8)
        assert set(res.coeffs) == {as_monomial([0])}
        coeff = res.coeffs[as_monomial([0])]
        assert abs(coeff - math.exp(-0.4)) < 1e-9
        assert abs(coeff - math.exp(-0.4)) < res.remainder_bound

    def test_series_matches_semigroup_on_torus(self):
        gen = GeneratorSpec([((), 1), (((1,),), Fraction(3, 10))])
        torus = Torus((10,))
        a = [0]
        t0 = analyticity_radius(gen, a)
        assert t0 == Fraction(1, 8)
        t = float(t0) / 2
        res = truncated_series(gen, t, a, 8)
        rates = CustomRates(
            torus,
            dep_fn=lambda i: [(i + 1) % 10],
            rate_fn=lambda i, bits: 1.0 + 0.3 * (1.0 if (bits >> ((i + 1) % 10)) & 1 else -1.0),
        )
        engine = engine_for(rates)
        exact = engine.evolve_functions(Observable.monomial(torus, a).dense_values(), t)
        series = realize_polynomial(res.coeffs, torus)
        gap = float(np.max(np.abs(series - exact)))
        assert gap <= res.remainder_bound + 1e-8

    def test_realize_rejects_wrap_collisions(self):
        torus = Torus((8,))
        with pytest.raises(ValueError):
            realize_polynomial({as_monomial([0, 8]): 1.0}, torus)


class TestInfiniteRange:
    def test_point_mass_example(self):
        res = infinite_range_bound(DeltaTail(0), c=1.0, u=1.0, A=[0], n=1)
        assert res.f_of_u == 1.0
        assert abs(res.lemma_lhs - 1.0) < 1e-15
        assert abs(res.lemma_rhs - math.e) < 1e-12
        assert res.holds

    def test_geometric_closed_form(self):
        tail = GeometricTail(2.0)
        assert abs(tail.f_of_u(1.0) - 1.0 / (1.0 - math.exp(-1.0))) < 1e-15
        res = infinite_range_bound(tail, c=1.0, u=1.0, A=[0], n=2, k_max=40)
        assert res.holds
        assert res.kappa == pytest.approx(2.0 * tail.f_of_u(1.0))
        assert res.chain_bound == pytest.approx(math.e * 2 * res.kappa**2)

    def test_divergent_transform_rejected(self):
        with pytest.raises(ValueError):
            GeometricTail(1.0).f_of_u(1.5)

    def test_scaling_in_the_tail_mass(self):
        lam = 3.0
        base = infinite_range_bound(GeometricTail(2.0), c=1.0, u=1.0, A=[0, 1], n=3)
        scaled = infinite_range_bound(GeometricTail(2.0, scale=lam), c=1.0, u=1.0, A=[0, 1], n=3)
        assert scaled.lemma_lhs == pytest.approx(lam**3 * base.lemma_lhs)
        assert scaled.lemma_rhs == pytest.approx(lam**3 * base.lemma_rhs)
        assert scaled.kappa == pytest.approx(lam * base.kappa)

    def test_poisson_tail_holds(self):
        class Poisson:
            """psi(k) = e^{-lam} lam^k / k!; F(u) = e^{lam (e^u - 1)}."""

            lam = 1.5

            def psi(self, k):
                return math.exp(-self.lam + k * math.log(self.lam) - math.lgamma(k + 1))

            def f_of_u(self, u):
                return math.exp(self.lam * (math.exp(u) - 1.0))

        tail = Poisson()
        assert abs(tail.f_of_u(1.0) - math.exp(1.5 * (math.e - 1.0))) < 1e-12
        res = infinite_range_bound(tail, c=0.5, u=1.0, A=[0], n=2, k_max=60)
        assert res.holds

    def test_lemma_holds_for_each_order(self):
        tail = GeometricTail(2.0)
        for n in range(1, 5):
            res = infinite_range_bound(tail, c=1.0, u=0.8, A=[0], n=n)
            assert res.lemma_lhs <= res.lemma_rhs

    def test_combinatorial_sum_brute_force(self):
        tail = GeometricTail(1.0, scale=0.7)
        k_max, n = 3, 2
        direct = 0.0
        for k1 in range(k_max + 1):
            for k2 in range(k_max + 1):
                direct += (1 + k1) * (1 + k1 + k2) * tail.psi(k1) * tail.psi(k2)
        assert combinatorial_sum(tail, n, k_max) == pytest.approx(direct, rel=1e-13)


class TestChainBoundHelper:
    def test_telescoping_product(self):
        # n = 3, |A| = 2, sizes 1, 3, 5: 8 * 2 * (2+1) * (2+1+3)
        assert chain_bound([1, 3, 5], 2) == 8 * 2 * 3 * 6
