"""The nine acceptance criteria of the paper's claims, one function each.

A criterion returns None when it holds and a message naming the first
failure otherwise.  Its sizes, seeds and tolerances are constants of the
function and part of the contract.  With `quick=True` it runs a smaller sweep
of the same seeded cases, a prefix of the full one (the first torus, beta,
cases or grid time).  The test suite runs every criterion at full size;
`spinflip selftest` runs the quick sweep.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from .concentration import (
    TestFunctionFamily,
    empirical_gcb_constant,
    product_gcb_constant,
    product_uvb_constant,
    psi_identity_check,
    theorem31_check,
    theorem52_check,
    theorem53_check,
)
from .dynamics import CustomRates, GlauberRates, IndependentRates, PerturbedRates, SemigroupEngine
from .entropy import relative_entropy, total_variation
from .gibbs import Potential, gibbs_measure, product_measure, uniform_measure
from .lattice import Observable, Torus, monomial_values_dense
from .mc import dirac_sampler, ensemble_expectation, product_sampler
from .symbolic import (
    DeltaTail,
    GeneratorSpec,
    GeometricTail,
    analyticity_radius,
    apply_chain,
    apply_generator_power,
    infinite_range_bound,
    realize_polynomial,
    truncated_series,
)


def all_tori(n_max):
    """Every side tuple (each side >= 2) with at most n_max sites, up to
    permutation, in sorted order."""
    sides = [(s,) for s in range(2, n_max + 1)]
    found = []
    while sides:
        found += sides
        sides = [t + (s,) for t in sides for s in range(t[-1], n_max // math.prod(t) + 1)]
    return [Torus(t) for t in sorted(found)]


def spectral_law(quick=False):
    """E_{mu S(t)} sigma_A = e^{-2|A|t} E_mu sigma_A on every torus with
    N <= 12, every |A| <= 3, t in {0.1, 0.5, 1, 2}, to 1e-10.  Quick: the
    first torus, (10,)."""
    times = (0.1, 0.5, 1.0, 2.0)
    worst = 0.0
    for index, torus in enumerate(all_tori(12)[: 1 if quick else None]):
        n = torus.n_sites
        rng = np.random.default_rng(101 + index)
        mu = rng.random(1 << n)
        mu /= mu.sum()
        subsets = [a for k in (1, 2, 3) for a in combinations(range(n), k)]
        values = np.vstack([monomial_values_dense(torus, a) for a in subsets])
        sizes = np.array([len(a) for a in subsets])
        start = values @ mu
        engine = SemigroupEngine(IndependentRates(torus, 1.0))
        for t, mu_t in zip(times, engine.evolve_measures_over(mu, times)):
            gap = np.max(np.abs(values @ mu_t - np.exp(-2 * sizes * t) * start))
            worst = max(worst, float(gap))
    if not worst < 1e-10:
        return f"spectral law off by {worst:.3e}"


def dobrushin_pipeline(quick=False):
    """c(U) = 2 beta and C = 1/(2(1-c)^2) to 1e-12, and the exact Gibbs
    measure on 10 sites obeys the empirical GCB with that constant, at
    beta in {0.1, 0.2, 0.4}.  Quick: the first beta."""
    torus = Torus((10,))
    family = TestFunctionFamily.monomials(torus, 3, max_count=10**6)
    if len(family.members) != 10 + 45 + 120:
        return f"{len(family.members)} monomials of degree <= 3 on 10 sites, not 175"
    for beta in (0.1, 0.2, 0.4)[: 1 if quick else None]:
        pot = Potential.ising_nn(1, beta)
        c = pot.dobrushin_constant()
        if abs(c - 2 * beta) > 1e-12:
            return f"c(U) = {c} != 2 beta at beta = {beta}"
        bound = pot.gcb_constant_dobrushin()
        if abs(bound - 1.0 / (2.0 * (1.0 - 2.0 * beta) ** 2)) > 1e-12:
            return f"GCB constant {bound} != 1/(2(1-c)^2) at beta = {beta}"
        report = empirical_gcb_constant(gibbs_measure(pot, torus).probs, family, bound=bound)
        if not report.holds:
            return f"empirical GCB {report.best_constant} exceeds {bound} at beta = {beta}"


def iterated_generator_bounds(quick=False):
    """Exact rational sup norms of 500 random commutator chains and 200
    random generator powers against the product and factorial bounds, zero
    tolerance.  Quick: the first 50 chains and 20 powers."""
    rng = np.random.default_rng(3)
    chains = []
    for _ in range(500):
        a = [int(s) for s in rng.choice(np.arange(0, 5), size=rng.integers(1, 4), replace=False)]
        shapes = [
            [int(s) for s in rng.choice(np.arange(-2, 3), size=rng.integers(1, 4), replace=False)]
            for _ in range(rng.integers(1, 5))
        ]
        chains.append((shapes, a))
    powers = []
    for _ in range(200):
        shapes = {}
        for _ in range(rng.integers(1, 4)):
            size = int(rng.integers(0, 3))
            offsets = tuple(
                (int(x),) for x in sorted(rng.choice(np.arange(0, 3), size=size, replace=False))
            )
            lam = Fraction(int(rng.integers(1, 4)) * (1 if rng.random() < 0.5 else -1),
                           int(rng.integers(1, 4)))
            shapes.setdefault(offsets, lam)
        a = [int(s) for s in rng.choice(np.arange(0, 4), size=rng.integers(1, 3), replace=False)]
        powers.append((GeneratorSpec(list(shapes.items())), a, int(rng.integers(0, 7))))
    for shapes, a in chains[:50] if quick else chains:
        result = apply_chain(shapes, a)
        if not result.exact_available:
            return f"no exact sup norm for the chain {shapes} on A = {a}"
        if result.exact_sup_norm > result.lemma_bound:
            return f"chain {shapes} on A = {a}: sup norm {result.exact_sup_norm} > {result.lemma_bound}"
    for gen, a, n in powers[:20] if quick else powers:
        result = apply_generator_power(gen, n, a)
        if not result.exact_available:
            return f"no exact sup norm for L^{n} sigma_A, A = {a}"
        if result.exact_sup_norm > result.loccast_bound:
            return f"L^{n} sigma_A, A = {a}: sup norm {result.exact_sup_norm} > {result.loccast_bound}"


def series_vs_semigroup(quick=False):
    """The truncated analytic series at t = t0/2, n_max = 8, against the
    exact semigroup on a torus large enough to avoid wrap (its rates ignore
    the flipped spin, so they balance the uniform measure and take the
    Chebyshev route).  One case, so the quick sweep is the full one."""
    gen = GeneratorSpec([((), Fraction(1)), (((1,),), Fraction(3, 10))])
    t0 = float(analyticity_radius(gen, [0]))
    t = t0 / 2
    series = truncated_series(gen, t, [0], 8)
    torus = Torus((12,))
    n = torus.n_sites

    def rate_fn(i, bits):
        right = 1.0 if (bits >> ((i + 1) % n)) & 1 else -1.0
        return 1.0 + 0.3 * right

    rates = CustomRates(torus, lambda i: (i, (i + 1) % n), rate_fn)
    f = Observable.monomial(torus, [0]).dense_values()
    exact = SemigroupEngine(rates).evolve_functions(f, t)
    gap = float(np.max(np.abs(exact - realize_polynomial(series.coeffs, torus))))
    if not gap <= series.remainder_bound + 1e-8:
        return f"series gap {gap:.3e} exceeds remainder bound {series.remainder_bound:.3e}"


def data_processing(quick=False):
    """Relative entropy nonincreasing to 1e-10 on a 20-point grid, and total
    variation stays > 1e-12, for 50 random pairs under 3 rate models.
    Quick: the first 5 pairs."""
    torus = Torus((6,))
    models = [
        IndependentRates(torus, 1.0),
        GlauberRates(torus, Potential.ising_nn(1, 0.4)),
        PerturbedRates.pair(torus, 0.1),
    ]
    rng = np.random.default_rng(5)
    pairs = []
    for _ in range(50):
        mu = rng.random(64)
        nu = rng.random(64)
        pairs.append((mu / mu.sum(), nu / nu.sum()))
    pairs = pairs[:5] if quick else pairs
    stack = np.vstack([m for pair in pairs for m in pair])
    grid = np.linspace(0.0, 2.0, 20)
    for rates in models:
        previous = None
        # P >= 0 entrywise, so every evolved row stays >= 0
        for t, evolved in zip(grid, SemigroupEngine(rates).evolve_measures_over(stack, grid)):
            entropies = np.empty(len(pairs))
            for i in range(len(pairs)):
                mu_t, nu_t = evolved[2 * i], evolved[2 * i + 1]
                entropies[i] = relative_entropy(mu_t, nu_t)
                if not total_variation(mu_t, nu_t) > 1e-12:
                    return f"semigroup degenerated pair {i} at t = {t} under {rates.label}"
            if previous is not None and not np.all(entropies <= previous + 1e-10):
                return f"relative entropy increased at t = {t} under {rates.label}"
            previous = entropies


def psi_identity_quadrature(quick=False):
    """The Simpson gap of the variance identity drops by >= 12 from 64 to
    128 steps and is < 1e-6 at 256, on 20 random instances.  Quick: the
    first 2 instances."""
    rng = np.random.default_rng(6)
    for case in range(2 if quick else 20):
        n = int(rng.integers(5, 7))
        torus = Torus((n,))
        if rng.random() < 0.5:
            rates = GlauberRates(torus, Potential.ising_nn(1, float(rng.uniform(0.25, 0.5))))
        else:
            rates = PerturbedRates.pair(torus, 0.1)
        terms = []
        for _ in range(2):
            size = int(rng.integers(1, 3))
            sites = [int(s) for s in rng.choice(n, size=size, replace=False)]
            terms.append((float(rng.uniform(0.5, 1.0)) * (1 if rng.random() < 0.5 else -1), sites))
        f = Observable.monomial_sum(torus, terms)
        t = float(rng.uniform(0.5, 0.75))
        gap64, gap128, gap256 = (psi_identity_check(rates, t, f, steps=s).gap for s in (64, 128, 256))
        if not gap64 / gap128 >= 12.0:
            return (f"case {case}: gap ratio {gap64 / gap128:.2f} below 12 "
                    f"(gap64 = {gap64:.3e}, gap128 = {gap128:.3e})")
        if not gap256 < 1e-6:
            return f"case {case}: gap at 256 steps is {gap256:.3e}"


def conservation_theorems(quick=False):
    """The composite bounds of the three conservation theorems hold on a
    10-point grid in (0, 2] for Independent and Perturbed rates from a
    uniform product start.  Quick: the first grid time."""
    torus = Torus((8,))
    mu = uniform_measure(torus)
    family = TestFunctionFamily.monomials(torus, 3, max_count=10**6)
    grid = np.linspace(0.2, 2.0, 10)
    for rates in (IndependentRates(torus, 1.0), PerturbedRates.pair(torus, 0.1)):
        for t in grid[:1] if quick else grid:
            for name, report in (
                ("theorem31_check", theorem31_check(rates, t, mu, family, product_gcb_constant())),
                ("theorem52_check", theorem52_check(rates, t, mu, family, product_uvb_constant())),
                ("theorem53_check", theorem53_check(rates, t, family)),
            ):
                if not report.holds:
                    return (f"{name} failed under {rates.label} at t = {t}: "
                            f"{report.measured_constant} > {report.composite_constant}")


def infinite_range_lemma(quick=False):
    """psi(k) = e^{-2k}, u = 1: the truncated combinatorial sum stays below
    e^u n! u^{-n} F(u)^n with the closed-form geometric F, for n <= 3, and
    for a single-range tail at n = 2.  The quick sweep is the full one."""
    psi = GeometricTail(2.0, 1.0)
    f_u = psi.f_of_u(1.0)
    if not math.isclose(f_u, 1.0 / (1.0 - np.exp(-1.0)), rel_tol=1e-12):
        return f"geometric F(1) = {f_u} != 1/(1 - e^-1)"
    for n in (1, 2, 3):
        if not infinite_range_bound(psi, c=1.0, u=1.0, A=[0], n=n, k_max=40).holds:
            return f"combinatorial bound fails at n = {n}"
        if not infinite_range_bound(psi, c=0.7, u=1.0, A=[0, 2], n=n, k_max=40).holds:
            return f"combinatorial bound fails at n = {n}, |A| = 2"
    if not infinite_range_bound(DeltaTail(1, 1.0), c=0.5, u=1.0, A=[0, 1], n=2).holds:
        return "combinatorial bound fails for the delta tail at n = 2"


def mc_cross_validation(quick=False):
    """100 mixed cases at 1e4 replicas; at least 99 exact values inside 3
    standard errors.  Quick: the first 20 cases, at most one miss."""
    rng = np.random.default_rng(9)
    side_options = [(4,), (5,), (6,), (7,), (8,), (2, 3), (2, 4), (3, 3)]
    misses = []
    for case in range(20 if quick else 100):
        torus = Torus(side_options[rng.integers(0, len(side_options))])
        n = torus.n_sites
        kind = rng.integers(0, 3)
        if kind == 0:
            rates = IndependentRates(torus, float(rng.uniform(0.5, 1.5)))
        elif kind == 1:
            rates = GlauberRates(torus, Potential.ising_nn(torus.dim, float(rng.uniform(0.1, 0.5))))
        else:
            rates = PerturbedRates.pair(torus, 0.1)
        sites = [int(s) for s in rng.choice(n, size=rng.integers(1, 4), replace=False)]
        f = Observable.monomial(torus, sites)
        t = float(rng.uniform(0.1, 0.6))
        values_t = SemigroupEngine(rates).evolve_functions(f.dense_values(), t)
        if rng.random() < 0.5:
            state = int(rng.integers(0, 1 << n))
            sampler = dirac_sampler(state)
            exact = float(values_t[state])
        else:
            p = float(rng.uniform(0.2, 0.8))
            sampler = product_sampler(torus, p)
            exact = float(product_measure(torus, p) @ values_t)
        est = ensemble_expectation(rates, sampler, t, f, replicas=10**4, seed=9000 + case)
        if abs(est.estimate - exact) > 3 * est.std_error:
            misses.append((case, exact, est.estimate, est.std_error))
    if len(misses) > 1:
        return f"{len(misses)} cases outside 3 standard errors: {misses}"


CRITERIA = (
    ("independent-dynamics spectral law", spectral_law),
    ("Dobrushin constant, GCB formula and Gibbs GCB", dobrushin_pipeline),
    ("iterated-generator norm bounds (exact rational)", iterated_generator_bounds),
    ("truncated series vs exact semigroup", series_vs_semigroup),
    ("relative-entropy data processing", data_processing),
    ("variance identity quadrature order", psi_identity_quadrature),
    ("theorem31 / theorem52 / theorem53 conservation", conservation_theorems),
    ("infinite-range combinatorial lemma", infinite_range_lemma),
    ("kinetic MC against the exact semigroup", mc_cross_validation),
)
