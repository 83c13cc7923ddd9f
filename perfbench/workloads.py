"""The four benchmark workloads.

Each workload has four parts:

* `setup(seed)` builds the inputs (rate models, engines, Gibbs states,
  observables, generator specs).  Only the seed varies them, and only in
  ways that leave the amount of work unchanged (which sites, which signs,
  which translate), so every seed costs the same.
* `operations(inputs)` lists the fixed operations of one pass, as
  (label, callable) pairs.
* `expected(inputs)` computes what the checks compare against, apart from
  the timed operations: reference values from `reference`, plus for `nogo`
  the evolved measures whose properties are checked.
* `check(inputs, outputs, expected, checks)` records every disagreement.

Only public entry points are called, and no `workers=`.  Modules are reached
through their attributes at call time so that the traced run sees its
wrappers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from scipy.linalg import expm

import reference as ref
from spinflip import concentration, dynamics, entropy, gibbs, lattice, mc, symbolic


class Checks:
    """Collects failed comparisons as readable lines."""

    def __init__(self):
        self.failures = []

    def true(self, what, ok, detail=""):
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)
        return ok

    def close(self, what, got, want, rtol=1e-9, atol=1e-12):
        got, want = float(got), float(want)
        ok = math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)
        return self.true(what, ok, f"got {got!r}, want {want!r}")


def _rotate(bits, shift, n):
    mask = (1 << n) - 1
    return ((bits << shift) | (bits >> (n - shift))) & mask


# -------------------------------------------------------------- conserve


class Conserve:
    """Theorems 3.1, 5.2 and 5.3 over every Dirac start on a 1D torus."""

    name = "conserve"

    def __init__(self, n_sites=10, times=(0.2, 0.5), singles=3, pairs=3):
        self.n_sites = n_sites
        self.eps0 = 0.1
        self.times = times
        self.singles = singles
        self.pairs = pairs
        self.lambdas = (1.0, -0.5)

    def setup(self, seed):
        n = self.n_sites
        rng = np.random.default_rng([seed, 1])
        torus = lattice.Torus((n,))
        rates = dynamics.PerturbedRates.pair(torus, self.eps0)
        engine = dynamics.engine_for(rates)
        sites = [(int(i),) for i in rng.choice(n, self.singles, replace=False)]
        while len(sites) < self.singles + self.pairs:
            i, d = int(rng.integers(n)), int(rng.integers(1, n // 2 + 1))
            pair = tuple(sorted((i, (i + d) % n)))
            if pair not in sites:
                sites.append(pair)
        members = [lattice.Observable.monomial(torus, s) for s in sites]
        return SimpleNamespace(
            torus=torus,
            rates=rates,
            engine=engine,
            mu=gibbs.uniform_measure(torus),
            sites=sites,
            family=concentration.TestFunctionFamily(members, self.lambdas, "conserve"),
            c_gcb=concentration.product_gcb_constant(),
            c_uvb=concentration.product_uvb_constant(),
        )

    def operations(self, inp):
        ops = []
        for t in self.times:
            ops.append((f"theorem31@{t}", lambda t=t: concentration.theorem31_check(inp.rates, t, inp.mu, inp.family, inp.c_gcb)))
            ops.append((f"theorem52@{t}", lambda t=t: concentration.theorem52_check(inp.rates, t, inp.mu, inp.family, inp.c_uvb)))
            ops.append((f"theorem53@{t}", lambda t=t: concentration.theorem53_check(inp.rates, t, inp.family)))
        return ops

    def expected(self, inp):
        n = self.n_sites
        states = np.arange(1 << n, dtype=np.int64)
        c = ref.rate_array(inp.rates, n)
        q = ref.dense_generator(c)
        gamma = ref.gamma_from_rates(c)
        values = [ref.monomial(states, s) for s in inp.sites]
        l2sq = [float(np.sum(ref.lipschitz_dense(v, n) ** 2)) for v in values]
        out = {}
        for t in self.times:
            e = expm(t * q)  # row sigma: delta_sigma S(t)
            mu_t = inp.mu @ e
            k_t = ref.k_of_t(gamma, t)
            d_t, measured31 = 0.0, 0.0
            c_sigma = np.zeros(states.size)
            measured52, measured53 = 0.0, 0.0
            for v, w in zip(values, l2sq):
                for lam in self.lambdas:
                    start_logmom = np.log(e @ np.exp(lam * v)) - lam * (e @ v)
                    d_t = max(d_t, float(start_logmom.max()) / (lam * lam * w))
                    measured31 = max(measured31, ref.log_moment(mu_t, lam * v) / (lam * lam * w))
                start_var = e @ (v * v) - (e @ v) ** 2
                c_sigma = np.maximum(c_sigma, start_var / w)
                measured53 = max(measured53, float(start_var.max()) / w)
                mean = float(mu_t @ v)
                measured52 = max(measured52, float(mu_t @ (v - mean) ** 2) / w)
            avg_start = float(inp.mu @ c_sigma)
            const53 = 2.0 * float(c.max()) * ref.k_squared_integral(gamma, t)
            out[t] = {
                "31": (k_t, d_t, d_t + k_t * inp.c_gcb, measured31),
                "52": (k_t, avg_start, inp.c_uvb * k_t + avg_start, measured52),
                "53": (k_t, const53, const53, measured53),
            }
        return out

    def check(self, inp, outputs, expected, checks):
        for t in self.times:
            for thm in ("31", "52", "53"):
                report = outputs.get(f"theorem{thm}@{t}")
                if report is None:
                    continue
                k_t, inner, composite, measured = expected[t][thm]
                what = f"theorem{thm}@t={t}"
                checks.true(f"{what} holds", report.holds is True)
                checks.close(f"{what} K(t)", report.k_t, k_t, rtol=1e-8)
                checks.close(f"{what} inner constant", report.inner_constant, inner, rtol=1e-7, atol=1e-10)
                checks.close(f"{what} composite constant", report.composite_constant, composite, rtol=1e-7, atol=1e-10)
                checks.close(f"{what} measured constant", report.measured_constant, measured, rtol=1e-7, atol=1e-10)


# ------------------------------------------------------------------ nogo


class NoGo:
    """Low-temperature plus/minus Gibbs states evolved under Glauber rates."""

    name = "nogo"

    def __init__(self, sides=(4, 4)):
        self.sides = sides
        self.beta = 0.6
        self.grid = (0.0, 0.2, 0.5)
        self.lambdas = (1.0, -1.0)

    def setup(self, seed):
        rows, cols = self.sides
        rng = np.random.default_rng([seed, 2])
        torus = lattice.Torus(self.sides)
        potential = gibbs.Potential.ising_nn(2, self.beta)
        rates = dynamics.GlauberRates(torus, potential)
        engine = dynamics.engine_for(rates)
        plus = gibbs.gibbs_measure(potential, torus, gibbs.BoundaryCondition.fixed(1))
        minus = gibbs.gibbs_measure(potential, torus, gibbs.BoundaryCondition.fixed(-1))
        r, c = int(rng.integers(rows)), int(rng.integers(cols))
        site = r * cols + c
        sites = [
            (site,),
            tuple(sorted((site, r * cols + (c + 1) % cols))),
            tuple(sorted((site, ((r + 1) % rows) * cols + c))),
        ]
        members = [lattice.Observable.monomial(torus, s) for s in sites]
        return SimpleNamespace(
            torus=torus,
            rates=rates,
            engine=engine,
            plus=plus,
            minus=minus,
            family=concentration.TestFunctionFamily(members, self.lambdas, "nogo"),
            columns=np.stack([m.dense_values() for m in members], axis=1),
        )

    def operations(self, inp):
        ops = [("nogo_experiment", lambda: entropy.nogo_experiment(inp.rates, inp.plus, inp.minus, self.grid, inp.family))]
        for t in self.grid:
            if t > 0:
                ops.append((f"evolve_functions@{t}", lambda t=t: inp.engine.evolve_functions(inp.columns, t)))
        ops.append(("check_uvb", lambda: concentration.check_uvb(inp.plus, inp.family)))
        return ops

    def expected(self, inp):
        n = inp.torus.n_sites
        c = ref.glauber_ising_rates(self.sides, self.beta)
        rng = np.random.default_rng(0)
        sample = [(int(i), int(s)) for i, s in zip(rng.integers(n, size=64), rng.integers(1 << n, size=64))]
        rate_gap = max(abs(inp.rates.rate(i, s) - c[i, s]) / c[i, s] for i, s in sample)
        start = np.vstack([inp.plus.probs, inp.minus.probs])
        delta0 = ref.lipschitz_dense(inp.columns, n)
        return {
            "rate_gap": rate_gap,
            "gamma": ref.gamma_from_rates(c),
            "pairs": {t: inp.engine.evolve_measures(start, t) for t in self.grid},
            "delta0": delta0,
            "l2sq": np.sum(delta0**2, axis=0),
        }

    def _window(self, radius):
        rows, cols = self.sides
        return sorted({(a % rows) * cols + b % cols for a in range(-radius, radius + 1) for b in range(-radius, radius + 1)})

    def check(self, inp, outputs, expected, checks):
        n = inp.torus.n_sites
        full = (1 << n) - 1
        check_gibbs_pair(checks, "initial plus/minus Gibbs pair", np.vstack([inp.plus.probs, inp.minus.probs]), full)
        checks.true("Glauber rates match the closed form", expected["rate_gap"] <= 1e-12, f"relative gap {expected['rate_gap']:.3e}")
        report = outputs.get("nogo_experiment")
        if report is not None:
            self._check_report(inp, report, expected, checks)
        for t in self.grid:
            evolved = outputs.get(f"evolve_functions@{t}")
            if t <= 0 or evolved is None:
                continue
            pair = expected["pairs"][t]
            what = f"evolve_functions@t={t}"
            checks.true(f"{what} shape", evolved.shape == inp.columns.shape, str(evolved.shape))
            for k in range(inp.columns.shape[1]):
                for row, start in ((0, inp.plus.probs), (1, inp.minus.probs)):
                    checks.close(
                        f"{what} duality <mu S(t), f> = <mu, S(t) f> (column {k}, start {row})",
                        start @ evolved[:, k],
                        pair[row] @ inp.columns[:, k],
                        rtol=0.0,
                        atol=1e-10,
                    )
            bound = expm(t * expected["gamma"].T) @ expected["delta0"]
            check_lipschitz_bound(checks, what, ref.lipschitz_dense(evolved, n), bound)
        if "check_uvb" in outputs:
            uvb = max(
                float(inp.plus.probs @ (v - inp.plus.probs @ v) ** 2) / w
                for v, w in zip(inp.columns.T, expected["l2sq"])
            )
            checks.close("check_uvb best constant", outputs["check_uvb"].best_constant, uvb, rtol=1e-9)

    def _check_report(self, inp, report, expected, checks):
        """The rows of `nogo_experiment` against the benchmark's own
        evolution of the pair, and their monotonicity in t."""
        full = (1 << inp.torus.n_sites) - 1
        checks.true("nogo rows cover the grid", [row["t"] for row in report.rows] == sorted(self.grid))
        widest = report.radii[-1]
        window = self._window(widest)
        for row in report.rows:
            t = row["t"]
            pair = expected["pairs"][t]
            what = f"nogo@t={t}"
            check_gibbs_pair(checks, what, pair, full)
            p, q = np.clip(pair[0], 0.0, None), np.clip(pair[1], 0.0, None)
            checks.close(f"{what} TV", row["tv"], 0.5 * np.abs(p - q).sum(), rtol=1e-9)
            checks.close(f"{what} relative entropy", row["entropy"], ref.relative_entropy(q, p), rtol=1e-8, atol=1e-12)
            h = ref.relative_entropy(ref.marginal(q, window), ref.marginal(p, window)) / len(window)
            checks.close(f"{what} entropy density at radius {widest}", row["profile"][widest], h, rtol=1e-8, atol=1e-12)
            gcb = max(
                ref.log_moment(p, lam * inp.columns[:, k]) / (lam * lam * expected["l2sq"][k])
                for k in range(inp.columns.shape[1])
                for lam in self.lambdas
            )
            checks.close(f"{what} measured GCB constant", row["gcb_hat"], gcb, rtol=1e-8)
        for a, b in zip(report.rows, report.rows[1:]):
            checks.true(f"TV non-increasing t={a['t']}->{b['t']}", b["tv"] <= a["tv"] + 1e-12, f"{a['tv']} -> {b['tv']}")
            checks.true(
                f"relative entropy non-increasing t={a['t']}->{b['t']}",
                b["entropy"] <= a["entropy"] + 1e-10,
                f"{a['entropy']} -> {b['entropy']}",
            )


def check_gibbs_pair(checks, what, pair, full):
    """Mass, non-negativity and plus/minus spin-flip symmetry of a pair of
    distributions stacked as rows."""
    states = np.arange(pair.shape[1])
    for k in range(2):
        checks.close(f"{what} mass of row {k}", pair[k].sum(), 1.0, rtol=0.0, atol=1e-10)
        checks.true(f"{what} non-negative row {k}", pair[k].min() >= -1e-14, f"min {pair[k].min():.3e}")
    gap = float(np.max(np.abs(pair[1][states ^ full] - pair[0])))
    checks.true(f"{what} plus/minus symmetry", gap <= 1e-12, f"max gap {gap:.3e}")


def check_lipschitz_bound(checks, what, delta, bound):
    """delta S(t) f <= e^{t Gamma^T} delta f entrywise."""
    excess = float(np.max(delta - bound))
    checks.true(f"{what} Lipschitz propagation bound", excess <= 1e-9, f"excess {excess:.3e}")


# ------------------------------------------------------------------- kmc


class Kmc:
    """Replica ensembles and one long path of kinetic Monte Carlo."""

    name = "kmc"
    SIGMAS = 5.0  # estimates must fall within this many standard errors
    BASE_START = 0b1011001110

    def __init__(self, glauber_replicas=3000, independent_replicas=1000, path_flips=20000):
        self.n_glauber = 10
        self.beta = 0.5
        self.t_glauber = 0.5
        self.n_independent = 64
        self.rate = 1.0
        self.t_independent = 0.3
        self.glauber_replicas = glauber_replicas
        self.independent_replicas = independent_replicas
        self.t_path = path_flips / (self.n_independent * self.rate)

    def setup(self, seed):
        rng = np.random.default_rng([seed, 3])
        n, m = self.n_glauber, self.n_independent
        ring = lattice.Torus((n,))
        glauber = dynamics.GlauberRates(ring, gibbs.Potential.ising_nn(1, self.beta))
        shift = int(rng.integers(n))
        torus = lattice.Torus((m,))
        independent = dynamics.IndependentRates(torus, self.rate)
        p_plus = rng.permutation(np.linspace(0.2, 0.8, m))
        mean_sites = tuple(int(s) for s in rng.choice(m, 2, replace=False))
        moment_terms = [(a, (int(s),)) for a, s in zip((0.6, -0.4, 0.5, -0.3), rng.choice(m, 4, replace=False))]
        return SimpleNamespace(
            glauber=glauber,
            start=_rotate(self.BASE_START, shift, n),
            f_sites=((2 + shift) % n, (3 + shift) % n),
            f=lattice.Observable.monomial(ring, ((2 + shift) % n, (3 + shift) % n)),
            independent=independent,
            p_plus=p_plus,
            sampler=mc.product_sampler(torus, p_plus),
            mean_sites=mean_sites,
            g_mean=lattice.Observable.monomial(torus, mean_sites),
            moment_terms=moment_terms,
            g_moment=lattice.Observable.monomial_sum(torus, moment_terms),
            path_start=int.from_bytes(rng.bytes(8), "little"),
            seeds=[int(s) for s in rng.integers(1, 2**31, size=5)],
        )

    def operations(self, inp):
        s = inp.seeds
        rg, ri = self.glauber_replicas, self.independent_replicas
        return [
            ("glauber_mean", lambda: mc.ensemble_expectation(inp.glauber, mc.dirac_sampler(inp.start), self.t_glauber, inp.f, rg, s[0])),
            ("glauber_moment", lambda: mc.ensemble_exponential_moment(inp.glauber, mc.dirac_sampler(inp.start), self.t_glauber, inp.f, rg, s[1])),
            ("independent_mean", lambda: mc.ensemble_expectation(inp.independent, inp.sampler, self.t_independent, inp.g_mean, ri, s[2])),
            ("independent_moment", lambda: mc.ensemble_exponential_moment(inp.independent, inp.sampler, self.t_independent, inp.g_moment, ri, s[3])),
            ("path", lambda: mc.sample_path(inp.independent, inp.path_start, self.t_path, s[4])),
        ]

    def expected(self, inp):
        n = self.n_glauber
        states = np.arange(1 << n, dtype=np.int64)
        c = ref.rate_array(inp.glauber, n)
        row = expm(self.t_glauber * ref.dense_generator(c))[inp.start]
        f = ref.monomial(states, inp.f_sites)
        # independent flips: E sigma_i(t) = (2 p_i - 1) e^{-2 r t}, spins independent
        m = (2.0 * inp.p_plus - 1.0) * math.exp(-2.0 * self.rate * self.t_independent)
        log_moment = sum(math.log(math.cosh(a) + m[s] * math.sinh(a)) - a * m[s] for a, (s,) in inp.moment_terms)
        return {
            "glauber_mean": float(row @ f),
            "glauber_moment": ref.log_moment(row, f),
            "independent_mean": float(np.prod(m[list(inp.mean_sites)])),
            "independent_moment": log_moment,
            "path_flips": self.n_independent * self.rate * self.t_path,
        }

    def check(self, inp, outputs, expected, checks):
        replicas = {"glauber": self.glauber_replicas, "independent": self.independent_replicas}
        for label in ("glauber_mean", "glauber_moment", "independent_mean", "independent_moment"):
            est = outputs.get(label)
            if est is None:
                continue
            check_estimate(checks, label, est.estimate, est.std_error, expected[label], self.SIGMAS)
            checks.true(f"{label} replica count", est.replicas == replicas[label.split("_")[0]], str(est.replicas))
        if "path" in outputs:
            check_path(checks, outputs["path"], inp.path_start, self.n_independent, self.t_path, expected["path_flips"], self.SIGMAS)


def check_estimate(checks, what, estimate, std_error, exact, sigmas):
    ok = math.isfinite(std_error) and std_error > 0 and abs(estimate - exact) <= sigmas * std_error + 1e-12
    checks.true(f"{what} within {sigmas:g} standard errors", ok, f"estimate {estimate!r} +- {std_error!r}, exact {exact!r}")


def check_path(checks, path, start, n_sites, t_end, mean_flips, sigmas):
    """A path of independent unit-rate flips: event times ordered in (0,
    t_end), the final state equal to the start with every flipped site
    toggled, a Poisson total and uniform per-site counts."""
    times = np.asarray(path.times)
    sites = np.asarray(path.sites)
    checks.true("path start", path.start == start)
    checks.true("path events paired", times.size == sites.size, f"{times.size} times, {sites.size} sites")
    if times.size != sites.size or times.size == 0:
        checks.true("path has events", False)
        return
    checks.true("path times increasing inside (0, t_end)", bool(np.all(np.diff(times) > 0) and times[0] > 0 and times[-1] < t_end))
    checks.true("path sites on the torus", bool(sites.min() >= 0 and sites.max() < n_sites))
    counts = np.bincount(sites, minlength=n_sites)
    toggled = 0
    for s in np.nonzero(counts & 1)[0]:
        toggled |= 1 << int(s)
    checks.true("path final state", path.final_state == start ^ toggled)
    checks.true(
        f"path flip count within {sigmas:g} standard deviations",
        abs(times.size - mean_flips) <= sigmas * math.sqrt(mean_flips),
        f"{times.size} flips, mean {mean_flips}",
    )
    per_site = mean_flips / n_sites
    chi2 = float(np.sum((counts - per_site) ** 2) / per_site)
    limit = n_sites + 6.0 * math.sqrt(2.0 * n_sites)
    checks.true("path per-site counts uniform", chi2 <= limit, f"chi2 {chi2:.1f} > {limit:.1f}")


# -------------------------------------------------------------- symbolic


class Symbolic:
    """Exact L^n sigma_A expansions, the truncated series and the tail lemma."""

    name = "symbolic"
    RIGHT = (Fraction(1, 4), Fraction(-1, 4), Fraction(3, 8), Fraction(-3, 8))
    PAIR = (Fraction(1, 4), Fraction(-1, 4), Fraction(1, 8), Fraction(-1, 8))
    # (offsets of A from a seeded x0, top power): L^n sigma_A for n = 0..top.
    # The exact sup norm enumerates 2^support patterns, so each power costs
    # about five times the one before and a single sweep would be mostly its
    # top call.  Wider sets stop at lower powers, so that n = 5, 6 and 7 each
    # take about a third of the pass and no call more than a quarter.
    EXPANSIONS = (((0,), 7), ((0, 1), 7), ((0, 3), 6), ((0, 1, 2), 6), ((0, 2, 5), 5))

    def __init__(self, expansions=EXPANSIONS, series_order=6):
        self.expansions = expansions
        self.series_order = series_order
        self.series_share = 0.4
        self.tail = (2.0, 1.0)  # GeometricTail(a, scale)
        self.tail_c = 0.5
        self.tail_u = 1.0
        self.tail_order = 6
        self.tail_k_max = 40

    def setup(self, seed):
        rng = np.random.default_rng([seed, 4])
        # c(i, sigma) = 1 + a sigma_{i+1} + b sigma_{i-1} sigma_{i+1} > 0
        a = self.RIGHT[int(rng.integers(len(self.RIGHT)))]
        b = self.PAIR[int(rng.integers(len(self.PAIR)))]
        terms = [((), Fraction(1)), (((1,),), a), (((-1,), (1,)), b)]
        gen = symbolic.GeneratorSpec(terms)
        x0 = int(rng.integers(-20, 21))
        t0 = symbolic.analyticity_radius(gen, [x0])
        return SimpleNamespace(
            gen=gen,
            shapes={symbolic.as_monomial(s): lam for s, lam in terms},
            x0=x0,
            A=[x0],
            t=self.series_share * float(t0),
            psi=symbolic.GeometricTail(*self.tail),
        )

    @staticmethod
    def power_label(offsets, n):
        return f"power@{n} A=x0+" + ",".join(map(str, offsets))

    def operations(self, inp):
        ops = [
            (self.power_label(offsets, n), lambda A=[inp.x0 + o for o in offsets], n=n: symbolic.apply_generator_power(inp.gen, n, A))
            for offsets, top in self.expansions
            for n in range(top + 1)
        ]
        ops.append(("series", lambda: symbolic.truncated_series(inp.gen, inp.t, inp.A, self.series_order)))
        ops.append(
            (
                "infinite_range",
                lambda: symbolic.infinite_range_bound(inp.psi, self.tail_c, self.tail_u, inp.A, self.tail_order, self.tail_k_max),
            )
        )
        return ops

    @staticmethod
    def _ring(offsets, top):
        """A ring on which L^top sigma_A never wraps: the expansion reaches
        `top` sites either side of A and reads one site further."""
        return max(offsets) + 1 + 2 * top + 1

    def expected(self, inp):
        powers = {}
        for offsets, top in self.expansions:
            ring = self._ring(offsets, top)
            states = np.arange(1 << ring, dtype=np.int64)
            c = ref.ring_rates(inp.shapes, ring, states)
            values = ref.monomial(states, [top + o for o in offsets])
            for n in range(top + 1):
                if n:
                    values = ref.ring_generator_apply(c, values, ring)
                powers[offsets, n] = {
                    "ring": ring,
                    "coeffs": ref.walsh_coefficients(values),
                    "sup": float(np.max(np.abs(values))),
                    "bound": ref.loccast_bound(inp.shapes, n, len(offsets)),
                }
            del values, c

        order = self.series_order
        sring = self._ring((0,), order)
        sstates = np.arange(1 << sring, dtype=np.int64)
        sc = ref.ring_rates(inp.shapes, sring, sstates)
        term = ref.monomial(sstates, [order])
        taylor = term.copy()
        for n in range(1, order + 1):
            term = ref.ring_generator_apply(sc, term, sring)
            taylor += inp.t**n / math.factorial(n) * term
        exact = ref.semigroup_on_ring(sc, ref.monomial(sstates, [order]), sring, inp.t)

        m = max(abs(lam) for lam in inp.shapes.values())
        k = max(len(b) for b in inp.shapes)
        rho = 2.0 * inp.t * float(m) * len(inp.shapes) * (1 + k)
        a, scale = self.tail
        f_u = scale / (1.0 - math.exp(self.tail_u - a))
        n = self.tail_order
        kappa = 2.0 * self.tail_c * len(inp.A) * f_u / self.tail_u
        psi = [scale * math.exp(-a * j) for j in range(self.tail_k_max + 1)]
        return {
            "powers": powers,
            "series_ring": sring,
            "taylor": taylor,
            "exact": exact,
            "remainder": rho ** (order + 1) / (1.0 - rho),
            "tail": {
                "f_of_u": f_u,
                "kappa": kappa,
                "chain_bound": math.exp(self.tail_u) * math.factorial(n) * kappa**n,
                "lemma_lhs": ref.tail_combinatorial_sum(psi, n),
                "lemma_rhs": math.exp(self.tail_u) * math.factorial(n) * self.tail_u ** (-n) * f_u**n,
            },
        }

    def check(self, inp, outputs, expected, checks):
        for offsets, top in self.expansions:
            for n in range(top + 1):
                label = self.power_label(offsets, n)
                result = outputs.get(label)
                if result is None:
                    continue
                want = expected["powers"][offsets, n]
                what = f"L^{n} sigma_A, A = x0+{offsets}"
                check_polynomial(checks, what, result.polynomial.terms, want["coeffs"], inp.x0 - top, want["ring"])
                checks.true(f"{what} exact sup norm available", result.exact_available and result.exact_sup_norm is not None)
                if result.exact_sup_norm is not None:
                    checks.close(f"{what} exact sup norm", result.exact_sup_norm, want["sup"], rtol=1e-12)
                checks.close(f"{what} coefficient l1 norm", result.coeff_l1_norm, np.abs(want["coeffs"]).sum(), rtol=1e-9)
                checks.true(f"{what} factorial bound", result.loccast_bound == want["bound"], f"{result.loccast_bound} != {want['bound']}")
                checks.true(f"{what} within the factorial bound", result.coeff_l1_norm <= result.loccast_bound)

        series = outputs.get("series")
        if series is not None:
            self._check_series(inp, series, expected, checks)

        tail = outputs.get("infinite_range")
        if tail is not None:
            for key, want in expected["tail"].items():
                checks.close(f"infinite-range {key}", getattr(tail, key), want, rtol=1e-10)
            checks.true("infinite-range lemma holds", tail.holds is True and tail.lemma_lhs <= tail.lemma_rhs)

    def _check_series(self, inp, series, expected, checks):
        order, sring = self.series_order, expected["series_ring"]
        states = np.arange(1 << sring, dtype=np.int64)
        origin = inp.x0 - order
        inside = all(0 <= x[0] - origin < sring for key in series.coeffs for x in key)
        checks.true("series terms inside the no-wrap window", inside)
        if inside:
            values = ref.polynomial_on_ring(series.coeffs, sring, origin, states)
            gap = float(np.max(np.abs(values - expected["taylor"])))
            checks.true("series equals the dense Taylor sum", gap <= 1e-10, f"max gap {gap:.3e}")
            gap = float(np.max(np.abs(values - expected["exact"])))
            checks.true(
                "series within its remainder bound of the exact semigroup",
                gap <= series.remainder_bound + 1e-10,
                f"gap {gap:.3e} > remainder {series.remainder_bound:.3e}",
            )
        checks.close("series remainder bound", series.remainder_bound, expected["remainder"], rtol=1e-12)


def check_polynomial(checks, what, terms, coeffs, origin, ring):
    """Exact polynomial terms against Walsh coefficients of a dense vector
    on a ring, with coordinate x at ring site x - origin."""
    dense = np.zeros(coeffs.size)
    for key, coeff in terms.items():
        sites = [x[0] - origin for x in key]
        if not all(0 <= s < ring for s in sites):
            checks.true(f"{what} terms inside the no-wrap window", False, str(sorted(key)))
            return
        dense[sum(1 << s for s in sites)] += float(coeff)
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    gap = float(np.max(np.abs(dense - coeffs)))
    checks.true(f"{what} coefficients match the dense evaluation", gap <= 1e-9 * scale, f"max gap {gap:.3e}")


WORKLOADS = {w.name: w for w in (Conserve, NoGo, Kmc, Symbolic)}
