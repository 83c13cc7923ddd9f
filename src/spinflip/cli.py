"""Command-line front end wiring the library into runnable experiments.

One entry point with subcommands; every run writes a JSON report (single
source of truth), a CSV table, and bare-column .dat files for plotting.  The
plot emitter copies numbers out of the report and never recomputes anything.
Configuration is INI-style `key = value` under bracketed sections, every key
overridable by a command-line flag.  Exit codes: 0 clean, 1 a checked
inequality failed, 2 bad configuration, 3 internal error (the traceback goes
to stderr).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import traceback
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import acceptance
from .concentration import (
    ABS_P_RANGE,
    TestFunctionFamily,
    check_uvb,
    empirical_gcb_constant,
    family_summary,
    hjc_check,
    hjc_library,
    product_gcb_constant,
    product_uvb_constant,
    theorem31_check,
    theorem52_check,
    theorem53_check,
)
from .dynamics import (
    GlauberRates,
    IndependentRates,
    PerturbedRates,
    engine_for,
    gamma_matrix,
    validate_conditions,
)
from .entropy import nogo_experiment
from .gibbs import (
    BoundaryCondition,
    Potential,
    dirac_vector,
    gibbs_measure,
    product_measure,
    uniform_measure,
)
from .lattice import EXACT_SITE_CAP, Observable, Torus, monomial_eval
from .mc import (
    _exponential_moment,
    _final_values,
    _mean,
    dirac_sampler,
    product_sampler,
    sample_path,
    vector_sampler,
)
from .symbolic import (
    EstimateViolated,
    GeneratorSpec,
    POWER_CAP,
    TermCapExceeded,
    analyticity_radius,
    generator_powers,
    power_result,
)

DATA_DIR = Path(__file__).parent / "data"


class ConfigError(Exception):
    """Bad configuration; maps to exit code 2."""


class InequalityViolation(Exception):
    """A checked inequality failed; maps to exit code 1."""


def _ints(text) -> tuple:
    return tuple(int(tok) for tok in str(text).replace(",", " ").split())


def _floats(text) -> tuple:
    return tuple(float(tok) for tok in str(text).replace(",", " ").split())


def _finite(text) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("need a finite number")
    return value


def _times(text) -> tuple:
    times = _floats(text)
    if not times or not all(0 <= t < math.inf for t in times):
        raise ValueError("need one or more finite times >= 0")
    return times


def _int_any_base(text) -> int:
    return int(str(text), 0)


class Field(NamedTuple):
    """One configuration field: where it lives in the INI file, the
    ExperimentConfig attribute it sets, its command-line flag, and how a
    raw string becomes its value."""

    section: str
    key: str
    name: str
    flag: str
    parse: Callable
    choices: tuple | None = None
    help: str | None = None


# The INI layout, the flag overrides and the argparse flags are all read
# from this table.
FIELDS = (
    Field("torus", "sides", "sides", "--sides", _ints, help="torus side lengths, e.g. '8' or '4 4'"),
    Field("rates", "kind", "rates_kind", "--rates", str, ("independent", "glauber", "perturbed")),
    Field("rates", "r", "r", "--r", float, help="independent flip rate"),
    Field("rates", "eps0", "eps0", "--eps0", float, help="perturbation size for perturbed rates"),
    Field("rates", "beta", "beta", "--beta", _finite, help="nearest-neighbor Ising inverse temperature"),
    Field("rates", "potential", "potential", "--potential", str, help="potential file (bundled names resolve too)"),
    Field("measure", "kind", "measure_kind", "--measure", str, ("uniform", "product", "dirac", "gibbs")),
    Field("measure", "p_plus", "p_plus", "--p-plus", float),
    Field("measure", "state", "state", "--state", _int_any_base, help="packed spin state for dirac, e.g. 0b1010 or 5"),
    Field("times", "grid", "times", "--times", _times, help="time grid, e.g. '0.25 0.5 1 2'"),
    Field("family", "kind", "family_kind", "--family", str, ("monomials", "random")),
    Field("family", "k_max", "k_max", "--k-max", int),
    Field("family", "count", "count", "--count", int),
    Field("family", "seed", "family_seed", "--family-seed", int),
    Field("run", "seed", "seed", "--seed", int),
    Field("run", "replicas", "replicas", "--replicas", int),
    Field("run", "out", "out", "--out", str, help="output directory for JSON/CSV/plot files"),
    Field("run", "exact_cap", "exact_cap", "--exact-cap", int),
    Field("run", "symbolic_n", "symbolic_n", "--symbolic-n", int),
)


@dataclass(frozen=True)
class ExperimentConfig:
    sides: tuple = (8,)
    rates_kind: str = "independent"
    r: float = 1.0
    eps0: float = 0.1
    beta: float | None = None
    potential: str | None = None
    measure_kind: str = "uniform"
    p_plus: float = 0.5
    state: int = 0
    times: tuple = (0.25, 0.5, 1.0, 2.0)
    family_kind: str = "monomials"
    k_max: int = 3
    count: int = 40
    family_seed: int = 0
    seed: int = 0
    replicas: int = 2000
    out: str = "out"
    exact_cap: int = 12
    symbolic_n: int = 5

    @classmethod
    def parse(cls, text: str) -> "ExperimentConfig":
        import configparser

        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        known = {(f.section, f.key): f for f in FIELDS}
        values = {}
        for sec in parser.sections():
            if not any(f.section == sec for f in FIELDS):
                raise ConfigError(f"unknown config section [{sec}]")
            for key, raw in parser.items(sec):
                if (sec, key) not in known:
                    raise ConfigError(f"unknown config key {key} in [{sec}]")
                f = known[sec, key]
                try:
                    values[f.name] = f.parse(raw)
                except ValueError as exc:
                    raise ConfigError(f"bad value for {sec}.{key}: {raw!r}") from exc
        return cls(**values)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        return cls.parse(path.read_text())

    def override(self, values: dict) -> "ExperimentConfig":
        return replace(self, **values)


def build_torus(cfg: ExperimentConfig) -> Torus:
    if not cfg.sides or any(s < 2 for s in cfg.sides):
        raise ConfigError(f"bad torus sides {cfg.sides}")
    return Torus(cfg.sides)


def require_exact(cfg: ExperimentConfig, torus: Torus) -> None:
    cap = min(cfg.exact_cap, EXACT_SITE_CAP)
    if torus.n_sites > cap:
        raise ConfigError(f"{torus.n_sites} sites exceeds the exact-enumeration cap {cap}")


def build_potential(cfg: ExperimentConfig) -> Potential:
    if cfg.potential is not None:
        path = Path(cfg.potential)
        if not path.is_file():
            path = DATA_DIR / cfg.potential
        if not path.is_file():
            raise ConfigError(f"potential file not found: {cfg.potential}")
        try:
            return Potential.load(path)
        except ValueError as exc:
            raise ConfigError(f"bad potential file {cfg.potential}: {exc}") from exc
    if cfg.beta is not None:
        return Potential.ising_nn(len(cfg.sides), cfg.beta)
    raise ConfigError("need a potential file or beta for this command")


def glauber_rates(torus: Torus, potential: Potential) -> GlauberRates:
    try:
        return GlauberRates(torus, potential)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_rates(cfg: ExperimentConfig, torus: Torus):
    kind = cfg.rates_kind
    if kind == "independent":
        if not 0 < cfg.r < math.inf:
            raise ConfigError(f"rate r = {cfg.r} must be positive and finite")
        return IndependentRates(torus, cfg.r)
    if kind == "glauber":
        return glauber_rates(torus, build_potential(cfg))
    if kind == "perturbed":
        if not abs(cfg.eps0) < 1:
            raise ConfigError(f"perturbation eps0 = {cfg.eps0} must satisfy |eps0| < 1")
        return PerturbedRates.pair(torus, cfg.eps0)
    raise ConfigError(f"unknown rates kind {kind!r}")


def build_engine(cfg: ExperimentConfig, rates):
    """The rate model's engine with the coefficients of its route for every
    time of the grid in its cache, so that a rate table or a time the route
    cannot serve is a configuration error before any evolution starts."""
    try:
        engine = engine_for(rates)
        for t in cfg.times:
            engine.coefficients(t)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return engine


def build_gamma(cfg: ExperimentConfig, rates, integral: bool = False):
    """The rate model's Gamma, with K(t), and int_0^t K(s)^2 ds when the
    command reads it, checked at the largest time of the grid: both grow
    with t (Gamma >= 0), so one past the float range there is a
    configuration error before any evolution starts, as is a Gamma that is
    not normal (rates that are not translation invariant)."""
    t = max(cfg.times)
    try:
        gamma = gamma_matrix(rates)
        gamma.k_of_t(t)
        if integral:
            gamma.k_squared_integral(t)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return gamma


def dirac_state(cfg: ExperimentConfig, torus: Torus) -> int:
    if not 0 <= cfg.state < (1 << torus.n_sites):
        raise ConfigError(f"state {cfg.state} out of range for {torus.n_sites} sites")
    return cfg.state


def plus_probability(cfg: ExperimentConfig) -> float:
    if not 0 <= cfg.p_plus <= 1:
        raise ConfigError(f"p_plus = {cfg.p_plus} must lie in [0, 1]")
    return cfg.p_plus


def build_measure(cfg: ExperimentConfig, torus: Torus) -> np.ndarray:
    kind = cfg.measure_kind
    if kind == "uniform":
        return uniform_measure(torus)
    if kind == "product":
        return product_measure(torus, plus_probability(cfg))
    if kind == "dirac":
        return dirac_vector(torus, dirac_state(cfg, torus))
    if kind == "gibbs":
        return gibbs_measure(build_potential(cfg), torus).probs
    raise ConfigError(f"unknown measure kind {kind!r}")


def build_family(cfg: ExperimentConfig, torus: Torus) -> TestFunctionFamily:
    if cfg.k_max < 1 or cfg.count < 1:
        raise ConfigError(f"family needs k_max >= 1 and count >= 1 (k_max {cfg.k_max}, count {cfg.count})")
    if cfg.family_kind == "monomials":
        return TestFunctionFamily.monomials(torus, cfg.k_max, max_count=cfg.count)
    if cfg.family_kind == "random":
        try:
            return TestFunctionFamily.random_combinations(torus, count=cfg.count, seed=cfg.family_seed, k_max=cfg.k_max)
        except ValueError as exc:
            raise ConfigError(f"bad random family: {exc}") from exc
    raise ConfigError(f"unknown family kind {cfg.family_kind!r}")


def certified_start_constant(cfg: ExperimentConfig, kind: str) -> float:
    """GCB / UVB constant of the initial measure that holds for every
    function, by measure class."""
    if cfg.measure_kind in ("uniform", "product"):
        return product_gcb_constant() if kind == "gcb" else product_uvb_constant()
    if cfg.measure_kind == "dirac":
        return 0.0
    if cfg.measure_kind == "gibbs":
        pot = build_potential(cfg)
        c = pot.dobrushin_constant()
        if c >= 1:
            raise ConfigError(
                f"Dobrushin constant {c:.6g} >= 1: no certified start constant"
            )
        gcb = pot.gcb_constant_dobrushin()
        # a Gaussian moment bound with C gives Var <= 2C per unit Lipschitz
        return gcb if kind == "gcb" else 2 * gcb
    raise ConfigError(f"unknown measure kind {cfg.measure_kind!r}")


def _g(x) -> str:
    return f"{float(x):.12g}"


# ---------------------------------------------------------------------------
# report plumbing


def new_report(command: str, cfg: ExperimentConfig) -> dict:
    return {
        "command": command,
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config": {f.name: getattr(cfg, f.name) for f in fields(cfg)},
        "table": {"columns": [], "rows": []},
        "curves": [],
        "violations": [],
    }


def emit_plot_data(report: dict, out_dir) -> list:
    """Bare whitespace-separated columns per curve, copied from the report."""
    out_dir = Path(out_dir)
    paths = []
    for curve in report.get("curves", []):
        path = out_dir / f"{curve['name']}.dat"
        with open(path, "w") as fh:
            fh.write("# " + " ".join(curve["columns"]) + "\n")
            for row in curve["rows"]:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
        paths.append(path)
    return paths


def write_artifacts(report: dict, out_dir) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = report["command"]
    with open(out_dir / f"{name}.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    table = report["table"]
    with open(out_dir / f"{name}.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table["columns"])
        writer.writerows(table["rows"])
    emit_plot_data(report, out_dir)


# ---------------------------------------------------------------------------
# subcommands


def cmd_dobrushin(cfg: ExperimentConfig, args) -> dict:
    pot = build_potential(cfg)
    c = pot.dobrushin_constant()
    report = new_report("dobrushin", cfg)
    report["dobrushin_c"] = c
    report["unique_regime"] = c < 1
    if c < 1:
        gcb = pot.gcb_constant_dobrushin()
        report["gcb_constant"] = gcb
        print(f"c = {_g(c)}")
        print(f"C = {_g(gcb)}")
        rows = [[cfg.potential or f"ising_nn(beta={cfg.beta})", _g(c), _g(gcb)]]
    else:
        report["gcb_constant"] = None
        print(f"c = {_g(c)}")
        print("C = n/a (c >= 1, outside the uniqueness regime)")
        rows = [[cfg.potential or f"ising_nn(beta={cfg.beta})", _g(c), ""]]
    report["table"] = {"columns": ["potential", "dobrushin_c", "gcb_constant"], "rows": rows}
    return report


def cmd_evolve(cfg: ExperimentConfig, args) -> dict:
    torus = build_torus(cfg)
    require_exact(cfg, torus)
    rates = build_rates(cfg, torus)
    mu = build_measure(cfg, torus)
    family = build_family(cfg, torus)
    engine = build_engine(cfg, rates)
    gamma = build_gamma(cfg, rates)
    labeled = [(label, f.dense_values()) for label, f in family.labeled()]
    rows = []
    k_rows = []
    for t, mu_t in zip(cfg.times, engine.evolve_measures_over(mu, cfg.times)):
        k_rows.append([t, gamma.k_of_t(t)])
        for label, values in labeled:
            rows.append([t, label, float(mu_t @ values)])
    report = new_report("evolve", cfg)
    report["engine"] = engine.summary()
    report["table"] = {"columns": ["t", "label", "expectation"], "rows": rows}
    report["curves"] = [{"name": "k_of_t", "columns": ["t", "value"], "rows": k_rows}]
    print(f"evolved {len(labeled)} observables over {len(cfg.times)} times")
    return report


def _scan(cfg: ExperimentConfig, args, kind: str) -> dict:
    bound = args.bound
    if bound is not None and not math.isfinite(bound):
        raise ConfigError(f"--bound {bound} must be finite")
    torus = build_torus(cfg)
    require_exact(cfg, torus)
    rates = build_rates(cfg, torus)
    mu = build_measure(cfg, torus)
    family = build_family(cfg, torus)
    check = empirical_gcb_constant if kind == "gcb" else check_uvb
    rows = []
    curve_rows = []
    violations = []
    engine = build_engine(cfg, rates)
    for t, mu_t in zip(cfg.times, engine.evolve_measures_over(mu, cfg.times)):
        rep = check(mu_t, family, bound=bound)
        rows.append([t, rep.best_constant, rep.best_label, "" if bound is None else bound])
        curve_rows.append([t, rep.best_constant] + ([] if bound is None else [bound]))
        for v in rep.violations:
            violations.append({"t": t, **{k: v[k] for k in ("label", "lam", "ratio")}})
        print(f"t = {_g(t)}  C-hat = {_g(rep.best_constant)}  ({rep.best_label})")
    name = "gcb_hat" if kind == "gcb" else "uvb_hat"
    report = new_report("gcb-scan" if kind == "gcb" else "uvb-check", cfg)
    report["engine"] = engine.summary()
    report["conditions"] = asdict(validate_conditions(rates))
    report["table"] = {"columns": ["t", "c_hat", "best_label", "bound"], "rows": rows}
    columns = ["t", "value"] + ([] if bound is None else ["bound"])
    report["curves"] = [{"name": name, "columns": columns, "rows": curve_rows}]
    report["violations"] = violations
    if violations:
        word = "Gaussian concentration bound" if kind == "gcb" else "uniform variance bound"
        first = violations[0]
        raise InequalityViolation(
            f"{word} violated: ratio {_g(first['ratio'])} > {_g(bound)} "
            f"at t = {_g(first['t'])} ({first['label']})",
            report,
        )
    return report


def cmd_gcb_scan(cfg, args):
    return _scan(cfg, args, "gcb")


def cmd_uvb_check(cfg, args):
    return _scan(cfg, args, "uvb")


THEOREM_NAMES = {
    "31": "exponential-moment conservation (C-hat <= D_t + K(t) C_mu)",
    "52": "variance conservation (C-hat <= C_mu K(t) + avg start constant)",
    "53": "time-integrated variance bound (Var <= 2 c-hat int K ds)",
    "hjc": "(H, J, C) conservation (int H(f - Ef) dmuS(t) <= J(C_t ||delta f||_2))",
}


def cmd_conserve(cfg: ExperimentConfig, args) -> dict:
    torus = build_torus(cfg)
    require_exact(cfg, torus)
    rates = build_rates(cfg, torus)
    family = build_family(cfg, torus)
    theorem = args.theorem
    if theorem == "hjc" and args.hjc == "abs_p" and not 1 <= args.hjc_p < math.inf:
        raise ConfigError(f"--hjc-p {args.hjc_p}: {ABS_P_RANGE}")
    engine = build_engine(cfg, rates)
    gamma = build_gamma(cfg, rates, integral=theorem == "53")
    if theorem == "53":
        check = partial(theorem53_check, rates, family=family)
    else:
        mu = build_measure(cfg, torus)
        if theorem == "31":
            c_mu = certified_start_constant(cfg, "gcb")
            check = partial(theorem31_check, rates, mu=mu, family=family, c_mu=c_mu)
        elif theorem == "52":
            c_mu = certified_start_constant(cfg, "uvb")
            check = partial(theorem52_check, rates, mu=mu, family=family, c_mu=c_mu)
        else:
            name = f"abs_p:{args.hjc_p}" if args.hjc == "abs_p" else args.hjc
            try:
                spec = hjc_library(name)
            except ValueError as exc:
                raise ConfigError(f"--hjc {name}: {exc}") from exc
            check = partial(hjc_check, rates, mu=mu, spec=spec, family=family)
    rows = []
    curve_rows = []
    failures = []
    for t in cfg.times:
        rep = check(t=t)
        rows.append([t, rep.k_t, rep.measured_constant, rep.composite_constant, rep.holds])
        curve_rows.append([t, rep.measured_constant, rep.composite_constant])
        if not rep.holds:
            failures.append({"t": t, "measured": rep.measured_constant, "bound": rep.composite_constant})
        print(
            f"t = {_g(t)}  measured = {_g(rep.measured_constant)}  "
            f"bound = {_g(rep.composite_constant)}  {'ok' if rep.holds else 'VIOLATED'}"
        )
    report = new_report("conserve", cfg)
    report["theorem"] = theorem
    report["engine"] = engine.summary()
    report["conditions"] = asdict(validate_conditions(rates))
    report["gamma"] = {"alpha": gamma.alpha}
    # the orbits do not depend on t: found by the first check, kept on the family
    report["family"] = family_summary(rates, family)
    report["table"] = {"columns": ["t", "k_t", "measured", "bound", "holds"], "rows": rows}
    report["curves"] = [
        {"name": f"theorem{theorem}", "columns": ["t", "value", "bound"], "rows": curve_rows}
    ]
    report["violations"] = failures
    if failures:
        first = failures[0]
        raise InequalityViolation(
            f"{THEOREM_NAMES[theorem]} violated: measured {_g(first['measured'])} > "
            f"bound {_g(first['bound'])} at t = {_g(first['t'])}",
            report,
        )
    return report


def _load_generator(args) -> GeneratorSpec:
    if args.gen is None:
        raise ConfigError("need --gen FILE")
    path = Path(args.gen)
    if not path.is_file():
        path = DATA_DIR / args.gen
    if not path.is_file():
        raise ConfigError(f"generator file not found: {args.gen}")
    try:
        gen = GeneratorSpec.load(path)
    except ValueError as exc:
        raise ConfigError(f"bad generator file {args.gen}: {exc}") from exc
    if gen.m_max_coeff == 0:
        raise ConfigError(f"bad generator file {args.gen}: every coefficient is zero")
    return gen


def _radii(text: str) -> tuple:
    try:
        radii = _ints(text)
        if radii and all(r >= 0 for r in radii):
            return radii
    except ValueError:
        pass
    raise ConfigError(f"bad --radii {text!r}: need one or more integers >= 0")


def _parse_sites(text: str, dim: int):
    """1D: commas and spaces both separate sites.  Higher d: spaces separate
    sites, commas separate coordinates.  A site may appear once."""
    try:
        if dim == 1:
            sites = [int(tok) for tok in text.replace(",", " ").split()]
        else:
            sites = [tuple(int(x) for x in tok.split(",")) for tok in text.split()]
    except ValueError as exc:
        raise ConfigError(f"bad site list {text!r}") from exc
    if dim > 1 and any(len(x) != dim for x in sites):
        raise ConfigError(f"bad site list {text!r}: the generator needs {dim} coordinates per site")
    if len(set(sites)) != len(sites):
        raise ConfigError(f"bad site list {text!r}: a site is repeated")
    return sites


def cmd_symbolic_bound(cfg: ExperimentConfig, args) -> dict:
    gen = _load_generator(args)
    if not args.A:
        raise ConfigError("need --A SITES")
    A = _parse_sites(args.A, gen.dim)
    n_max = cfg.symbolic_n if args.n is None else args.n
    if not 0 <= n_max <= POWER_CAP:
        raise ConfigError(f"power {n_max} outside 0..{POWER_CAP}")
    rows = []
    json_rows = []
    violations = []
    for n, poly in enumerate(generator_powers(gen, n_max, A)):
        try:
            result = power_result(gen, n, A, poly)
        except EstimateViolated as exc:
            # l1 > bound; the sup norm, at most l1, never fails alone
            result = exc.result
            violations.append({"n": n, "norm": str(result.coeff_l1_norm), "bound": str(result.loccast_bound)})
        bound = result.loccast_bound
        if result.exact_available:
            norm, norm_kind = result.exact_sup_norm, "sup"
        else:
            norm, norm_kind = result.coeff_l1_norm, "l1"
        ratio = float(norm / bound) if bound else (0.0 if norm == 0 else float("inf"))
        rows.append([n, norm_kind, _g(norm), _g(bound), _g(ratio), result.polynomial.n_terms()])
        json_rows.append(
            {
                "n": n,
                "norm_kind": norm_kind,
                "norm": str(norm),
                "bound": str(bound),
                "ratio": ratio,
                "terms": result.polynomial.n_terms(),
            }
        )
        print(f"n = {n}  ||L^n sigma_A|| ({norm_kind}) = {_g(norm)}  bound = {_g(bound)}")
    t0 = analyticity_radius(gen, A)
    print(f"t0 = {t0} = {_g(t0)}")
    report = new_report("symbolic-bound", cfg)
    report["rows"] = json_rows
    report["radius"] = {"exact": str(t0), "value": float(t0)}
    report["table"] = {
        "columns": ["n", "norm_kind", "norm", "bound", "ratio", "terms"],
        "rows": rows,
    }
    report["violations"] = violations
    if violations:
        first = violations[0]
        raise InequalityViolation(
            f"iterated-generator norm bound violated: l1 norm of L^n sigma_A = {first['norm']} > "
            f"2^n M^n |B|^n (|A|+K)^n n! = {first['bound']} at n = {first['n']}",
            report,
        )
    return report


def cmd_radius(cfg: ExperimentConfig, args) -> dict:
    gen = _load_generator(args)
    if not args.A:
        raise ConfigError("need --A SITES")
    A = _parse_sites(args.A, gen.dim)
    t0 = analyticity_radius(gen, A)
    print(f"t0 = {t0} = {_g(t0)}")
    report = new_report("radius", cfg)
    report["radius"] = {"exact": str(t0), "value": float(t0)}
    report["table"] = {"columns": ["radius_exact", "radius"], "rows": [[str(t0), float(t0)]]}
    return report


def cmd_nogo(cfg: ExperimentConfig, args) -> dict:
    torus = build_torus(cfg)
    require_exact(cfg, torus)
    pot = build_potential(cfg)
    rates = glauber_rates(torus, pot)
    volume = tuple(torus.sites())
    plus = gibbs_measure(pot, torus, boundary=BoundaryCondition.fixed(+1), volume=volume)
    minus = gibbs_measure(pot, torus, boundary=BoundaryCondition.fixed(-1), volume=volume)
    family = build_family(cfg, torus)
    radii = _radii(args.radii) if args.radii else None
    engine = build_engine(cfg, rates)
    result = nogo_experiment(rates, plus.probs, minus.probs, cfg.times, family, radii=radii)
    rows = []
    for row in result.rows:
        for radius in result.radii:
            rows.append(
                [row["t"], row["tv"], row["entropy"], row["gcb_hat"], radius, row["profile"][radius]]
            )
    report = new_report("nogo", cfg)
    report["engine"] = engine.summary()
    report["degenerate"] = result.degenerate
    report["min_tv"] = result.min_tv
    report["max_density"] = result.max_density
    report["summary"] = result.summary
    report["table"] = {
        "columns": ["t", "tv", "entropy", "gcb_hat", "radius", "h_per_site"],
        "rows": rows,
    }
    report["curves"] = [
        {"name": "tv", "columns": ["t", "value"], "rows": [[r["t"], r["tv"]] for r in result.rows]},
        {
            "name": "entropy",
            "columns": ["t", "value"],
            "rows": [[r["t"], r["entropy"]] for r in result.rows],
        },
    ]
    print(result.summary)
    return report


def cmd_mc(cfg: ExperimentConfig, args) -> dict:
    torus = build_torus(cfg)
    rates = build_rates(cfg, torus)
    sites = _parse_sites(args.sites, 1) if args.sites else [0]
    for s in sites:
        if not 0 <= s < torus.n_sites:
            raise ConfigError(f"observable site {s} out of range")
    f = Observable.monomial(torus, sites)
    t = args.t if args.t is not None else max(cfg.times)
    if not 0 <= t < math.inf:
        raise ConfigError(f"time {t} must be finite and >= 0")
    if cfg.replicas < 3:
        raise ConfigError(f"need at least 3 replicas for the jackknife, got {cfg.replicas}")
    kind = cfg.measure_kind
    if kind == "dirac":
        sampler = dirac_sampler(dirac_state(cfg, torus))
    elif kind == "uniform":
        sampler = product_sampler(torus, 0.5)
    elif kind == "product":
        sampler = product_sampler(torus, plus_probability(cfg))
    elif kind == "gibbs":
        require_exact(cfg, torus)
        sampler = vector_sampler(gibbs_measure(build_potential(cfg), torus).probs)
    else:
        raise ConfigError(f"unknown measure kind {kind!r}")
    # one batch of replicas serves both statistics
    try:
        values = _final_values(rates, sampler, t, f, cfg.replicas, cfg.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except MemoryError as exc:
        raise ConfigError(f"{cfg.replicas} replicas x {torus.n_sites} sites do not fit in memory ({exc})") from exc
    mean = _mean(values, cfg.seed)
    moment = _exponential_moment(values, cfg.seed)
    rows = [
        ["mean", mean.estimate, mean.std_error, ""],
        ["exponential-moment", moment.estimate, moment.std_error, moment.raw_estimate],
    ]
    report = new_report("mc", cfg)
    report["t"] = t
    report["observable"] = {"sites": sites}
    report["estimates"] = {
        "mean": {"estimate": mean.estimate, "std_error": mean.std_error},
        "exponential_moment": {
            "estimate": moment.estimate,
            "std_error": moment.std_error,
            "raw_estimate": moment.raw_estimate,
        },
        "replicas": cfg.replicas,
        "seed": cfg.seed,
    }
    report["table"] = {"columns": ["kind", "estimate", "std_error", "raw"], "rows": rows}
    print(f"mean = {_g(mean.estimate)} +- {_g(mean.std_error)}")
    print(f"log-moment = {_g(moment.estimate)} +- {_g(moment.std_error)}")
    return report


# ---------------------------------------------------------------------------
# selftest: the acceptance criteria's quick sweep, then three invariants


def _check(name, fn, failures):
    try:
        msg = fn()
    except Exception as exc:
        msg = f"{type(exc).__name__}: {exc}"
    status = "PASS" if msg is None else "FAIL"
    print(f"{status}  {name}" + (f"  ({msg})" if msg else ""))
    if msg is not None:
        failures.append({"check": name, "detail": msg})
    return [name, status, msg or ""]


def cmd_selftest(cfg: ExperimentConfig, args) -> dict:
    def lattice_product():
        rng = np.random.default_rng(0)
        for _ in range(100):
            g = tuple(rng.choice(9, size=3, replace=False))
            h = tuple(rng.choice(9, size=2, replace=False))
            state = int(rng.integers(0, 1 << 9))
            sym = sorted(set(g) ^ set(h))
            if monomial_eval(state, g) * monomial_eval(state, h) != monomial_eval(state, sym):
                return "sigma_G sigma_F != sigma_{G delta F}"

    def product_gcb_window():
        torus = Torus((6,))
        family = TestFunctionFamily.monomials(torus, 2)
        rep = empirical_gcb_constant(uniform_measure(torus), family, bound=product_gcb_constant())
        if not rep.holds:
            return "uniform product measure exceeds the certified GCB constant 1/8"

    def path_consistency():
        torus = Torus((3, 3))
        rates = GlauberRates(torus, Potential.ising_nn(2, 0.5))
        traj = sample_path(rates, 0b101010101, 1.5, seed=11)
        state = traj.start
        for s in traj.sites:
            state ^= 1 << int(s)
        if state != traj.final_state:
            return "replayed flips disagree with the final state"
        fresh = np.array([rates.rate(i, state) for i in range(9)])
        if not np.array_equal(traj.final_rates, fresh):
            return "final rates disagree with a fresh evaluation at the final state"

    checks = [(name, partial(criterion, quick=True)) for name, criterion in acceptance.CRITERIA]
    checks += [
        ("monomial product is symmetric difference", lattice_product),
        ("certified product GCB constant", product_gcb_window),
        ("trajectory replay and final rates", path_consistency),
    ]
    failures = []
    rows = [_check(name, fn, failures) for name, fn in checks]
    report = new_report("selftest", cfg)
    report["table"] = {"columns": ["check", "status", "detail"], "rows": rows}
    report["violations"] = failures
    print(f"{len(checks) - len(failures)}/{len(checks)} checks passed")
    if failures:
        raise InequalityViolation(failures[0]["detail"], report)
    return report


# ---------------------------------------------------------------------------
# argument parsing and dispatch

HANDLERS = {
    "dobrushin": cmd_dobrushin,
    "evolve": cmd_evolve,
    "gcb-scan": cmd_gcb_scan,
    "uvb-check": cmd_uvb_check,
    "conserve": cmd_conserve,
    "symbolic-bound": cmd_symbolic_bound,
    "radius": cmd_radius,
    "nogo": cmd_nogo,
    "mc": cmd_mc,
    "selftest": cmd_selftest,
}

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file; flags override its keys")
    for f in FIELDS:
        common.add_argument(f.flag, dest=f.name, choices=f.choices, help=f.help)

    parser = argparse.ArgumentParser(
        prog="spinflip",
        description="spin-flip dynamics experiments: exact semigroups, "
        "concentration and entropy diagnostics, symbolic bounds, kinetic MC",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("dobrushin", parents=[common], help="oscillation constant and GCB pipeline")
    sub.add_parser("evolve", parents=[common], help="family expectations along the semigroup")
    scan = sub.add_parser("gcb-scan", parents=[common], help="empirical GCB constant over a t-grid")
    scan.add_argument("--bound", type=float, help="fail (exit 1) if C-hat exceeds this")
    uvb = sub.add_parser("uvb-check", parents=[common], help="empirical variance constant over a t-grid")
    uvb.add_argument("--bound", type=float, help="fail (exit 1) if the ratio exceeds this")
    conserve = sub.add_parser("conserve", parents=[common], help="conservation-theorem pipelines")
    conserve.add_argument("--theorem", choices=["31", "52", "53", "hjc"], required=True)
    conserve.add_argument("--hjc", default="square", choices=["square", "exponential", "abs_p"])
    conserve.add_argument("--hjc-p", dest="hjc_p", type=float, default=4.0)
    symbolic = sub.add_parser("symbolic-bound", parents=[common], help="iterated-generator norms vs bounds")
    symbolic.add_argument("--gen", help="generator spec file")
    symbolic.add_argument("--A", help="monomial sites, e.g. '0,1' (1D) or '0,0 1,0' (2D)")
    symbolic.add_argument("--n", type=int, help="highest power (default: run.symbolic_n)")
    radius = sub.add_parser("radius", parents=[common], help="analyticity radius of the series")
    radius.add_argument("--gen", help="generator spec file")
    radius.add_argument("--A", help="monomial sites")
    nogo = sub.add_parser("nogo", parents=[common], help="plus/minus boundary distinguishability")
    nogo.add_argument("--radii", help="window radii, e.g. '0 1 2'")
    mc = sub.add_parser("mc", parents=[common], help="kinetic Monte Carlo estimates")
    mc.add_argument("--sites", help="observable monomial sites, e.g. '0 2'")
    mc.add_argument("--t", type=float, help="time horizon (default: max of the grid)")
    sub.add_parser("selftest", parents=[common], help="quick sweep of the nine acceptance criteria, plus three invariants")
    return parser


def effective_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
    overrides = {}
    for f in FIELDS:
        raw = getattr(args, f.name)
        if raw is None:
            continue
        try:
            overrides[f.name] = f.parse(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {f.flag}: {raw!r}") from exc
    return cfg.override(overrides)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = effective_config(args)
        report = HANDLERS[args.command](cfg, args)
        write_artifacts(report, cfg.out)
    except (ConfigError, TermCapExceeded) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InequalityViolation as exc:
        message, report = exc.args
        write_artifacts(report, report["config"]["out"])
        print(f"violation: {message}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
