"""Command-line plumbing: config round-trips, exit codes, artifact files."""

import csv
import json
import warnings

import numpy as np
import pytest

from spinflip import acceptance, cli
from spinflip.cli import (
    ConfigError,
    ExperimentConfig,
    emit_plot_data,
    main,
)
from spinflip.concentration import TestFunctionFamily
from spinflip.lattice import Torus
from spinflip.mc import ensemble_expectation, ensemble_exponential_moment


def read_json(out_dir, name):
    with open(out_dir / f"{name}.json") as fh:
        return json.load(fh)


class TestConfig:
    def test_roundtrip_default(self):
        text = """
[torus]
sides = 8
[rates]
kind = independent
r = 1.0
eps0 = 0.1
[measure]
kind = uniform
p_plus = 0.5
state = 0
[times]
grid = 0.25 0.5 1.0 2.0
[family]
kind = monomials
k_max = 3
count = 40
seed = 0
[run]
seed = 0
replicas = 2000
out = out
exact_cap = 12
symbolic_n = 5
"""
        assert ExperimentConfig.parse(text) == ExperimentConfig()
        assert ExperimentConfig.parse("") == ExperimentConfig()

    def test_roundtrip_custom(self):
        cfg = ExperimentConfig(
            sides=(4, 4),
            rates_kind="glauber",
            beta=0.35,
            potential="ising1d_beta02.pot",
            measure_kind="dirac",
            state=0b1010,
            times=(0.1, 0.7),
        )
        text = """
[torus]
sides = 4 4
[rates]
kind = glauber
beta = 0.35
potential = ising1d_beta02.pot
[measure]
kind = dirac
state = 0b1010
[times]
grid = 0.1 0.7
"""
        assert ExperimentConfig.parse(text) == cfg

    def test_unknown_section(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse("[nope]\nx = 1\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse("[torus]\nshape = 8\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse("[times]\ngrid = fast\n")

    def test_flag_overrides_file(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[torus]\nsides = 6\n\n[rates]\nkind = independent\n")
        out = tmp_path / "out"
        code = main(
            ["evolve", "--config", str(config), "--sides", "4", "--times", "0.5",
             "--k-max", "1", "--out", str(out)]
        )
        assert code == 0
        report = read_json(out, "evolve")
        assert report["config"]["sides"] == [4]


class TestDobrushin:
    def test_bundled_strong_coupling(self, tmp_path, capsys):
        code = main(["dobrushin", "--potential", "ising1d_beta04.pot", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "c = 0.8" in out
        assert "C = 12.5" in out

    def test_bundled_weak_coupling(self, tmp_path, capsys):
        code = main(["dobrushin", "--potential", "ising1d_beta02.pot", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "c = 0.4" in out
        report = read_json(tmp_path, "dobrushin")
        assert report["unique_regime"] is True
        assert report["gcb_constant"] == pytest.approx(1 / (2 * 0.6**2))

    def test_outside_uniqueness(self, tmp_path, capsys):
        code = main(["dobrushin", "--beta", "0.6", "--sides", "8", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "n/a" in out
        assert read_json(tmp_path, "dobrushin")["gcb_constant"] is None

    def test_missing_potential_file(self, tmp_path, capsys):
        code = main(["dobrushin", "--potential", "no_such.pot", "--out", str(tmp_path)])
        assert code == 2
        assert "not found" in capsys.readouterr().err


class TestExitCodes:
    GENERATORS = {"zero-denominator.gen": "1/0 : 1\n", "square.gen": "1 : 1,0\n1/2 : 0,1\n"}

    def test_cap_exceeded(self, tmp_path, capsys):
        code = main(["evolve", "--sides", "20", "--times", "0.5", "--out", str(tmp_path)])
        assert code == 2
        assert "cap" in capsys.readouterr().err

    def test_unknown_measure_kind_in_config(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[measure]\nkind = bogus\n")
        code = main(
            ["evolve", "--config", str(config), "--sides", "4", "--times", "0.5",
             "--out", str(tmp_path)]
        )
        assert code == 2

    def test_violation_exits_one_and_names_inequality(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["gcb-scan", "--sides", "5", "--measure", "uniform", "--times", "0.5",
             "--k-max", "1", "--bound", "0.05", "--out", str(out)]
        )
        assert code == 1
        assert "Gaussian concentration bound" in capsys.readouterr().err
        # artifacts are still written so the violation can be inspected
        report = read_json(out, "gcb-scan")
        assert report["violations"]

    def test_bad_site_spec(self, tmp_path, capsys):
        code = main(
            ["symbolic-bound", "--gen", "nn_decay.gen", "--A", "zero", "--out", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--times", "-0.5"],
            ["gcb-scan", "--times", "0.5 -0.5"],
            ["conserve", "--theorem", "31", "--times", "-0.5"],
            ["conserve", "--theorem", "53", "--times", "-0.5"],
            ["nogo", "--beta", "0.6", "--times", "-0.5"],
            ["evolve", "--times", "nan"],
            ["evolve", "--times", "inf"],
            ["evolve", "--times", ""],
            ["gcb-scan", "--times", ""],
            ["conserve", "--theorem", "31", "--times", ""],
            ["nogo", "--beta", "0.6", "--times", ""],
            ["mc", "--times", "", "--replicas", "10"],
            ["evolve", "--k-max", "0"],
            ["evolve", "--family", "random", "--count", "0"],
            ["evolve", "--measure", "product", "--p-plus", "2"],
            ["mc", "--measure", "product", "--p-plus", "2", "--replicas", "10"],
            ["evolve", "--rates", "perturbed", "--eps0", "1.5"],
            ["evolve", "--r", "0"],
            ["evolve", "--r", "-1"],
            ["evolve", "--sides", "21", "--exact-cap", "30"],
            ["symbolic-bound", "--gen", "nn_decay.gen", "--A", "0", "--n", "9"],
            ["symbolic-bound", "--gen", "nn_decay.gen", "--A", "0", "--n", "-1"],
            # sigma_0 sigma_0 = 1, not sigma_0: a repeated site is refused
            ["symbolic-bound", "--gen", "nn_decay.gen", "--A", "0 0", "--n", "2"],
            ["radius", "--gen", "nn_decay.gen", "--A", "0,0"],
            # generator files written by the test body (GENERATORS)
            ["symbolic-bound", "--gen", "zero-denominator.gen", "--A", "0", "--n", "2"],
            ["radius", "--gen", "zero-denominator.gen", "--A", "0"],
            ["symbolic-bound", "--gen", "square.gen", "--A", "0,0 1,2 0,0", "--n", "2"],
            ["radius", "--gen", "square.gen", "--A", "0,0 1"],
            ["conserve", "--theorem", "hjc", "--hjc", "abs_p", "--hjc-p", "0.5"],
            ["conserve", "--theorem", "hjc", "--hjc", "abs_p", "--hjc-p", "inf"],
            # J = y^p at p = 1e300 fails its own inverse's roundtrip check
            ["conserve", "--theorem", "hjc", "--hjc", "abs_p", "--hjc-p", "1e300"],
            ["gcb-scan", "--bound", "nan"],
            ["uvb-check", "--bound", "nan"],
            ["nogo", "--beta", "0.6", "--radii", "a"],
            ["nogo", "--beta", "0.6", "--radii", "-1"],
            ["mc", "--sites", "0 0", "--replicas", "10"],
            # random families: more sites per term than the torus has, and a
            # negative seed
            ["gcb-scan", "--family", "random", "--count", "10", "--k-max", "3", "--sides", "2"],
            ["uvb-check", "--family", "random", "--family-seed", "-1", "--sides", "4"],
            # past the engine's range: a non-finite beta or rate table, and a
            # Poisson mean lam t past the quantile function
            ["evolve", "--rates", "glauber", "--beta", "nan"],
            ["evolve", "--rates", "glauber", "--beta", "1e308"],
            ["nogo", "--beta", "1e308"],
            ["conserve", "--theorem", "31", "--rates", "perturbed", "--eps0", "0.1", "--times", "1e300"],
            ["conserve", "--theorem", "53", "--rates", "glauber", "--beta", "50", "--times", "1"],
            # reversible rates: a time past what the Chebyshev term cap certifies
            ["evolve", "--rates", "glauber", "--beta", "0.4", "--times", "1e10"],
            ["nogo", "--beta", "0.6", "--sides", "4", "--times", "1e300"],
            # kinetic MC: Glauber rates past the float range, and a proposal
            # mean N c_max t past numpy's Poisson range
            ["mc", "--rates", "glauber", "--beta", "1e308", "--replicas", "10"],
            ["mc", "--rates", "glauber", "--beta", "50", "--replicas", "10"],
            # 1e11 replicas of 6 sites: the (replicas, sites) draw is 4.37 TiB
            ["mc", "--sides", "6", "--rates", "independent", "--replicas", "100000000000"],
            # field-free Glauber at beta = 3 (alpha about 1.2e3): K(t) past the
            # float range at t = 1, its squared integral already at t = 0.2
            ["evolve", "--rates", "glauber", "--beta", "3", "--times", "1"],
            ["conserve", "--theorem", "31", "--rates", "glauber", "--beta", "3", "--times", "1"],
            ["conserve", "--theorem", "53", "--rates", "glauber", "--beta", "3", "--times", "0.2"],
        ],
        ids=" ".join,
    )
    def test_bad_configuration_exits_two(self, tmp_path, tmp_path_factory, capsys, argv):
        gens = tmp_path_factory.mktemp("gen")
        for name, text in self.GENERATORS.items():
            (gens / name).write_text(text)
        argv = [str(gens / a) if a in self.GENERATORS else a for a in argv]
        code = main(argv[:1] + ["--sides", "4"] + argv[1:] + ["--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "text",
        ["1 : a\n", "1 : 0\n1 : 0\n", "1 : 0 0,1\n", "0 : 1\n", "1/0 : 1\n", "1 : 1 1\n", "1 : 0,1 2,3 0,1\n"],
        ids=[
            "malformed-offset",
            "duplicate-shape",
            "mixed-dimension",
            "zero-coefficients",
            "zero-denominator",
            "repeated-offset",
            "repeated-offset-2d",
        ],
    )
    def test_bad_generator_file_exits_two(self, tmp_path, capsys, text):
        gen = tmp_path / "bad.gen"
        gen.write_text(text)
        out = tmp_path / "out"
        code = main(["symbolic-bound", "--gen", str(gen), "--A", "0", "--n", "2", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad generator file" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        ["garbage\n", None, "| 1 2\n", "0 1,0 | 1 2 3 4\n", "0 1 | nan 1 1 1\n"],
        ids=["malformed", "directory", "empty-shape", "mixed-dimension", "nan-value"],
    )
    def test_bad_potential_file_exits_two(self, tmp_path, capsys, text):
        pot = tmp_path / "bad.pot"
        if text is None:
            pot.mkdir()
        else:
            pot.write_text(text)
        out = tmp_path / "out"
        code = main(["dobrushin", "--potential", str(pot), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert ("not found" if text is None else "bad potential file") in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["", "0.5 -1", "nan"])
    def test_bad_time_grid_in_config_file(self, tmp_path, capsys, grid):
        config = tmp_path / "run.ini"
        config.write_text(f"[times]\ngrid = {grid}\n")
        code = main(["evolve", "--config", str(config), "--sides", "4", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "bad value for times.grid" in capsys.readouterr().err

    def test_hjc_p_past_the_float_range_warns_nothing(self, tmp_path, capsys):
        # |x|^p at p = 1e300 overflows on HJCSpec's grid; the grid checks
        # read inf and nan quietly, and the roundtrip check refuses the pair
        argv = ["conserve", "--sides", "4", "--theorem", "hjc", "--hjc", "abs_p", "--hjc-p", "1e300"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == ["config error: --hjc abs_p:1e+300: J inverse fails the roundtrip check"]

    def test_internal_error_exits_three(self, tmp_path, capsys, monkeypatch):
        def broken(cfg, args):
            raise RuntimeError("handler blew up")

        monkeypatch.setitem(cli.HANDLERS, "radius", broken)
        code = main(["radius", "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "handler blew up" in err


class TestScan:
    def test_gcb_scan_artifacts(self, tmp_path):
        code = main(
            ["gcb-scan", "--sides", "5", "--measure", "product", "--p-plus", "0.6",
             "--times", "0.25 0.75", "--k-max", "2", "--bound", "0.125", "--out", str(tmp_path)]
        )
        assert code == 0
        report = read_json(tmp_path, "gcb-scan")
        assert len(report["table"]["rows"]) == 2
        curve = report["curves"][0]
        assert curve["columns"] == ["t", "value", "bound"]
        assert (tmp_path / "gcb_hat.dat").exists()

    def test_random_family(self, tmp_path):
        code = main(
            ["gcb-scan", "--family", "random", "--k-max", "2", "--count", "3",
             "--sides", "5", "--times", "0.5", "--out", str(tmp_path)]
        )
        assert code == 0
        report = read_json(tmp_path, "gcb-scan")
        cfg = report["config"]
        assert (cfg["family_kind"], cfg["k_max"], cfg["count"]) == ("random", 2, 3)
        assert report["table"]["rows"][0][2].split("[")[0] in {"f0", "f1", "f2"}
        family = cli.build_family(
            ExperimentConfig(family_kind="random", k_max=2, count=3), Torus((5,))
        )
        assert family.label == f"random:3:{cfg['family_seed']}"
        assert len(family) == 3

    def test_uvb_check(self, tmp_path):
        code = main(
            ["uvb-check", "--sides", "5", "--measure", "uniform", "--times", "0.5",
             "--k-max", "1", "--bound", "0.25", "--out", str(tmp_path)]
        )
        assert code == 0
        report = read_json(tmp_path, "uvb-check")
        assert report["table"]["rows"][0][1] == pytest.approx(0.25)


class TestEngineBlock:
    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--sides", "4", "--times", "0.5", "--k-max", "1"],
            ["gcb-scan", "--sides", "4", "--times", "0.5", "--k-max", "1"],
            ["uvb-check", "--sides", "4", "--times", "0.5", "--k-max", "1"],
            ["nogo", "--sides", "4", "--beta", "0.5", "--times", "0.5", "--k-max", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_reports_name_the_engine(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path)]) == 0
        engine = read_json(tmp_path, argv[0])["engine"]
        # flip-symmetric rates run on the 8 states whose top bit is 0: the
        # flips of 3 sites and the diagonal
        assert engine["flip_symmetric"] is True
        assert engine["states"] == 16
        assert 8 * 3 <= engine["operator_nnz"] <= 8 * 4
        # float data of P and P^T, their shared int32 indices and indptr
        nnz = engine["operator_nnz"]
        assert engine["operator_bytes"] == 2 * 8 * nnz + 4 * nnz + 4 * (8 + 1)
        assert engine["lam"] > 0

    @pytest.mark.parametrize(
        "argv, route",
        [
            (["evolve", "--rates", "independent"], "chebyshev"),
            (["gcb-scan", "--rates", "glauber", "--beta", "0.4"], "chebyshev"),
            (["uvb-check", "--rates", "glauber", "--beta", "0.4"], "chebyshev"),
            (["nogo", "--beta", "0.5"], "chebyshev"),
            (["conserve", "--theorem", "31", "--rates", "glauber", "--beta", "0.4"], "chebyshev"),
            (["conserve", "--theorem", "31", "--rates", "perturbed"], "uniformization"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
    )
    def test_reports_name_the_route(self, tmp_path, argv, route):
        code = main(argv + ["--sides", "4", "--times", "0.5 1", "--k-max", "1", "--out", str(tmp_path)])
        assert code in (0, 1)
        engine = read_json(tmp_path, argv[0])["engine"]
        assert engine["route"] == route
        if route == "chebyshev":
            assert 0 < engine["pi_min"] <= 1 / engine["states"]
            assert engine["lam"] <= engine["rho"] <= 2 * engine["lam"]
        else:
            assert "rho" not in engine and "pi_min" not in engine

    @pytest.mark.parametrize("rates, cache", [("glauber", "_chebyshev"), ("perturbed", "_weights")])
    def test_build_engine_caches_its_route(self, rates, cache):
        cfg = ExperimentConfig(sides=(4,), rates_kind=rates, beta=0.4, times=(0.25, 1.5))
        engine = cli.build_engine(cfg, cli.build_rates(cfg, Torus(cfg.sides)))
        assert sorted(getattr(engine, cache)) == [0.25, 1.5]
        if rates == "glauber":
            assert engine._weights == {}

    @pytest.mark.parametrize("rates", ["independent", "glauber", "perturbed"])
    @pytest.mark.parametrize(
        "argv", [["conserve", "--theorem", "31"], ["gcb-scan"], ["uvb-check"]], ids=lambda argv: argv[0]
    )
    def test_reports_check_the_conditions(self, tmp_path, argv, rates):
        # the rates' standing conditions, translation invariance read from
        # the tables
        code = main(argv + ["--rates", rates, "--beta", "0.3", "--sides", "5", "--times", "0.5", "--k-max", "1", "--out", str(tmp_path)])
        assert code == 0
        conditions = read_json(tmp_path, argv[0])["conditions"]
        assert set(conditions) == {"positive", "min_rate", "max_rate", "interaction_range", "translation_invariant", "ok"}
        assert conditions["translation_invariant"] is True and conditions["ok"] is True
        assert conditions["positive"] is True and 0 < conditions["min_rate"] <= conditions["max_rate"]
        assert conditions["interaction_range"] == (0 if rates == "independent" else 1)

    def test_field_keeps_the_full_operator(self, tmp_path):
        pot = tmp_path / "field.pot"
        pot.write_text("0 1 | -0.3 0.3 0.3 -0.3\n0 | 0.2 -0.2\n")
        argv = ["evolve", "--rates", "glauber", "--potential", str(pot), "--sides", "4", "--times", "0.5", "--k-max", "1"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        engine = read_json(tmp_path, "evolve")["engine"]
        assert engine["flip_symmetric"] is False
        assert 16 * 4 < engine["operator_nnz"] <= 16 * 5


class TestConserve:
    def test_theorem31(self, tmp_path):
        code = main(
            ["conserve", "--theorem", "31", "--sides", "5", "--measure", "uniform",
             "--times", "0.4 1.0", "--k-max", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        report = read_json(tmp_path, "conserve")
        assert report["theorem"] == "31"
        assert all(row[4] for row in report["table"]["rows"])

    def test_theorem53_curve_shape(self, tmp_path):
        times = ["0.2", "0.6", "1.1"]
        code = main(
            ["conserve", "--theorem", "53", "--sides", "5", "--rates", "perturbed",
             "--times", " ".join(times), "--k-max", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        report = read_json(tmp_path, "conserve")
        curve = report["curves"][0]
        assert curve["name"] == "theorem53"
        assert curve["columns"] == ["t", "value", "bound"]
        assert len(curve["rows"]) == len(times)
        assert all(len(row) == 3 for row in curve["rows"])

    def test_hjc(self, tmp_path):
        code = main(
            ["conserve", "--theorem", "hjc", "--hjc", "square", "--sides", "4",
             "--measure", "product", "--times", "0.5", "--k-max", "1", "--out", str(tmp_path)]
        )
        assert code == 0

    def test_hjc_exponential_j_past_the_float_range(self, tmp_path):
        # J = e^y - 1 overflows on some rows: they read rhs = inf and hold
        code = main(
            ["conserve", "--theorem", "hjc", "--hjc", "exponential", "--sides", "8", "--rates", "glauber",
             "--beta", "0.3", "--family", "random", "--measure", "gibbs", "--times", "2", "--out", str(tmp_path)]
        )
        assert code in (0, 1)
        report = read_json(tmp_path, "conserve")
        assert report["engine"]["route"] == "chebyshev"

    def test_hjc_abs_p(self, tmp_path):
        # --hjc-p is the exponent of the |x|^p pair, not its constant
        code = main(
            ["conserve", "--theorem", "hjc", "--hjc", "abs_p", "--hjc-p", "4", "--sides", "4",
             "--k-max", "1", "--times", "0.5", "--out", str(tmp_path)]
        )
        assert code in (0, 1)
        assert read_json(tmp_path, "conserve")["theorem"] == "hjc"

    def test_hjc_ten_sites(self, tmp_path):
        # every start comes from semigroup columns, not a 4^N matrix
        code = main(
            ["conserve", "--theorem", "hjc", "--sides", "10", "--k-max", "2",
             "--times", "0.5", "--out", str(tmp_path)]
        )
        assert code in (0, 1)
        assert read_json(tmp_path, "conserve")["theorem"] == "hjc"

    @pytest.mark.parametrize("theorem", ["31", "53"])
    def test_engine_and_gamma_blocks(self, tmp_path, theorem):
        times = ["0.2", "0.6"]
        code = main(
            ["conserve", "--theorem", theorem, "--sides", "5", "--rates", "perturbed",
             "--times", " ".join(times), "--k-max", "1", "--out", str(tmp_path)]
        )
        assert code == 0
        report = read_json(tmp_path, "conserve")
        assert report["engine"]["flip_symmetric"] is True
        assert report["engine"]["states"] == 32
        # pair-perturbed rates on a ring: Gamma is circulant, alpha = 4 eps0
        # K(t) and its integral are closed forms of alpha alone
        gamma = report["gamma"]
        assert set(gamma) == {"alpha"}
        assert gamma["alpha"] == pytest.approx(0.4, rel=1e-12)

    @pytest.mark.parametrize("theorem", ["31", "52", "53", "hjc"])
    @pytest.mark.parametrize(
        "family, block",
        [
            # the 5 one-site monomials are one orbit under the ring's rotations
            (["--k-max", "1"], {"members": 5, "orbits": 1, "law_columns": 1}),
            # random members are no rotation of one another: one law column
            # per level but one of each
            (["--family", "random", "--count", "3", "--family-seed", "2"], {"members": 3, "orbits": 3}),
        ],
        ids=["monomials", "random"],
    )
    def test_family_block(self, tmp_path, theorem, family, block):
        code = main(
            ["conserve", "--theorem", theorem, "--sides", "5", "--rates", "perturbed",
             "--times", "0.2 0.6", *family, "--out", str(tmp_path)]
        )
        assert code == 0
        got = read_json(tmp_path, "conserve")["family"]
        assert set(got) == {"members", "orbits", "law_columns"}
        assert got.items() >= block.items()
        if "law_columns" not in block:
            fam = TestFunctionFamily.random_combinations(Torus((5,)), 3, seed=2)
            assert got["law_columns"] == sum(np.unique(f.table).size - 1 for f in fam.members) > 3

    @pytest.mark.parametrize(
        "theorem, builds",
        [
            ("31", {"build_measure": 1, "certified_start_constant": 1, "hjc_library": 0}),
            ("52", {"build_measure": 1, "certified_start_constant": 1, "hjc_library": 0}),
            ("53", {"build_measure": 0, "certified_start_constant": 0, "hjc_library": 0}),
            ("hjc", {"build_measure": 1, "certified_start_constant": 0, "hjc_library": 1}),
        ],
    )
    def test_inputs_built_once_per_run(self, tmp_path, monkeypatch, theorem, builds):
        # the measure, its constant and the (H, J) pair do not depend on t
        calls = dict.fromkeys(builds, 0)

        def counted(name):
            build = getattr(cli, name)

            def wrapper(*args):
                calls[name] += 1
                return build(*args)

            return wrapper

        for name in builds:
            monkeypatch.setattr(cli, name, counted(name))
        code = main(
            ["conserve", "--theorem", theorem, "--sides", "4", "--k-max", "1",
             "--times", "0.2 0.5 0.9", "--out", str(tmp_path)]
        )
        assert code in (0, 1)
        assert len(read_json(tmp_path, "conserve")["table"]["rows"]) == 3
        assert calls == builds


class TestPlotEmitter:
    def test_values_match_report(self, tmp_path):
        code = main(
            ["conserve", "--theorem", "53", "--sides", "4", "--times", "0.3 0.9",
             "--k-max", "1", "--out", str(tmp_path)]
        )
        assert code == 0
        report = read_json(tmp_path, "conserve")
        lines = (tmp_path / "theorem53.dat").read_text().splitlines()
        assert lines[0].startswith("#")
        parsed = [[float(x) for x in line.split()] for line in lines[1:]]
        assert parsed == [[float(v) for v in row] for row in report["curves"][0]["rows"]]

    def test_empty_report(self, tmp_path):
        assert emit_plot_data({}, tmp_path) == []
        assert list(tmp_path.iterdir()) == []

    def test_zero_row_curve(self, tmp_path):
        report = {"curves": [{"name": "empty", "columns": ["t", "value"], "rows": []}]}
        paths = emit_plot_data(report, tmp_path)
        assert len(paths) == 1
        assert paths[0].read_text() == "# t value\n"


class TestSymbolic:
    def test_bound_rows(self, tmp_path, capsys):
        code = main(
            ["symbolic-bound", "--gen", "nn_decay.gen", "--A", "0,1", "--n", "4",
             "--out", str(tmp_path)]
        )
        assert code == 0
        report = read_json(tmp_path, "symbolic-bound")
        assert len(report["rows"]) == 5
        assert all(row["ratio"] <= 1.0 for row in report["rows"])
        assert report["rows"][0]["norm_kind"] == "sup"
        out = capsys.readouterr().out
        assert "n = 4" in out

    def test_terms_column_is_an_int(self, tmp_path):
        code = main(
            ["symbolic-bound", "--gen", "nn_decay.gen", "--A", "0", "--n", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        report = read_json(tmp_path, "symbolic-bound")
        assert [type(row["terms"]) for row in report["rows"]] == [int] * 3
        assert report["rows"][0]["terms"] == 1
        with open(tmp_path / "symbolic-bound.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(row["terms"]) for row in rows] == [r["terms"] for r in report["rows"]]

    def test_radius(self, tmp_path, capsys):
        code = main(["radius", "--gen", "nn_decay.gen", "--A", "0", "--out", str(tmp_path)])
        assert code == 0
        assert "t0 = 1/8" in capsys.readouterr().out
        assert read_json(tmp_path, "radius")["radius"]["value"] == pytest.approx(0.125)


class TestNogo:
    def test_artifacts(self, tmp_path):
        code = main(
            ["nogo", "--sides", "3 3", "--beta", "0.5", "--times", "0.2 0.6",
             "--k-max", "1", "--count", "6", "--exact-cap", "9", "--out", str(tmp_path)]
        )
        assert code == 0
        report = read_json(tmp_path, "nogo")
        assert report["degenerate"] is False
        assert report["min_tv"] > 1e-12
        names = [c["name"] for c in report["curves"]]
        assert names == ["tv", "entropy"]
        columns = report["table"]["columns"]
        assert columns == ["t", "tv", "entropy", "gcb_hat", "radius", "h_per_site"]


class TestMC:
    def test_report_and_reproducibility(self, tmp_path):
        argv = ["mc", "--sides", "6", "--rates", "independent", "--measure", "dirac",
                "--state", "0b111111", "--sites", "0 3", "--t", "0.5",
                "--replicas", "400", "--seed", "3"]
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        ra = read_json(a, "mc")
        rb = read_json(b, "mc")
        for rep in (ra, rb):
            rep.pop("generated")
            rep["config"].pop("out")
        assert ra == rb
        assert (a / "mc.csv").read_bytes() == (b / "mc.csv").read_bytes()
        est = ra["estimates"]
        assert est["mean"]["std_error"] > 0
        assert est["exponential_moment"]["raw_estimate"] is not None

    def test_one_batch_matches_both_estimators(self, tmp_path, monkeypatch):
        calls = []
        simulate = cli._final_values

        def counted(*args):
            calls.append(args)
            return simulate(*args)

        monkeypatch.setattr(cli, "_final_values", counted)
        argv = ["mc", "--sides", "8", "--rates", "glauber", "--beta", "0.4",
                "--measure", "product", "--p-plus", "0.3", "--sites", "1 2", "--t", "0.6",
                "--replicas", "300", "--seed", "5", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert len(calls) == 1
        rates, sampler, t, f, replicas, seed = calls[0]
        mean = ensemble_expectation(rates, sampler, t, f, replicas, seed)
        moment = ensemble_exponential_moment(rates, sampler, t, f, replicas, seed)
        est = read_json(tmp_path, "mc")["estimates"]
        assert est["mean"] == {"estimate": mean.estimate, "std_error": mean.std_error}
        assert est["exponential_moment"] == {
            "estimate": moment.estimate,
            "std_error": moment.std_error,
            "raw_estimate": moment.raw_estimate,
        }

    @pytest.mark.parametrize(
        "flags",
        [
            ["--t", "-1"],
            ["--measure", "dirac", "--state", "999"],
            ["--replicas", "2"],
        ],
    )
    def test_bad_input_is_a_config_error(self, tmp_path, capsys, flags):
        argv = ["mc", "--sides", "6", "--rates", "independent", "--t", "0.5",
                "--replicas", "50", "--out", str(tmp_path)]
        assert main(argv + flags) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "mc.json").exists()


class TestSelftest:
    def test_green(self, tmp_path, capsys):
        code = main(["selftest", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "12/12" in out
        rows = read_json(tmp_path, "selftest")["table"]["rows"]
        assert all(row[1] == "PASS" for row in rows)
        assert [row[0] for row in rows[:9]] == [name for name, _ in acceptance.CRITERIA]

    def test_failing_criterion_fails_the_run(self, tmp_path, capsys, monkeypatch):
        criteria = list(acceptance.CRITERIA)
        name = criteria[4][0]
        criteria[4] = (name, lambda quick=False: "planted failure")
        monkeypatch.setattr(acceptance, "CRITERIA", tuple(criteria))
        code = main(["selftest", "--out", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert f"FAIL  {name}  (planted failure)" in captured.out
        assert "11/12" in captured.out and "planted failure" in captured.err
