"""Tests of the benchmark's own checks: each passes on the program's output
and fails on a deliberately perturbed copy of it.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_checks.py

The workloads run here at reduced sizes so that the file takes seconds.
"""

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from spinflip import symbolic  # noqa: E402


def run_small(workload, seed=7):
    inputs = workload.setup(seed)
    outputs = {label: fn() for label, fn in workload.operations(inputs)}
    return inputs, outputs, workload.expected(inputs)


def failures(workload, inputs, outputs, expected):
    checks = workloads.Checks()
    workload.check(inputs, outputs, expected, checks)
    return checks.failures


def assert_caught(found, needle):
    assert any(needle in line for line in found), f"no failure mentions {needle!r}: {found}"


# -------------------------------------------------------------- conserve


@pytest.fixture(scope="module")
def conserve():
    w = workloads.Conserve(n_sites=6, times=(0.3,), singles=2, pairs=1)
    return (w,) + run_small(w)


def test_conserve_passes(conserve):
    assert failures(*conserve) == []


@pytest.mark.parametrize("field, needle", [
    ("k_t", "K(t)"),
    ("inner_constant", "inner constant"),
    ("composite_constant", "composite constant"),
    ("measured_constant", "measured constant"),
])
@pytest.mark.parametrize("thm", ["31", "52", "53"])
def test_conserve_catches_perturbed_constants(conserve, thm, field, needle):
    w, inputs, outputs, expected = conserve
    label = f"theorem{thm}@0.3"
    report = outputs[label]
    bad = dict(outputs, **{label: dataclasses.replace(report, **{field: getattr(report, field) * (1 + 1e-5) + 1e-8})})
    assert_caught(failures(w, inputs, bad, expected), needle)


def test_outputs_of_a_pass_with_a_raised_operation_are_still_checked(conserve):
    import run

    w, inputs, outputs, expected = conserve
    raised = dict(outputs, **{"theorem31@0.3": RuntimeError("raised")})
    assert run.check_outputs(w, inputs, [raised], workloads)
    report = outputs["theorem52@0.3"]
    bad = dict(raised, **{"theorem52@0.3": dataclasses.replace(report, k_t=report.k_t * 1.001)})
    assert not run.check_outputs(w, inputs, [raised, bad], workloads)


def test_conserve_catches_a_failed_inequality(conserve):
    w, inputs, outputs, expected = conserve
    bad = dict(outputs, **{"theorem31@0.3": dataclasses.replace(outputs["theorem31@0.3"], holds=False)})
    assert_caught(failures(w, inputs, bad, expected), "holds")


# ------------------------------------------------------------------ nogo


@pytest.fixture(scope="module")
def nogo():
    w = workloads.NoGo(sides=(3, 3))
    return (w,) + run_small(w)


def test_nogo_passes(nogo):
    assert failures(*nogo) == []


def _with_row(outputs, k, **changes):
    report = outputs["nogo_experiment"]
    rows = [dict(r) for r in report.rows]
    rows[k].update(changes)
    return dict(outputs, nogo_experiment=dataclasses.replace(report, rows=rows))


def test_nogo_catches_rising_tv(nogo):
    w, inputs, outputs, expected = nogo
    bad = _with_row(outputs, 2, tv=outputs["nogo_experiment"].rows[1]["tv"] + 1e-6)
    assert_caught(failures(w, inputs, bad, expected), "TV non-increasing")


def test_nogo_catches_rising_entropy(nogo):
    w, inputs, outputs, expected = nogo
    bad = _with_row(outputs, 2, entropy=outputs["nogo_experiment"].rows[1]["entropy"] + 1e-6)
    assert_caught(failures(w, inputs, bad, expected), "relative entropy non-increasing")


def test_nogo_catches_wrong_gcb_constant(nogo):
    w, inputs, outputs, expected = nogo
    bad = _with_row(outputs, 1, gcb_hat=outputs["nogo_experiment"].rows[1]["gcb_hat"] * 1.001)
    assert_caught(failures(w, inputs, bad, expected), "measured GCB constant")


def test_nogo_catches_broken_duality(nogo):
    w, inputs, outputs, expected = nogo
    label = "evolve_functions@0.5"
    evolved = outputs[label].copy()
    evolved[3, 0] += 1e-6 / inputs.plus.probs[3]
    assert_caught(failures(w, inputs, dict(outputs, **{label: evolved}), expected), "duality")


def test_nogo_catches_wrong_uvb(nogo):
    w, inputs, outputs, expected = nogo
    report = outputs["check_uvb"]
    bad = dict(outputs, check_uvb=dataclasses.replace(report, best_constant=report.best_constant * 1.001))
    assert_caught(failures(w, inputs, bad, expected), "check_uvb")


def test_lipschitz_bound_check():
    bound = np.array([1.0, 2.0, 0.5])
    checks = workloads.Checks()
    workloads.check_lipschitz_bound(checks, "ok", bound - 1e-3, bound)
    assert checks.failures == []
    workloads.check_lipschitz_bound(checks, "bad", bound + np.array([0.0, 1e-6, 0.0]), bound)
    assert_caught(checks.failures, "Lipschitz propagation bound")


def _damage(pair, kind):
    if kind == "mass":
        pair[0, 5] += 1e-6
    elif kind == "non-negative":
        lo, hi = int(np.argmin(pair[1])), int(np.argmax(pair[1]))
        shift = pair[1, lo] + 1e-6
        pair[1, lo] -= shift
        pair[1, hi] += shift
    else:
        pair[1] = np.roll(pair[1], 1)


@pytest.mark.parametrize("kind", ["mass", "non-negative", "symmetry"])
def test_gibbs_pair_check(nogo, kind):
    _, inputs, _, expected = nogo
    full = (1 << inputs.torus.n_sites) - 1
    checks = workloads.Checks()
    workloads.check_gibbs_pair(checks, "pair", expected["pairs"][0.5], full)
    assert checks.failures == []
    pair = expected["pairs"][0.5].copy()
    _damage(pair, kind)
    workloads.check_gibbs_pair(checks, "pair", pair, full)
    assert_caught(checks.failures, kind)


# ------------------------------------------------------------------- kmc


@pytest.fixture(scope="module")
def kmc():
    w = workloads.Kmc(glauber_replicas=400, independent_replicas=300, path_flips=3000)
    return (w,) + run_small(w)


def test_kmc_passes(kmc):
    assert failures(*kmc) == []


@pytest.mark.parametrize("label", ["glauber_mean", "glauber_moment", "independent_mean", "independent_moment"])
def test_kmc_catches_a_biased_estimate(kmc, label):
    w, inputs, outputs, expected = kmc
    est = outputs[label]
    away = 1.0 if est.estimate >= expected[label] else -1.0  # push the estimate away from the exact value
    bad = dict(outputs, **{label: dataclasses.replace(est, estimate=est.estimate + away * 6 * est.std_error)})
    assert_caught(failures(w, inputs, bad, expected), f"{label} within")


@pytest.mark.parametrize("change, needle", [
    (lambda p: dict(final_state=p.final_state ^ 1), "final state"),
    (lambda p: dict(times=p.times[::-1].copy()), "times increasing"),
    (lambda p: dict(times=p.times[: p.times.size // 2], sites=p.sites[: p.sites.size // 2]), "flip count"),
    (lambda p: dict(sites=np.where(p.sites < 8, 0, p.sites)), "per-site counts"),
])
def test_kmc_catches_a_broken_path(kmc, change, needle):
    w, inputs, outputs, expected = kmc
    path = outputs["path"]
    bad = dict(outputs, path=dataclasses.replace(path, **change(path)))
    assert_caught(failures(w, inputs, bad, expected), needle)


# -------------------------------------------------------------- symbolic


@pytest.fixture(scope="module")
def small_symbolic():
    w = workloads.Symbolic(expansions=(((0,), 4), ((0, 2), 3)), series_order=3)
    return (w,) + run_small(w)


def test_symbolic_passes(small_symbolic):
    assert failures(*small_symbolic) == []


def test_symbolic_catches_a_wrong_coefficient(small_symbolic):
    w, inputs, outputs, expected = small_symbolic
    label = w.power_label((0, 2), 3)
    result = outputs[label]
    terms = dict(result.polynomial.terms)
    key = next(iter(terms))
    terms[key] += Fraction(1, 64)
    bad = dict(outputs, **{label: dataclasses.replace(result, polynomial=symbolic.SetPolynomial(terms))})
    assert_caught(failures(w, inputs, bad, expected), "coefficients match")


def test_symbolic_catches_a_wrong_sup_norm(small_symbolic):
    w, inputs, outputs, expected = small_symbolic
    label = w.power_label((0,), 4)
    result = outputs[label]
    bad = dict(outputs, **{label: dataclasses.replace(result, exact_sup_norm=result.exact_sup_norm + Fraction(1, 10**6))})
    assert_caught(failures(w, inputs, bad, expected), "exact sup norm")


def test_symbolic_catches_a_wrong_series(small_symbolic):
    w, inputs, outputs, expected = small_symbolic
    series = outputs["series"]
    coeffs = dict(series.coeffs)
    key = next(iter(coeffs))
    coeffs[key] += 1e-6
    bad = dict(outputs, series=dataclasses.replace(series, coeffs=coeffs))
    assert_caught(failures(w, inputs, bad, expected), "dense Taylor sum")
    bad = dict(outputs, series=dataclasses.replace(series, remainder_bound=0.0))
    assert_caught(failures(w, inputs, bad, expected), "remainder bound")


def test_symbolic_catches_a_wrong_tail_constant(small_symbolic):
    w, inputs, outputs, expected = small_symbolic
    tail = outputs["infinite_range"]
    bad = dict(outputs, infinite_range=dataclasses.replace(tail, kappa=tail.kappa * (1 + 1e-8)))
    assert_caught(failures(w, inputs, bad, expected), "infinite-range kappa")


def test_walsh_coefficients_recover_a_polynomial():
    from reference import monomial, walsh_coefficients

    states = np.arange(1 << 5, dtype=np.int64)
    values = 0.5 - 2.0 * monomial(states, [1]) + 0.25 * monomial(states, [0, 3, 4])
    coeffs = walsh_coefficients(values)
    want = np.zeros(32)
    want[0], want[0b10], want[0b11001] = 0.5, -2.0, 0.25
    assert np.allclose(coeffs, want, atol=1e-15)
