"""Tests of the tracer used by the traced run.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_spans.py
"""

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spans  # noqa: E402
from spinflip import concentration, dynamics, gibbs, lattice  # noqa: E402


def test_install_wraps_every_name_and_uninstall_restores():
    original = dynamics.k_of_t
    original_evolve = dynamics.SemigroupEngine.__dict__["evolve_functions"]
    original_monomial = lattice.Observable.__dict__["monomial"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        # imported by name into other modules: wrapped there too
        assert dynamics.k_of_t is not original
        assert concentration.k_of_t is dynamics.k_of_t
        assert dynamics.SemigroupEngine.__dict__["evolve_functions"] is not original_evolve
        assert isinstance(lattice.Observable.__dict__["monomial"], classmethod)
    finally:
        tracer.uninstall()
    assert dynamics.k_of_t is original
    assert concentration.k_of_t is original
    assert dynamics.SemigroupEngine.__dict__["evolve_functions"] is original_evolve
    assert lattice.Observable.__dict__["monomial"] is original_monomial


def test_missing_targets_are_skipped():
    tracer = spans.Tracer()
    tracer.install(
        (
            "dynamics.no_such_function",
            "dynamics.SemigroupEngine.no_such_method",
            "dynamics.NoSuchClass.method",
            "no_such_module.function",
        )
    )
    tracer.uninstall()
    with tracer.phase("pass"):
        pass
    metrics = tracer.layer_metrics(1.0)
    assert metrics["concentration.dirac_matrix_s"]["value"] == 0.0
    assert metrics["dynamics.columns_per_s"]["value"] == 0.0


def _span(name, start, end, parent):
    span = spans.Span(name, parent)
    span.start, span.end = start, end
    return span


def test_self_time_subtracts_the_children():
    tracer = spans.Tracer()
    root = _span("pass", 0.0, 20.0, None)
    parent = _span("concentration.theorem31_check", 0.0, 10.0, root)
    tracer.spans = [
        root,
        parent,
        _span("concentration.evolve_dirac_matrix", 1.0, 3.0, parent),
        _span("dynamics.k_of_t", 4.0, 6.0, parent),
        _span("trace.count", 8.0, 9.0, parent),
    ]
    (name, values), = tracer.phase_values()
    assert name == "pass"
    assert values["concentration.theorem31_self_s"] == 5.0
    assert values["concentration.dirac_matrix_s"] == 2.0
    assert values["dynamics.gamma_s"] == 2.0


def test_every_counter_is_wrapped():
    assert set(spans.COUNTERS) <= set(spans.TARGETS)


def test_inclusive_time_counts_nested_calls_once():
    tracer = spans.Tracer()
    root = _span("pass", 0.0, 10.0, None)
    outer = _span("concentration.empirical_gcb_constant", 0.0, 4.0, root)
    tracer.spans = [
        root,
        outer,
        _span("concentration.check_uvb", 1.0, 2.0, outer),
        _span("concentration.check_uvb", 5.0, 6.0, root),
    ]
    (_, values), = tracer.phase_values()
    assert values["concentration.empirical_s"] == 5.0


def test_counts_from_a_traced_evolve():
    torus = lattice.Torus((3, 3))
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.phase("setup"):
            engine = dynamics.engine_for(dynamics.GlauberRates(torus, gibbs.Potential.ising_nn(2, 0.4)))
        with tracer.phase("pass"):
            engine.evolve_functions(np.ones((engine.n_states, 3)), 0.5)
            engine.evolve_measures(np.full(engine.n_states, 1.0 / engine.n_states), 0.5)
    finally:
        tracer.uninstall()
    terms = engine.poisson_weights(0.5).size
    metrics = {k: v["value"] for k, v in tracer.layer_metrics(1.0).items()}
    assert metrics["dynamics.engine_nnz"] == engine.p.nnz + engine.pt.nnz
    assert metrics["dynamics.poisson_terms"] == 2 * terms
    assert metrics["dynamics.matvec_columns"] == (terms - 1) * 4
    assert metrics["dynamics.evolve_functions_s"] > 0
    assert metrics["dynamics.engine_build_s"] > 0
    assert metrics["dynamics.columns_per_s"] > 0
