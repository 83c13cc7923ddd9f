"""End-to-end acceptance suite.

Nine independent criteria, one test each, ordered; `pytest -v` prints one
pass/fail line per criterion.  The criteria live in `spinflip.acceptance`,
whose sizes, seeds and tolerances are part of the contract and must not be
loosened.  These tests run each criterion at full size; `spinflip selftest`
runs the quick sweep of the same functions.
"""

from spinflip import acceptance


def test_1_independent_spectral_law():
    failure = acceptance.spectral_law()
    assert failure is None, failure


def test_2_dobrushin_pipeline():
    failure = acceptance.dobrushin_pipeline()
    assert failure is None, failure


def test_3_iterated_generator_bounds():
    failure = acceptance.iterated_generator_bounds()
    assert failure is None, failure


def test_4_series_vs_semigroup():
    failure = acceptance.series_vs_semigroup()
    assert failure is None, failure


def test_5_data_processing_and_nondegeneracy():
    failure = acceptance.data_processing()
    assert failure is None, failure


def test_6_psi_identity_quadrature():
    failure = acceptance.psi_identity_quadrature()
    assert failure is None, failure


def test_7_conservation_theorems():
    failure = acceptance.conservation_theorems()
    assert failure is None, failure


def test_8_infinite_range_lemma():
    failure = acceptance.infinite_range_lemma()
    assert failure is None, failure


def test_9_mc_exact_cross_validation():
    failure = acceptance.mc_cross_validation()
    assert failure is None, failure
