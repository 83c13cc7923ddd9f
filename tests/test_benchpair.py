"""Verdicts of tools/benchpair.py on synthetic pairs of runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "benchpair.py"
SPEC = {
    "wall_s": {"name": "wall_s", "better": "lower", "bound": 0.24},
    "peak_rss_mb": {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    "mc.path_events_per_s": {"name": "mc.path_events_per_s", "better": "higher"},
}


@pytest.fixture(scope="module")
def benchpair():
    spec = importlib.util.spec_from_file_location("benchpair", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(metrics, correct=True, failed=0):
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}


def pairs_of(parent, change, **metrics):
    """Pairs with wall_s from parent/change and constant other metrics."""
    return [
        {"seed": k, "parent": run({"wall_s": p, **metrics}), "change": run({"wall_s": c, **metrics})}
        for k, (p, c) in enumerate(zip(parent, change))
    ]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


class TestClaim:
    def test_met_when_nine_of_ten_win_past_the_parent_spread(self, benchpair):
        change = [0.7] * 9 + [1.05]
        summary, flags = benchpair.summarize(pairs_of(PARENT, change), SPEC, {"wall_s"})
        assert summary["wall_s"]["change_better_in_pairs"] == 9
        assert summary["wall_s"]["verdict"] == "met"
        assert flags == []

    def test_not_met_with_eight_wins(self, benchpair):
        change = [0.7] * 8 + [1.05, 1.05]
        summary, _ = benchpair.summarize(pairs_of(PARENT, change), SPEC, {"wall_s"})
        assert summary["wall_s"]["verdict"] == "not met"

    def test_not_met_inside_the_parent_spread(self, benchpair):
        # every pair won, but by less than the parent's interquartile range
        change = [p - 0.005 for p in PARENT]
        summary, _ = benchpair.summarize(pairs_of(PARENT, change), SPEC, {"wall_s"})
        assert summary["wall_s"]["change_better_in_pairs"] == 10
        assert summary["wall_s"]["verdict"] == "not met"

    def test_higher_is_better(self, benchpair):
        pairs = [
            {"seed": k, "parent": run({"mc.path_events_per_s": 1e6 + k}), "change": run({"mc.path_events_per_s": 5e6 + k})}
            for k in range(10)
        ]
        summary, _ = benchpair.summarize(pairs, SPEC, {"mc.path_events_per_s"})
        assert summary["mc.path_events_per_s"]["verdict"] == "met"
        summary, _ = benchpair.summarize(pairs, SPEC)
        assert summary["mc.path_events_per_s"]["verdict"] is None


class TestBounds:
    def test_ok_within_the_bound(self, benchpair):
        summary, _ = benchpair.summarize(pairs_of(PARENT, [p * 1.2 for p in PARENT]), SPEC)
        assert summary["wall_s"]["verdict"] == "ok"

    def test_worse_past_the_bound(self, benchpair):
        summary, _ = benchpair.summarize(pairs_of(PARENT, [p * 1.3 for p in PARENT]), SPEC)
        assert summary["wall_s"]["verdict"] == "worse"

    def test_unresolved_when_the_parent_spreads_past_the_bound(self, benchpair):
        parent = [0.5, 1.5] * 5
        summary, _ = benchpair.summarize(pairs_of(parent, parent), SPEC)
        assert summary["wall_s"]["verdict"] == "unresolved"

    @pytest.mark.parametrize(
        "better, parent, change", [("lower", [0.5, 1.5], 0.4), ("higher", [0.5, 1.5], 1.6)], ids=["lower", "higher"]
    )
    def test_ok_when_every_change_run_beats_every_parent_run(self, benchpair, better, parent, change):
        spec = {"wall_s": dict(SPEC["wall_s"], better=better)}
        summary, _ = benchpair.summarize(pairs_of(parent * 5, [change] * 10), spec)
        assert summary["wall_s"]["verdict"] == "ok"
        # one change run inside the parent's range leaves it unresolved
        summary, _ = benchpair.summarize(pairs_of(parent * 5, [change] * 9 + [1.0]), spec)
        assert summary["wall_s"]["verdict"] == "unresolved"

    def test_each_metric_against_its_own_bound(self, benchpair):
        pairs = pairs_of(PARENT, PARENT, peak_rss_mb=100.0)
        for pair in pairs:
            pair["change"]["metrics"]["peak_rss_mb"] = 115.0
        summary, _ = benchpair.summarize(pairs, SPEC)
        assert summary["wall_s"]["verdict"] == "ok"
        assert summary["peak_rss_mb"]["verdict"] == "worse"


class TestFlags:
    def test_incorrect_run_flagged(self, benchpair):
        pairs = pairs_of(PARENT, PARENT)
        pairs[3]["change"]["correct"] = False
        _, flags = benchpair.summarize(pairs, SPEC)
        assert flags == ["seed 3 change: correct false"]

    def test_more_failures_than_the_paired_run_flagged(self, benchpair):
        pairs = pairs_of(PARENT, PARENT)
        pairs[0]["parent"]["failed"] = 1
        pairs[0]["change"]["failed"] = 1
        pairs[5]["parent"]["failed"] = 2
        _, flags = benchpair.summarize(pairs, SPEC)
        assert flags == ["seed 5 parent: 2 failed operations, 0 in its pair"]


class TestPairRatio:
    def test_median_of_the_ratios_within_pairs(self, benchpair):
        # the machine slows between pairs: the ratio of the medians reads the
        # change 2x slower, while it halves the time within two of three pairs
        summary, _ = benchpair.summarize(pairs_of([1.0, 1.0, 4.0], [0.5, 2.0, 2.0]), SPEC)
        assert summary["wall_s"]["ratio"] == 2.0
        assert summary["wall_s"]["pair_ratio"] == 0.5
