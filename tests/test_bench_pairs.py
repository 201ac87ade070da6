"""The paired-comparison summary of ``tools/bench_pairs.py`` on synthetic runs."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench_pairs.py")
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def _runs(parent, change):
    """Runs of both trees; each entry is one run's (ops_per_s, op_p50_ms)."""
    return {
        side: [{"ops_per_s": ops, "op_p50_ms": p50} for ops, p50 in pairs]
        for side, pairs in (("parent", parent), ("change", change))
    }


def test_wins_follow_each_metric_direction():
    # read the wrong way round, each metric would count the other number of wins
    runs = _runs(parent=[(100, 2.0)] * 3, change=[(120, 1.0), (130, 3.0), (80, 4.0)])
    summary = bench_pairs.summarize(runs, SPEC)
    assert summary["ops_per_s"]["wins"] == 2
    assert summary["op_p50_ms"]["wins"] == 1
    assert summary["ops_per_s"]["pairs"] == summary["op_p50_ms"]["pairs"] == 3
    assert summary["ops_per_s"]["change_median"] == 120
    assert summary["op_p50_ms"]["change_median"] == 3.0


def test_ties_are_not_wins():
    summary = bench_pairs.summarize(_runs([(100, 2.0)] * 2, [(100, 2.0)] * 2), SPEC)
    assert summary["ops_per_s"]["wins"] == summary["op_p50_ms"]["wins"] == 0


@pytest.mark.parametrize("low,high,spread,resolved", [(75, 125, 25, True), (74, 126, 26, False)])
def test_resolved_flips_where_the_parent_iqr_passes_the_bound(low, high, spread, resolved):
    # median 100 and a 25 % bound: an IQR of 25 resolves, 26 does not
    parent = [(low, 2.0), (100, 2.0), (high, 2.0)]
    summary = bench_pairs.summarize(_runs(parent, [(100, 2.0)] * 3), SPEC)
    assert summary["ops_per_s"]["parent_median"] == 100
    assert summary["ops_per_s"]["parent_iqr"] == spread
    assert summary["ops_per_s"]["resolved"] is resolved
    assert summary["op_p50_ms"]["resolved"] is True


def test_iqr_of_a_single_run_is_zero():
    assert bench_pairs.iqr([3.5]) == 0.0
    assert bench_pairs.iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0


def _verdicts(parent, change):
    summary = bench_pairs.summarize(_runs(parent, change), SPEC)
    return summary["ops_per_s"]["verdict"], summary["op_p50_ms"]["verdict"]


@pytest.mark.parametrize("wins,verdict", [(9, "gain"), (8, "-")])
def test_a_gain_needs_nine_of_ten_pairs(wins, verdict):
    # the change's medians beat an IQR of 0 either way; only the wins differ
    change = [(110, 1.0)] * wins + [(90, 3.0)] * (10 - wins)
    assert _verdicts([(100, 2.0)] * 10, change) == (verdict, verdict)


@pytest.mark.parametrize("ops,p50,verdict", [(106.0, 1.0, "-"), (106.5, 0.9, "gain")])
def test_a_gain_needs_the_median_past_the_parent_iqr(ops, p50, verdict):
    # parent medians 102 and 2.0 with IQRs 4 and 1: a change of exactly the
    # IQR is no gain, in either direction of better
    parent = [(100, 1.5)] * 5 + [(104, 2.5)] * 5
    summary = bench_pairs.summarize(_runs(parent, [(ops, p50)] * 10), SPEC)
    assert summary["ops_per_s"]["parent_iqr"] == 4.0 and summary["op_p50_ms"]["parent_iqr"] == 1.0
    assert summary["ops_per_s"]["wins"] == summary["op_p50_ms"]["wins"] == 10
    assert summary["ops_per_s"]["verdict"] == summary["op_p50_ms"]["verdict"] == verdict


@pytest.mark.parametrize("ops,p50,verdict", [(75.0, 2.5, "-"), (74.9, 2.51, "regressed")])
def test_a_regression_is_a_median_worse_by_more_than_the_bound(ops, p50, verdict):
    # a 25 % bound on parent medians 100 and 2.0
    assert _verdicts([(100, 2.0)] * 10, [(ops, p50)] * 10) == (verdict, verdict)
