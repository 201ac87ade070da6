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
