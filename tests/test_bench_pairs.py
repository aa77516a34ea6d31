"""bench/pairs.py's summary of parent/change benchmark pairs, on synthetic runs."""

import importlib.util
import os
import random

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "pairs.py")
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

SPEC = {
    "workloads": [{"name": "w"}, {"name": "v"}],
    "end_to_end": [
        {"name": "ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "rate", "unit": "rows/s", "better": "higher", "bound": 0.1},
    ],
}
PARENT = [10.0 + i for i in range(10)]  # seeds 1-10
RATIOS = [1.0, 0.5, 1.4, 0.7, 0.9, 1.2, 0.6, 1.3, 0.8, 1.1]  # change / parent, seed by seed


def synthetic_runs():
    """Both workloads' runs, interleaved within each seed; workload v reads twice w's values."""
    runs = []
    for seed, p, r in zip(pairs.SEEDS, PARENT, RATIOS):
        for name, scale in (("w", 1.0), ("v", 2.0)):
            for side, value in (("parent", p * scale), ("change", p * r * scale)):
                runs.append({"workload": name, "seed": seed, "side": side,
                             "metrics": {"ms": {"value": value}, "rate": {"value": value}}})
    return runs


def test_summary_reports_each_side_and_the_per_seed_ratio():
    out = pairs.summary(synthetic_runs(), SPEC)
    assert list(out) == ["w", "v"] and list(out["w"]) == ["ms", "rate"]
    ms, rate = out["w"]["ms"], out["w"]["rate"]
    assert (ms["unit"], ms["better"], ms["bound"], ms["pairs"]) == ("ms", "lower", 0.25, 10)
    assert (rate["unit"], rate["better"], rate["bound"]) == ("rows/s", "higher", 0.1)
    assert ms["parent_q1_median_q3"] == pytest.approx([12.25, 14.5, 16.75])
    assert ms["change_q1_median_q3"] == pytest.approx([9.7, 13.5, 17.7])
    assert ms["parent_iqr_pct"] == pytest.approx(100 * 4.5 / 14.5)
    assert ms["median_gap_pct"] == pytest.approx(100 * -1.0 / 14.5)
    assert ms["median_gap_over_parent_iqr"] == pytest.approx(-1.0 / 4.5)
    # the ratios' quartiles are not the ratio of the sides' quartiles
    assert ms["change_over_parent_ratio_q1_median_q3"] == pytest.approx([0.725, 0.95, 1.175])
    # five seeds are lower, four higher, and an equal pair counts for neither side
    assert (ms["change_won"], rate["change_won"]) == (5, 4)
    # a ratio does not depend on the workload's scale
    v = out["v"]["ms"]
    assert v["change_over_parent_ratio_q1_median_q3"] == pytest.approx([0.725, 0.95, 1.175])
    assert v["parent_q1_median_q3"] == pytest.approx([24.5, 29.0, 33.5])


def test_summary_pairs_runs_by_seed_not_by_order():
    runs = synthetic_runs()
    shuffled = list(runs)
    random.Random(5).shuffle(shuffled)
    assert pairs.summary(shuffled, SPEC) == pairs.summary(runs, SPEC)


def test_equal_sides_leave_no_spread():
    runs = [{"workload": "w", "seed": s, "side": side, "metrics": {"ms": {"value": 3.0}, "rate": {"value": 3.0}}}
            for s in pairs.SEEDS for side in ("parent", "change")]
    ms = pairs.summary(runs, {**SPEC, "workloads": [{"name": "w"}]})["w"]["ms"]
    assert ms["median_gap_over_parent_iqr"] is None and ms["change_won"] == 0
    assert ms["change_over_parent_ratio_q1_median_q3"] == [1.0, 1.0, 1.0]
