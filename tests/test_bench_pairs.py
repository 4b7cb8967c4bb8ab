"""The verdict arithmetic of scripts/bench_pairs.py, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [10.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7]  # quartiles 9.775 and 10.225


def test_quartiles_follow_perfbench():
    got = bench_pairs.compare(PARENT, PARENT, "higher")
    assert got["parent_median"] == pytest.approx(10.0)
    assert (got["parent_q1"], got["parent_q3"]) == pytest.approx((9.775, 10.225))
    assert got["parent_iqr"] == pytest.approx(0.45)
    one = bench_pairs.compare([3.0], [4.0], "higher")
    assert (one["parent_median"], one["parent_q1"], one["parent_q3"], one["parent_iqr"]) == (3.0, 3.0, 3.0, 0)


def test_claim_holds_at_nine_wins_and_a_gap_above_the_parent_iqr():
    change = [p + 1.0 for p in PARENT]
    change[4] = PARENT[4] - 0.1  # one loss
    got = bench_pairs.compare(PARENT, change, "higher", 0.25)
    assert got["change_wins"] == "9/10" and got["claim_holds"] and got["within_bound"]
    assert got["change_median"] - got["parent_median"] > got["parent_iqr"]


def test_claim_fails_at_eight_wins():
    change = [p + 1.0 for p in PARENT]
    change[4] = change[7] = 0.0
    got = bench_pairs.compare(PARENT, change, "higher")
    assert got["change_wins"] == "8/10" and not got["claim_holds"]
    assert "within_bound" not in got


def test_ties_count_for_neither_side():
    change = [p + 1.0 for p in PARENT]
    change[0] = PARENT[0]
    assert bench_pairs.compare(PARENT, change, "higher")["change_wins"] == "9/10"
    change[1] = PARENT[1]
    assert not bench_pairs.compare(PARENT, change, "higher")["claim_holds"]


def test_claim_fails_when_the_gap_is_inside_the_parent_iqr():
    change = [p + 0.2 for p in PARENT]  # 10/10 wins, median gap 0.2 < IQR 0.45
    got = bench_pairs.compare(PARENT, change, "higher")
    assert got["change_wins"] == "10/10" and not got["claim_holds"]


def test_lower_is_better_and_the_bound_is_relative():
    change = [p - 1.0 for p in PARENT]
    assert bench_pairs.compare(PARENT, change, "lower", 0.1)["claim_holds"]
    worse = [p * 1.09 for p in PARENT]
    assert bench_pairs.compare(PARENT, worse, "lower", 0.1)["within_bound"]
    worse = [p * 1.11 for p in PARENT]
    got = bench_pairs.compare(PARENT, worse, "lower", 0.1)
    assert not got["within_bound"] and not got["claim_holds"] and got["change_wins"] == "0/10"


def test_pairs_must_match():
    with pytest.raises(ValueError):
        bench_pairs.compare(PARENT, PARENT[:-1], "higher")
