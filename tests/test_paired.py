"""The summary of ``benchmarks/paired.py`` on synthetic samples."""
import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                     "paired.py")
_spec = importlib.util.spec_from_file_location("paired", _PATH)
paired = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired)

CONTRACT = [{"name": "p50", "better": "lower", "bound": 0.2},
            {"name": "rate", "better": "higher", "bound": 0.2}]
BASE = [9.6, 9.8, 9.9, 10.0, 10.0, 10.0, 10.1, 10.2, 10.3, 10.4]


def verdicts(rev, head):
    """The verdict per metric when both metrics read ``rev`` and ``head``."""
    pairs = [({"p50": x, "rate": x}, {"p50": y, "rate": y})
             for x, y in zip(rev, head)]
    return [row["verdict"] for row in paired.summarize(pairs, CONTRACT)]


def test_quartiles_are_inclusive():
    assert paired.quartiles(list(range(1, 10))) == (3, 5, 7)
    assert paired.quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_summary_row_reads_medians_spread_and_wins():
    pairs = [({"p50": x, "rate": x}, {"p50": x - 0.5, "rate": x - 0.5})
             for x in BASE]
    low, high = paired.summarize(pairs, CONTRACT)
    assert low["rev_median"] == 10.0 and low["head_median"] == 9.5
    assert low["rev_iqr"] == pytest.approx(10.175 - 9.925)
    assert low["wins"] == 10 and high["wins"] == 0
    assert low["worse_by"] == pytest.approx(-0.05)
    assert high["worse_by"] == pytest.approx(0.05)
    assert [low["verdict"], high["verdict"]] == ["gain", "same"]


def test_verdicts():
    # equal runs: nothing moved
    assert verdicts(BASE, BASE) == ["same", "same"]
    # 30% up: worse where lower is better, a gain where higher is
    assert verdicts(BASE, [1.3 * x for x in BASE]) == ["worse", "gain"]
    # a gain needs nine wins in ten pairs, not only a better median
    mixed = [x - 0.5 for x in BASE[:8]] + [x + 0.5 for x in BASE[8:]]
    assert verdicts(BASE, mixed)[0] == "same"
    # a spread wider than the bound cannot tell a change of that size
    wide = [6, 7, 8, 9, 10, 10, 11, 12, 13, 14]
    assert verdicts(wide, wide) == ["unresolved", "unresolved"]
    assert verdicts(BASE, wide) == ["unresolved", "unresolved"]


def test_a_zero_median_reads_no_change_only_at_zero():
    pairs = [({"p50": 0.0, "rate": 1.0}, {"p50": 0.0, "rate": 1.0})] * 3
    assert [r["verdict"] for r in paired.summarize(pairs, CONTRACT)] == [
        "same", "same"]
    pairs = [({"p50": 0.0, "rate": 1.0}, {"p50": 1.0, "rate": 1.0})] * 3
    assert paired.summarize(pairs, CONTRACT)[0]["verdict"] == "worse"


def test_a_gain_needs_all_ten_pairs():
    better = [x - 0.5 for x in BASE]
    assert verdicts(BASE, better) == ["gain", "same"]
    # one winning pair, or nine, has no quartile distance to beat
    assert verdicts(BASE[:1], better[:1]) == ["same", "same"]
    assert verdicts(BASE[:9], better[:9]) == ["same", "same"]


def test_call_changes_read_a_missing_counter_as_zero():
    before = {"a.calls": 5, "b.calls": 3, "gone.calls": 2, "a.self_s": 0.1}
    after = {"a.calls": 4, "b.calls": 3, "new.calls": 7, "a.self_s": 0.2}
    assert paired.call_changes(before, after) == [
        ("a.calls", 5, 4), ("gone.calls", 2, 0), ("new.calls", 0, 7)]
    assert paired.call_changes(after, after) == []
