"""The timing ladder's own scheduling, run on a fake rung with no kernel."""

import importlib.util
import sys
from pathlib import Path

LADDER = Path(__file__).resolve().parents[1] / "benchmarks" / "ladder.py"


def test_ladder_rotates_the_trees_each_round(monkeypatch):
    # the trees used to run in the order given every round, so the change
    # always sat between the parent and its A/A control
    monkeypatch.setattr(sys, "path", list(sys.path))  # ladder adds perfbench/
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    calls = []

    def child(src, rung, size):
        calls.append(src)
        return {"samples": {"kernel": {"kind": [float(len(calls))]}}, "extras": {}}

    monkeypatch.setattr(ladder, "child", child)
    monkeypatch.setattr(ladder, "RUNGS", {"fake": (None, [16], int)})
    trees = [("parent", "a"), ("change", "b"), ("parent_control", "c")]
    results = ladder.measure(trees, ["fake"])
    rounds = [calls[i : i + len(trees)] for i in range(0, len(calls), len(trees))]
    assert rounds == [["a", "b", "c"], ["b", "c", "a"], ["c", "a", "b"]]
    # each tree's entry is the median of its own calls: change ran 2nd, 4th, 9th
    assert results["change"]["kernel"]["kind"]["median_s"] == {"16": 4.0}
