"""The BENCH driver's arithmetic on synthetic runs, and its refusal of seed
ranges it cannot summarize: tools/bench_pairs.py loaded by path, with no
benchmark run started."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

SPEC = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher"},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower"},
]

PARENT_OPS = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0]


@pytest.fixture
def bench_pairs(monkeypatch):
    """tools/bench_pairs.py as a module, without writing bytecode beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs_of(parent, change, name="ops_per_s"):
    """Synthetic results of `run_once` that carry only one metric."""
    return {
        side: [{"metrics": {name: {"value": v}}} for v in values]
        for side, values in (("parent", parent), ("change", change))
    }


def summary(bench_pairs, parent, change, name="ops_per_s"):
    spec = [m for m in SPEC if m["name"] == name]
    return bench_pairs.summarize(runs_of(parent, change, name), spec)[name]


def claimed(bench_pairs, parent, change, name="ops_per_s"):
    workloads = {"w": {"metrics": {name: summary(bench_pairs, parent, change, name)}}}
    return bench_pairs.claim(workloads, f"w:{name}", SPEC)


def test_summarize_counts_a_tie_for_neither_side(bench_pairs):
    parent, change = [10.0, 10.0, 10.0, 10.0], [11.0, 10.0, 9.0, 12.0]
    forward = summary(bench_pairs, parent, change)
    backward = summary(bench_pairs, change, parent)
    assert forward["change_better_in_pairs"] == 2
    assert backward["change_better_in_pairs"] == 1
    assert forward["parent"] == {"q1": 10.0, "median": 10.0, "q3": 10.0, "runs": parent}
    assert forward["change_over_parent_median"] == 1.05


def test_summarize_honours_better_lower(bench_pairs):
    entry = summary(bench_pairs, [5.0, 5.0, 5.0, 5.0], [4.0, 5.0, 6.0, 4.0], "op_p50_ms")
    assert entry["unit"] == "ms"
    assert entry["change_better_in_pairs"] == 2


def test_claim_met_at_nine_of_ten_beyond_the_parent_iqr(bench_pairs):
    change = [p + 1.0 for p in PARENT_OPS]
    change[3] = PARENT_OPS[3] - 0.1
    found = claimed(bench_pairs, PARENT_OPS, change)
    assert (found["change_better_in_pairs"], found["pairs"]) == (9, 10)
    assert found["median_gain"] > found["parent_iqr"] > 0.0
    assert found["met"]


def test_claim_not_met_at_eight_of_ten(bench_pairs):
    change = [p + 1.0 for p in PARENT_OPS]
    change[3] = PARENT_OPS[3] - 0.1
    change[7] = PARENT_OPS[7] - 0.1
    found = claimed(bench_pairs, PARENT_OPS, change)
    assert found["change_better_in_pairs"] == 8
    assert found["median_gain"] > found["parent_iqr"]
    assert not found["met"]


def test_claim_not_met_within_the_parent_iqr(bench_pairs):
    found = claimed(bench_pairs, PARENT_OPS, [p + 0.05 for p in PARENT_OPS])
    assert found["change_better_in_pairs"] == 10
    assert 0.0 < found["median_gain"] <= found["parent_iqr"]
    assert not found["met"]


def test_claim_of_a_lower_is_better_metric(bench_pairs):
    parent = [2.0 * p for p in PARENT_OPS]
    found = claimed(bench_pairs, parent, [p - 2.0 for p in parent], "op_p50_ms")
    assert found["change_better_in_pairs"] == 10
    assert found["median_gain"] == 2.0
    assert found["met"]


@pytest.mark.parametrize("seeds", ["5-5", "9-1", "7"])
def test_bad_seed_ranges_exit_2_before_any_run(bench_pairs, monkeypatch, tmp_path, seeds):
    def no_run(*args):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--seeds", seeds]
    with pytest.raises(SystemExit) as exited:
        bench_pairs.main(argv + ["--out", str(out)])
    assert exited.value.code == 2
    assert not out.exists()
