"""The BENCH driver: its arithmetic on synthetic runs, its refusal of seed
ranges it cannot summarize, the file it writes from stubbed runs, and its
in-process A/B on a few operations with this checkout on both sides.
tools/bench_pairs.py is loaded by path; no benchmark process is started."""

import contextlib
import importlib.util
import json
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"

SPEC = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

PARENT_OPS = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0]


@pytest.fixture
def bench_pairs(monkeypatch):
    """tools/bench_pairs.py as a module, without writing bytecode beside it;
    the modules and import path it adds are dropped afterwards."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", [*sys.path])
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in set(sys.modules) - before:
        del sys.modules[name]


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


@pytest.mark.parametrize(
    "name, parent, at_bound, past_bound",
    [("ops_per_s", 8.0, 6.0, 5.99), ("op_p50_ms", 4.0, 5.0, 5.01)],
)
def test_within_bound_holds_at_the_bound_and_fails_past_it(
    bench_pairs, name, parent, at_bound, past_bound
):
    # a 25% bound: 8 -> 6 ops/s and 4 -> 5 ms are exactly at it
    for change, within in ((parent, True), (at_bound, True), (past_bound, False)):
        entry = summary(bench_pairs, [parent] * 4, [change] * 4, name)
        assert entry["bound"] == 0.25
        assert entry["within_bound"] is within, change


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


def test_help_lists_the_seven_options(bench_pairs, capsys):
    with pytest.raises(SystemExit) as exited:
        bench_pairs.main(["--help"])
    assert exited.value.code == 0
    options = set(re.findall(r"--[a-z]+", capsys.readouterr().out)) - {"--help"}
    assert options == {
        "--parent", "--change", "--seeds", "--seconds", "--workloads", "--claim", "--out"
    }


def stub_run(checkout, workload, seed, seconds):
    """A synthetic `run_once` result: the sides' warm-up digests differ on
    seed 2 only, and the change fails one operation on seed 3."""
    side = checkout.name
    return {
        "environment": {"python": "3", "git_commit": None, "source_sha256": side},
        "detail": {"warm_up_digest": f"{workload}-{seed}" + ("-" + side) * (seed == 2)},
        "correct": True,
        "attempted": 100,
        "failed": int(seed == 3 and side == "change"),
        "metrics": {m["name"]: {"value": 1.0 + seed, "unit": m["unit"]} for m in END_TO_END},
    }


def stubbed_main(bench_pairs, monkeypatch, tmp_path, run_once):
    """main on stubbed runs and A/B, seeds 1-3, with this checkout on both
    sides under the names parent and change: (exit code, written file)."""
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(
        bench_pairs, "in_process_ab", lambda sides, workloads, name, seeds: {"stub": name}
    )
    for side in ("parent", "change"):
        (tmp_path / side).symlink_to(ROOT, target_is_directory=True)
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"kept": 1}))
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]
    argv += ["--seeds", "1-3"]
    code = bench_pairs.main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text())


def test_each_run_keeps_its_warm_up_digest(bench_pairs, monkeypatch, tmp_path):
    code, found = stubbed_main(bench_pairs, monkeypatch, tmp_path, stub_run)
    assert code == 0
    assert found["kept"] == 1
    for name in ("campaign-large-n", "block-lemma"):
        entry = found["workloads"][name]
        assert entry["warm_up_digests_agree"] == [True, False, True]
        assert entry["warm_up_digests"]["parent"][1] == f"{name}-2-parent"
        assert entry["failed_share"] == {"parent": 0.0, "change": 1 / 300}
        assert {m["name"] for m in END_TO_END} == set(entry["metrics"])
        assert all(m["within_bound"] for m in entry["metrics"].values())
        assert found["in_process_ab"][name] == {"stub": name}


def test_a_failed_run_keeps_the_workloads_before_it(bench_pairs, monkeypatch, tmp_path, capsys):
    def fail_on_block_lemma(checkout, workload, seed, seconds):
        if workload == "block-lemma" and seed == 2:
            raise subprocess.CalledProcessError(
                3, "cd x && python3 perfbench/run.py", stderr="first line\nboom at the end\n"
            )
        return stub_run(checkout, workload, seed, seconds)

    code, found = stubbed_main(bench_pairs, monkeypatch, tmp_path, fail_on_block_lemma)
    assert code == 1
    assert found["kept"] == 1
    assert list(found["workloads"]) == ["campaign-large-n"]
    assert list(found["in_process_ab"]) == ["campaign-large-n"]
    err = capsys.readouterr().err
    assert "`cd x && python3 perfbench/run.py` exited 3" in err
    assert err.rstrip().endswith("boom at the end")


def loaded_sides(bench_pairs):
    """perfbench's workloads module and this checkout's package loaded twice,
    under the names of both sides."""
    load = bench_pairs.load
    load(ROOT / "perfbench" / "oracle.py", "oracle")
    workloads = load(ROOT / "perfbench" / "workloads.py", "bench_workloads")
    sides = {
        side: load(ROOT / "src" / "specangles", f"specangles_{side}")
        for side in ("parent", "change")
    }
    return workloads, sides


def test_in_process_ab_on_a_few_operations_of_each_workload(bench_pairs):
    workloads, sides = loaded_sides(bench_pairs)
    for name in ("campaign-large-n", "block-lemma"):
        section = bench_pairs.in_process_ab(sides, workloads, name, [1, 2], ops=3)
        assert section["same_outputs_every_operation"] is True, name
        assert section["output_drift"]["operations_differing"] == 0
        assert section["ops_per_round"] == 3
        assert len(section["change_over_parent_per_round"]) == 2
        assert [len(section["cpu_ms_per_op"][side]) for side in ("parent", "change")] == [2, 2]
        assert [len(section["warm_up_cpu_ms"][side]) for side in ("parent", "change")] == [2, 2]
        assert len(section["warm_up_change_over_parent_per_round"]) == 2
        assert section["warm_up_digests_agree"] == [True, True]
        counts = section["kernel_counts"]
        assert counts["parent"] == counts["change"], name
        # the kernels are restored after each warm pass
        assert all(side.core.jacobi_sweeps is side._jacobi.jacobi_sweeps for side in sides.values())
        if name == "block-lemma":
            # three draws per seed, each one (3, n, n) solve by sweeps alone
            assert list(counts["change"]) == ["two-sided"]
            two_sided = counts["change"]["two-sided"]
            assert sum(entry["matrices"] for entry in two_sided.values()) == 2 * 3 * 3
            for size, entry in two_sided.items():
                assert int(size.split("x")[0]) <= 10
                assert entry["steps"]["max"] == 0
        else:
            # the path solves at n = 48 and 64 step
            two_sided = counts["change"]["two-sided"]
            assert set(two_sided) <= {"48x48", "64x64"}
            assert all(entry["steps"]["mean"] > 0.0 for entry in two_sided.values())
        # the workloads module keeps the specangles it imported
        assert workloads.run_campaign.__module__ == "specangles.campaign"


def test_warm_up_is_timed_five_times_a_side_in_turn(bench_pairs, monkeypatch):
    # a scripted CPU clock: each warm-up advances it by its side's next cost,
    # so the median of each side's five runs is known
    costs = {"parent": [5.0, 1.0, 3.0, 2.0, 4.0], "change": [9.0, 1.0, 1.0, 8.0, 1.0]}
    clock, order = [0.0], []

    class Workload:
        def __init__(self, side):
            self.side = side

        def warm_up(self):
            order.append(self.side)
            clock[0] += costs[self.side][order.count(self.side) - 1]
            # the change's fifth warm-up gives another digest
            return "other" if order.count(self.side) == 5 and self.side == "change" else "same"

    @contextlib.contextmanager
    def bound(workloads, pkg):
        workloads.side = pkg
        yield workloads

    workloads = types.SimpleNamespace()
    workloads.make = lambda name, seed: Workload(workloads.side)
    monkeypatch.setattr(bench_pairs, "bound_to", bound)
    monkeypatch.setattr(bench_pairs.time, "process_time", lambda: clock[0])
    sides = {"parent": "parent", "change": "change"}
    for seed, first, second in ((1, "parent", "change"), (2, "change", "parent")):
        order.clear()
        spent, digests = bench_pairs.timed_warm_up(sides, workloads, "w", seed)
        assert order == [first, second] * 5
        assert spent == {"parent": 3.0, "change": 1.0}
        assert digests == {"parent": {"same"}, "change": {"same", "other"}}


def test_in_process_ab_says_how_the_outputs_differ(bench_pairs, monkeypatch):
    # the change side takes no all-pairs step (a step cap of 0), so it
    # solves by sweeps alone past the QR passes: its n = 48 path and angle
    # solves move by rounding, and every row keeps its verdict
    workloads, sides = loaded_sides(bench_pairs)
    monkeypatch.setattr(sides["change"]._jacobi, "STEP_CAP", 0)
    section = bench_pairs.in_process_ab(sides, workloads, "campaign-large-n", [1], ops=2)
    drift = section["output_drift"]
    assert section["same_outputs_every_operation"] is False
    assert drift["operations_differing"] == 2
    assert drift["rows_keep_id_t_bound_and_verdict"] is True
    assert 0.0 < drift["max_abs_theta_difference"] <= 1e-14
    assert 0.0 < drift["max_abs_margin_difference"] <= 1e-14
    # the traffic says so: the parent steps in both kernels, the change never
    counts = section["kernel_counts"]
    for side, stepped in (("parent", True), ("change", False)):
        for kernel in ("two-sided", "one-sided"):
            steps = [entry["steps"]["max"] for entry in counts[side][kernel].values()]
            assert (max(steps) > 0) is stepped, (side, kernel)


def test_kernel_counts_per_kernel_and_size(bench_pairs):
    def counts(sweeps, steps):
        return types.SimpleNamespace(sweeps=np.array(sweeps), steps=np.array(steps))

    calls = [
        ("two-sided", (4, 4), counts([0, 3], [0, 0])),
        ("one-sided", (3, 5), counts([0], [4])),
        ("two-sided", (4, 4), counts([1], [0])),
        ("two-sided", (16, 16), counts([0, 0], [5, 8])),
    ]
    assert bench_pairs.kernel_counts(calls, 8) == {
        "one-sided": {
            "3x5": {"matrices": 1,
                    "steps": {"mean": 4.0, "max": 4}, "sweeps": {"mean": 0.0, "max": 0},
                    "matrices_sweeping": 0, "matrices_at_cap": 0},
        },
        "two-sided": {
            "4x4": {"matrices": 3,
                    "steps": {"mean": 0.0, "max": 0}, "sweeps": {"mean": 1.3333, "max": 3},
                    "matrices_sweeping": 2, "matrices_at_cap": 0},
            "16x16": {"matrices": 2,
                      "steps": {"mean": 6.5, "max": 8}, "sweeps": {"mean": 0.0, "max": 0},
                      "matrices_sweeping": 0, "matrices_at_cap": 1},
        },
    }


def test_matrices_at_cap_read_each_sides_own_step_cap(bench_pairs, monkeypatch):
    # with a step cap of 3 on the change side, every angle matrix of a
    # campaign-large-n trial reaches it, while the parent's 12 stops them first
    workloads, sides = loaded_sides(bench_pairs)
    monkeypatch.setattr(sides["change"]._jacobi, "STEP_CAP", 3)
    counts = bench_pairs.in_process_ab(sides, workloads, "campaign-large-n", [1], ops=1)[
        "kernel_counts"
    ]
    parent, change = (counts[side]["one-sided"].values() for side in ("parent", "change"))
    assert all(entry["steps"]["max"] == 3 for entry in change)
    assert all(entry["matrices_at_cap"] == entry["matrices"] for entry in change)
    assert all(entry["matrices_at_cap"] < entry["matrices"] for entry in parent)


def test_drift_of_campaign_rows_and_block_triples(bench_pairs):
    row = {"instance_id": "x", "t": 1.0, "theta": 0.5, "bound_name": "b", "margin": 0.25,
           "pass": True}

    def jsonl(*rows):
        return "".join(json.dumps(r) + "\n" for r in rows).encode()

    moved = {**row, "theta": 0.5 + 2e-16, "margin": 0.25 - 1e-16}
    flipped = {**row, "pass": False}
    same = (jsonl(row), jsonl(row))
    found = bench_pairs.drift(True, [same, (jsonl(row, row), jsonl(row, moved))])
    assert found == {
        "operations_differing": 1, "rows_keep_id_t_bound_and_verdict": True,
        "max_abs_theta_difference": abs(0.5 - moved["theta"]),
        "max_abs_margin_difference": abs(0.25 - moved["margin"]),
    }
    for changed in (jsonl(flipped), jsonl(row, row)):
        found = bench_pairs.drift(True, [same, (jsonl(row), changed)])
        assert found["rows_keep_id_t_bound_and_verdict"] is False
    triple = np.array([2.0, 0.0, 4.0])
    found = bench_pairs.drift(False, [(triple.tobytes(), np.array([2.0, 0.0, 5.0]).tobytes())])
    assert found == {"operations_differing": 1, "max_relative_triple_difference": 0.2}
    found = bench_pairs.drift(False, [(triple.tobytes(), triple.tobytes())])
    assert found == {"operations_differing": 0, "max_relative_triple_difference": 0.0}
