"""Alternated parent/change pairs of the benchmark and an in-process A/B of
each workload, written as a BENCH file:

    git archive PARENT_REV | tar -x -C /tmp/parent
    git archive HEAD | tar -x -C /tmp/change     # or a copy of the worktree
    python3 tools/bench_pairs.py --parent /tmp/parent --change /tmp/change \\
        --seeds 1611-1620 --claim campaign-large-n:ops_per_s --out BENCH_x.json

Per workload, first the pairs: per seed, one run of `python3 perfbench/run.py
--workload W --seed S --seconds T --trace 0` in each checkout, the parent first
on odd seeds. Then the A/B: both checkouts' `src/specangles` are imported into
this process under two names, and the change checkout's
`perfbench/workloads.py` runs on each side with its specangles names bound to
that side's. Per seed, round 0 of the workload runs once a side to warm up;
then the workload's warm-up (what `setup_s` times, less the imports) is timed
with `time.process_time` five times a side, in turn, and each side's median
is kept; then each operation is timed on both sides in turn, the first side
swapped each operation, and the outputs are compared: where they differ, the
file says how. Host drift then reaches both sides alike, where processes run
minutes apart can differ by 2x. The untimed round 0 also records each side's
kernel traffic (`kernel_counts`): per Jacobi kernel and matrix size, the
matrices solved, their steps and sweeps, and how many reach that side's
step cap.

The end-to-end metrics, their better direction and bound come from the change
checkout's BENCHMARK.json. The file gets the keys `environment`, `parent`,
`change`, `method`, `claim` (given `--claim`), `workloads` and `in_process_ab`,
and keeps its other keys. It is written after each workload, so a failed run
(reported with its command, exit code and stderr; exit 1) keeps those before.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import inspect
import json
import math
import re
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="exported parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="exported change checkout")
    parser.add_argument(
        "--seeds", required=True, help="inclusive range FIRST-LAST of at least two seeds"
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workloads", nargs="*", help="default: every workload of BENCHMARK.json")
    parser.add_argument("--claim", help="WORKLOAD:METRIC of the gain claimed, if any")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    # quartiles need two runs a side: refuse fewer seeds before any run
    found = re.fullmatch(r"(\d+)-(\d+)", args.seeds)
    if not found or int(found[1]) >= int(found[2]):
        parser.error(f"--seeds must be FIRST-LAST with FIRST < LAST, not {args.seeds!r}")
    args.seeds = list(range(int(found[1]), int(found[2]) + 1))
    return args


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its environment and detail block and its result,
    from the last two lines of standard output."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        raise subprocess.CalledProcessError(
            done.returncode, f"cd {checkout} && {shlex.join(command)}", stderr=done.stderr
        )
    head, result = done.stdout.strip().splitlines()[-2:]
    return {**json.loads(head), **json.loads(result)}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarize(runs: dict, spec: list[dict]) -> dict:
    """Per metric, each side's quartiles and runs, the ratio of medians, the
    pairs in which the change reads better, and whether the change's median
    is within the metric's relative bound of the parent's in its worse
    direction."""
    metrics = {}
    for metric in spec:
        name, higher = metric["name"], metric["better"] == "higher"
        sides = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        better = sum(
            (c > p) if higher else (c < p) for p, c in zip(sides["parent"], sides["change"])
        )
        entry = {"unit": metric["unit"]}
        for side, values in sides.items():
            entry[side] = {**quartiles(values), "runs": [round(v, 4) for v in values]}
        parent, change = entry["parent"]["median"], entry["change"]["median"]
        entry["change_over_parent_median"] = round(change / parent, 4)
        entry["change_better_in_pairs"] = better
        entry["bound"] = metric["bound"]
        entry["within_bound"] = (
            change >= parent * (1.0 - metric["bound"])
            if higher
            else change <= parent * (1.0 + metric["bound"])
        )
        metrics[name] = entry
    return metrics


def claim(workloads: dict, target: str, spec: list[dict]) -> dict:
    """The gate on a claimed gain: better in at least nine of ten pairs, and
    a median gain beyond the parent's interquartile range."""
    workload, name = target.split(":")
    entry = workloads[workload]["metrics"][name]
    sign = 1.0 if next(m for m in spec if m["name"] == name)["better"] == "higher" else -1.0
    parent, change = entry["parent"], entry["change"]
    pairs = len(parent["runs"])
    gain = sign * (change["median"] - parent["median"])
    iqr = parent["q3"] - parent["q1"]
    return {
        "metric": f"{name} on {workload}",
        "parent_median": parent["median"],
        "change_median": change["median"],
        "median_gain": round(gain, 4),
        "parent_iqr": round(iqr, 4),
        "change_better_in_pairs": entry["change_better_in_pairs"],
        "pairs": pairs,
        "met": entry["change_better_in_pairs"] >= math.ceil(0.9 * pairs) and gain > iqr,
    }


def pairs(checkouts: dict, workload: str, seeds: list[int], seconds: float, spec) -> tuple:
    """The workload's entry, its alternated runs per seed summarized, and
    each side's environment block."""
    runs = {side: [] for side in SIDES}
    order = {}
    for seed in seeds:
        sides = SIDES if seed % 2 else SIDES[::-1]
        order[str(seed)] = sides[0]
        for side in sides:
            found = run_once(checkouts[side], workload, seed, seconds)
            runs[side].append(found)
            print(f"{workload} seed {seed} {side}: ops_per_s "
                  f"{found['metrics']['ops_per_s']['value']:.3f}", file=sys.stderr)
    count = {key: {side: sum(r[key] for r in runs[side]) for side in SIDES}
             for key in ("attempted", "failed")}
    digests = {side: [r["detail"]["warm_up_digest"] for r in runs[side]] for side in SIDES}
    return {
        "seeds": seeds,
        "first_in_pair": order,
        **count,
        "failed_share": {side: count["failed"][side] / max(count["attempted"][side], 1)
                         for side in SIDES},
        "correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
        "warm_up_digests": digests,
        "warm_up_digests_agree": [p == c for p, c in zip(*digests.values())],
        "metrics": summarize(runs, spec),
    }, {side: runs[side][-1]["environment"] for side in SIDES}


def load(path: Path, name: str):
    """The module at `path`, or the package whose directory it is, imported
    as `name` without writing bytecode beside it."""
    sys.dont_write_bytecode = True
    package = path.is_dir()
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py" if package else path,
        submodule_search_locations=[str(path)] if package else None,
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def bound_to(workloads, pkg):
    """The workloads module with each name it took from `specangles` bound to
    its namesake in package `pkg`, so that its own code runs on that side;
    the names are restored on exit."""
    def home(value):
        name = value.__name__ if inspect.ismodule(value) else getattr(value, "__module__", None)
        return name if isinstance(name, str) and name.split(".")[0] == "specangles" else None

    saved = {key: value for key, value in vars(workloads).items() if home(value)}
    for key, value in saved.items():
        module = sys.modules[pkg.__name__ + home(value).removeprefix("specangles")]
        if not inspect.ismodule(value):
            module = getattr(module, value.__name__)
        setattr(workloads, key, module)
    try:
        yield workloads
    finally:
        for key, value in saved.items():
            setattr(workloads, key, value)


def round_of(pkg, workloads, name: str, seed: int, ops: int | None) -> tuple[list, object]:
    """The first `ops` operations (default: all) of round 0 of workload `name`
    for benchmark seed `seed`, rebuilt with the classes of package `pkg`, and
    the function that gives an operation's output as the bytes compared."""
    with bound_to(workloads, pkg):
        workload = workloads.make(name, seed)
        if workload.campaign:
            config = workload.config(0)
            trials = pkg.run_campaign(config)
            return ([lambda: next(trials)] * (ops or config.trials),
                    lambda report: pkg.rows_jsonl([report]).encode())
        count = ops or workloads.BLOCK_DRAWS
        draws = [workloads.block_draw(i, workload.seed_base) for i in range(count)]
    return ([lambda v=v, q=q: pkg.psd_block_bounds(v, q) for v, q in draws],
            lambda triple: np.asarray(triple).tobytes())


def timed_warm_up(sides: dict, workloads, name: str, seed: int) -> tuple[dict, dict]:
    """The median CPU seconds of workload `name`'s warm-up for benchmark seed
    `seed` on each side, run by perfbench's own code with that side's package
    five times a side in turn, the parent first on odd seeds; and the set of
    digests each side's runs gave. One warm-up of `block-lemma` is about
    20 ms, too short for one reading to compare."""
    spent = {side: [] for side in SIDES}
    digests = {side: set() for side in SIDES}
    for _ in range(5):
        for side in SIDES if seed % 2 else SIDES[::-1]:
            with bound_to(workloads, sides[side]):
                workload = workloads.make(name, seed)
                start = time.process_time()
                digests[side].add(workload.warm_up())
                spent[side].append(time.process_time() - start)
    return {side: statistics.median(runs) for side, runs in spent.items()}, digests


KERNELS = {"jacobi_sweeps": "two-sided", "hestenes_sweeps": "one-sided"}


@contextlib.contextmanager
def kernel_traffic(pkg, calls: list):
    """Each call of package `pkg`'s two Jacobi kernels, appended to `calls` as
    (kernel, matrix shape, Counts), as the `kernel_calls` test fixture wraps
    them: at the name `pkg.core` calls them by. Restored on exit."""
    saved = {name: getattr(pkg.core, name) for name in KERNELS}

    def counted(name, original):
        def call(a, *args):
            out = original(a, *args)
            calls.append((KERNELS[name], a.shape[1:], out if name == "jacobi_sweeps" else out[1]))
            return out
        return call

    for name, original in saved.items():
        setattr(pkg.core, name, counted(name, original))
    try:
        yield calls
    finally:
        for name, original in saved.items():
            setattr(pkg.core, name, original)


def kernel_counts(calls: list, cap: int) -> dict:
    """Per kernel and matrix shape ("48x48" two-sided, "24x32" one-sided) of
    the `kernel_traffic` calls: the matrices solved, the mean and max of
    their steps and sweeps, how many took a sweep at all, and how many took
    `cap` steps, the step cap of the side that made the calls."""
    found = {}
    for kernel, shape, counts in calls:
        found.setdefault(kernel, {}).setdefault(tuple(shape), []).append(counts)
    out = {}
    for kernel, sizes in sorted(found.items()):
        for shape, runs in sorted(sizes.items()):
            entry = {"matrices": sum(len(c.sweeps) for c in runs)}
            for field in ("steps", "sweeps"):
                values = np.concatenate([getattr(c, field) for c in runs])
                entry[field] = {"mean": round(float(values.mean()), 4), "max": int(values.max())}
            entry["matrices_sweeping"] = sum(int(np.count_nonzero(c.sweeps)) for c in runs)
            entry["matrices_at_cap"] = sum(int(np.count_nonzero(c.steps >= cap)) for c in runs)
            out.setdefault(kernel, {})["x".join(map(str, shape))] = entry
    return out


KEPT = ("instance_id", "t", "bound_name", "pass")


def drift(campaign: bool, outputs: list[tuple[bytes, bytes]]) -> dict:
    """How the (parent, change) output bytes of each operation differ: the
    operations that differ and, over them, for campaign rows whether every row
    keeps its KEPT fields and the largest |delta theta| and |delta margin|,
    for block-lemma triples the largest relative difference of an entry."""
    differ = [pair for pair in outputs if pair[0] != pair[1]]
    found = {"operations_differing": len(differ)}
    if not campaign:
        worst = 0.0
        for pair in differ:
            p, c = (np.frombuffer(side) for side in pair)
            scale = np.maximum(np.abs(p), np.abs(c))
            gap = np.divide(np.abs(c - p), scale, out=np.zeros_like(p), where=scale > 0.0)
            worst = max(worst, float(np.max(gap)))
        return {**found, "max_relative_triple_difference": worst}
    kept, theta, margin = True, 0.0, 0.0
    for pair in differ:
        p, c = ([json.loads(line) for line in side.decode().splitlines()] for side in pair)
        kept = kept and len(p) == len(c) and all(a[k] == b[k] for a, b in zip(p, c) for k in KEPT)
        for a, b in zip(p, c):
            theta = max(theta, abs(a["theta"] - b["theta"]))
            margin = max(margin, abs(a["margin"] - b["margin"]))
    return {**found, "rows_keep_id_t_bound_and_verdict": kept,
            "max_abs_theta_difference": theta, "max_abs_margin_difference": margin}


def in_process_ab(sides: dict, workloads, name: str, seeds: list[int], ops=None) -> dict:
    """CPU milliseconds per operation on each side, one round per seed, and
    how the sides' outputs differ; per seed, after a warm pass, the median
    CPU milliseconds of each side's warm-up (`timed_warm_up`) and whether every
    warm-up of both sides gave one digest; and each side's `kernel_counts`
    over the warm passes, against its own `_jacobi.STEP_CAP`."""
    ms = {side: [] for side in SIDES}
    warm = {side: [] for side in SIDES}
    calls = {side: [] for side in SIDES}
    ratios, warm_ratios, digests_agree, outputs = [], [], [], []
    for seed in seeds:
        for side, pkg in sides.items():  # warm pass
            with kernel_traffic(pkg, calls[side]):
                for run in round_of(pkg, workloads, name, seed, ops)[0]:
                    run()
        spent, digests = timed_warm_up(sides, workloads, name, seed)
        for side in SIDES:
            warm[side].append(round(1e3 * spent[side], 4))
        warm_ratios.append(round(warm["change"][-1] / warm["parent"][-1], 4))
        digests_agree.append(len(digests["parent"] | digests["change"]) == 1)
        work = {side: round_of(pkg, workloads, name, seed, ops) for side, pkg in sides.items()}
        spent = dict.fromkeys(SIDES, 0.0)
        count = len(work["parent"][0])
        for i in range(count):
            found = {}
            for side in SIDES if i % 2 else SIDES[::-1]:
                run, encode = work[side][0][i], work[side][1]
                start = time.process_time()
                out = run()
                spent[side] += time.process_time() - start
                found[side] = encode(out)
            outputs.append((found["parent"], found["change"]))
        for side in SIDES:
            ms[side].append(round(1e3 * spent[side] / count, 4))
        ratios.append(round(spent["change"] / spent["parent"], 4))
        print(f"{name} A/B seed {seed}: parent {ms['parent'][-1]} ms/op, change "
              f"{ms['change'][-1]} ms/op, ratio {ratios[-1]}; warm-up ratio "
              f"{warm_ratios[-1]}", file=sys.stderr)
    differences = drift(workloads.make(name, seeds[0]).campaign, outputs)
    return {
        "seeds": seeds,
        "ops_per_round": count,
        "cpu_ms_per_op": ms,
        "change_over_parent_per_round": ratios,
        "change_over_parent_median": statistics.median(ratios),
        "change_slower_in": f"{sum(x > 1.0 for x in ratios)} of {len(ratios)} rounds",
        "warm_up_cpu_ms": warm,
        "warm_up_change_over_parent_per_round": warm_ratios,
        "warm_up_change_over_parent_median": statistics.median(warm_ratios),
        "warm_up_digests_agree": digests_agree,
        "same_outputs_every_operation": differences["operations_differing"] == 0,
        "output_drift": differences,
        "kernel_counts": {
            side: kernel_counts(calls[side], sides[side]._jacobi.STEP_CAP) for side in SIDES
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    spec = bench["end_to_end"]
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    checkouts = {"parent": args.parent, "change": args.change}
    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out["method"] = (
        f"tools/bench_pairs.py --seeds {args.seeds[0]}-{args.seeds[-1]} --seconds "
        f"{args.seconds:g} on {', '.join(names)}; quartiles are inclusive; "
        "change_better_in_pairs counts pairs where the change reads better; within_bound "
        "holds where the change's median is no worse than the parent's by its relative bound"
    )
    sys.path[:0] = [str(args.change / "src")]  # the `specangles` perfbench/workloads.py imports
    load(args.change / "perfbench" / "oracle.py", "oracle")
    workloads = load(args.change / "perfbench" / "workloads.py", "bench_workloads")
    sides = {side: load(checkouts[side] / "src" / "specangles", f"specangles_{side}")
             for side in SIDES}
    done = {}
    for name in names:
        try:
            entry, envs = pairs(checkouts, name, args.seeds, args.seconds, spec)
        except subprocess.CalledProcessError as err:
            tail = "\n".join((err.stderr or "").strip().splitlines()[-20:])
            print(f"bench_pairs: `{err.cmd}` exited {err.returncode}; {args.out} keeps the "
                  f"workloads before {name}. Its stderr ends:\n{tail}", file=sys.stderr)
            return 1
        done[name] = entry
        out["workloads"] = {**out.get("workloads", {}), name: entry}
        section = in_process_ab(sides, workloads, name, args.seeds)
        out["in_process_ab"] = {**out.get("in_process_ab", {}), name: section}
        env = {k: v for k, v in envs["change"].items() if k not in ("git_commit", "source_sha256")}
        out["environment"] = {**out.get("environment", {}), **env}
        for side in SIDES:
            # an exported checkout has no git metadata; keep a commit noted by hand
            known = out.get(side, {})
            out[side] = {
                **known,
                "git_commit": envs[side]["git_commit"] or known.get("git_commit"),
                "source_sha256": envs[side]["source_sha256"],
            }
        if args.claim and args.claim.split(":")[0] in done:
            out["claim"] = claim(done, args.claim, spec)
        args.out.write_text(json.dumps(out, indent=1, ensure_ascii=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
