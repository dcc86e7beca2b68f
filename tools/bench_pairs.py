"""Alternated parent/change pairs of the benchmark and an in-process A/B of
each workload, written as a BENCH file:

    git archive PARENT_REV | tar -x -C /tmp/parent
    git archive HEAD | tar -x -C /tmp/change     # or a copy of the worktree
    python3 tools/bench_pairs.py --parent /tmp/parent --change /tmp/change \\
        --seeds 1611-1620 --claim campaign-large-n:ops_per_s --out BENCH_x.json

Per workload, first the pairs: per seed, one run of `python3 perfbench/run.py
--workload W --seed S --seconds T --trace 0` in each checkout, the parent first
on odd seeds. Then the A/B: both checkouts' `src/specangles` are imported into
this process under two names; per seed, round 0 of the workload (inputs from
the change checkout's `perfbench/workloads.py`, rebuilt with each side's
classes) runs once a side to warm up, then each operation is timed with
`time.process_time` on both sides in turn, the first side swapped each
operation, and the outputs are compared. Host drift then reaches both sides
alike, where processes run minutes apart can differ by 2x.

The end-to-end metrics, their better direction and bound come from the change
checkout's BENCHMARK.json. The file gets the keys `environment`, `parent`,
`change`, `method`, `claim` (given `--claim`), `workloads` and `in_process_ab`,
and keeps its other keys. It is written after each workload, so a failed run
(reported with its command, exit code and stderr; exit 1) keeps those before.
"""

from __future__ import annotations

import argparse
import importlib.util
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


def round_of(pkg, workloads, name: str, seed: int, ops: int | None) -> tuple[list, object]:
    """The first `ops` operations (default: all) of round 0 of workload `name`
    for benchmark seed `seed`, rebuilt with the classes of package `pkg`, and
    the function that gives an operation's output as the bytes compared."""
    workload = workloads.make(name, seed)
    if workload.campaign:
        c = workload.config(0)
        trials = pkg.run_campaign(pkg.CampaignConfig.from_dict({
            "trials": c.trials, "n": list(c.ns), "plans": list(c.plans),
            "v_ratios": list(c.v_ratios), "seeds": list(c.seeds), "tolerances": c.tolerances,
        }))
        return [lambda: next(trials)] * (ops or c.trials), lambda r: pkg.rows_jsonl([r]).encode()
    draws = (workloads.block_draw(i, workload.seed_base)
             for i in range(ops or workloads.BLOCK_DRAWS))
    rebuilt = [(pkg.SymmetricMatrix(v.entries),
                pkg.Projector(pkg.SymmetricMatrix(q.matrix.entries), rank=q.rank))
               for v, q in draws]
    return ([lambda v=v, q=q: pkg.psd_block_bounds(v, q) for v, q in rebuilt],
            lambda triple: np.asarray(triple).tobytes())


def in_process_ab(sides: dict, workloads, name: str, seeds: list[int], ops=None) -> dict:
    """CPU milliseconds per operation on each side, one round per seed, and
    whether both sides gave the same output bytes on every operation."""
    ms = {side: [] for side in SIDES}
    ratios, same = [], True
    for seed in seeds:
        for pkg in sides.values():  # warm pass
            for run in round_of(pkg, workloads, name, seed, ops)[0]:
                run()
        work = {side: round_of(pkg, workloads, name, seed, ops) for side, pkg in sides.items()}
        spent = dict.fromkeys(SIDES, 0.0)
        count = len(work["parent"][0])
        for i in range(count):
            outputs = {}
            for side in SIDES if i % 2 else SIDES[::-1]:
                run, encode = work[side][0][i], work[side][1]
                start = time.process_time()
                found = run()
                spent[side] += time.process_time() - start
                outputs[side] = encode(found)
            same = same and outputs["parent"] == outputs["change"]
        for side in SIDES:
            ms[side].append(round(1e3 * spent[side] / count, 4))
        ratios.append(round(spent["change"] / spent["parent"], 4))
        print(f"{name} A/B seed {seed}: parent {ms['parent'][-1]} ms/op, change "
              f"{ms['change'][-1]} ms/op, ratio {ratios[-1]}", file=sys.stderr)
    return {
        "seeds": seeds,
        "ops_per_round": count,
        "cpu_ms_per_op": ms,
        "change_over_parent_per_round": ratios,
        "change_over_parent_median": statistics.median(ratios),
        "change_slower_in": f"{sum(x > 1.0 for x in ratios)} of {len(ratios)} rounds",
        "same_outputs_every_operation": same,
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
