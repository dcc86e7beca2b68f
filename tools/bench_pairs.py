"""Alternated parent/change pairs of the benchmark, written as a BENCH file.

Export the two trees to compare, then run pairs of `perfbench/run.py` on
them, one parent run and one change run per seed and workload, the parent
first on odd seeds and the change first on even ones:

    git archive PARENT_REV | tar -x -C /tmp/parent
    git archive HEAD | tar -x -C /tmp/change     # or a copy of the worktree
    python3 tools/bench_pairs.py --parent /tmp/parent --change /tmp/change \\
        --seeds 1611-1620 --claim campaign-large-n:ops_per_s --out BENCH_x.json

Every run is `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`, started in the checkout it measures. The end-to-end metrics, and
which way each is better, come from the change checkout's BENCHMARK.json.
The file gets the keys `environment`, `parent`, `change`, `method`, `claim`
(given `--claim`) and `workloads`; an existing file keeps its other keys, so
hand-measured sections (an in-process A/B, a traced run) stay.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="exported parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="exported change checkout")
    parser.add_argument("--seeds", required=True, help="inclusive range FIRST-LAST")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workloads", nargs="*", help="default: every workload of BENCHMARK.json")
    parser.add_argument("--claim", help="WORKLOAD:METRIC of the gain claimed, if any")
    parser.add_argument("--out", required=True, type=Path)
    return parser.parse_args(argv)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its environment block and result, from the last
    two lines of standard output."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    head, result = done.stdout.strip().splitlines()[-2:]
    return {**json.loads(head), **json.loads(result)}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarize(runs: dict, spec: list[dict]) -> dict:
    """Per metric, each side's quartiles and runs, the ratio of medians and
    the pairs in which the change reads better."""
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
        entry["change_over_parent_median"] = round(
            entry["change"]["median"] / entry["parent"]["median"], 4
        )
        entry["change_better_in_pairs"] = better
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


def main(argv=None) -> int:
    args = parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    spec = bench["end_to_end"]
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    checkouts = {"parent": args.parent, "change": args.change}
    workloads, envs = {}, {}
    for workload in names:
        runs = {"parent": [], "change": []}
        order = {}
        for seed in seeds:
            sides = ("parent", "change") if seed % 2 else ("change", "parent")
            order[str(seed)] = sides[0]
            for side in sides:
                found = run_once(checkouts[side], workload, seed, args.seconds)
                envs[side] = found["environment"]
                runs[side].append(found)
                print(f"{workload} seed {seed} {side}: ops_per_s "
                      f"{found['metrics']['ops_per_s']['value']:.3f}", file=sys.stderr)
        workloads[workload] = {
            "seeds": seeds,
            "first_in_pair": order,
            "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
            "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
            "correct": {side: all(r["correct"] for r in runs[side]) for side in runs},
            "metrics": summarize(runs, spec),
        }
    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    env = {k: v for k, v in envs["change"].items() if k not in ("git_commit", "source_sha256")}
    out["environment"] = {**out.get("environment", {}), **env}
    for side in checkouts:
        # an exported checkout has no git metadata; keep a commit noted by hand
        known = out.get(side, {})
        out[side] = {
            **known,
            "git_commit": envs[side]["git_commit"] or known.get("git_commit"),
            "source_sha256": envs[side]["source_sha256"],
        }
    out["method"] = (
        f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0 "
        f"for workloads {', '.join(names)}, seeds {first}-{last}, one parent and one change run "
        "per seed and workload, parent first on odd seeds and change first on even seeds, each "
        "side run from its own exported checkout by tools/bench_pairs.py; quartiles are "
        "inclusive; change_better_in_pairs counts pairs where the change reads better"
    )
    if args.claim:
        out["claim"] = claim(workloads, args.claim, spec)
    out["workloads"] = {**out.get("workloads", {}), **workloads}
    args.out.write_text(json.dumps(out, indent=1, ensure_ascii=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
