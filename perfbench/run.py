"""specangles benchmark: one workload per run, a closed loop of one operation
at a time, every output checked against numpy.

    python3 perfbench/run.py --workload campaign-large-n --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. With `--trace 0` the run reports the end-to-end metrics; with
`--trace 1` it runs each round untraced and then traced and reports the
per-layer metrics. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the line before it is the
environment block. Both, and the spans of a traced run, are also written
under `perfbench/out/`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 3  # set-up is timed in this many fresh processes; the median counts
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def require_program():
    """Put the checkout's `src/` first on the import path, or exit 1 without
    a result when the checkout holds no program."""
    if not (SRC / "specangles" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'specangles'}; run from a source checkout")
    sys.path[:0] = [str(SRC), str(HERE)]


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as err:  # numpy builds differ in what they report
        blas = f"unknown ({err.__class__.__name__})"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "specangles").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_env": {
            key: os.environ.get(key)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[str]]:
    """Set-up seconds and warm-up digests of fresh processes, one at a time."""
    times, digests = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        times.append(probe["setup_s"])
        digests.append(probe["digest"])
    return times, digests


class Loop:
    """The closed loop: one operation at a time, timed alone; its check runs
    after the clock stops."""

    def __init__(self, workload, tracer=None, keep_reports=False):
        self.workload = workload
        self.tracer = tracer
        self.keep_reports = keep_reports
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rows_digests: list[str] = []
        self.rows_jsonl_s: list[float] = []
        self.rows_bytes: list[int] = []

    def round(self, index: int):
        tracer = self.tracer
        reports = []
        for op in self.workload.round_ops(index):
            self.attempted += 1
            span = tracer.open("op") if tracer else None
            started = time.perf_counter()
            try:
                out = op.run()
            except Exception as err:  # the program failed this operation
                out, problems = None, [f"operation raised {err!r}"]
            else:
                problems = None
            self.times.append(time.perf_counter() - started)
            if tracer:
                tracer.close(span)
            problems = problems or op.check(out)
            if problems:
                self.failed += 1
                self.problems.extend(problems[:3])
            if self.keep_reports and out is not None:
                reports.append(out)
        if self.keep_reports and self.workload.campaign:
            from workloads import digest, rows_jsonl

            started = time.perf_counter()
            text = rows_jsonl(reports)
            self.rows_jsonl_s.append(time.perf_counter() - started)
            self.rows_bytes.append(len(text.encode()))
            self.rows_digests.append(digest(text))

    def until(self, seconds: float, min_ops: int) -> int:
        """Whole rounds until the timed operations add up to `seconds` and
        number at least `min_ops`; returns the rounds run."""
        rounds = 0
        while rounds == 0 or sum(self.times) < seconds or len(self.times) < min_ops:
            self.round(rounds)
            rounds += 1
        return rounds


def end_to_end(args, workloads):
    setup_times, digests = measure_setup(args.workload, args.seed)
    workload, own_digest = workloads.setup(args.workload, args.seed)
    loop = Loop(workload)
    rounds = loop.until(args.seconds, workload.min_ops)
    times = loop.times
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    p50, p90 = deciles[4], deciles[8]
    beyond = sum(t > p90 for t in times)
    mismatched = sum(d != own_digest for d in digests)
    if mismatched:
        loop.problems.append(f"warm-up rows differ between processes in {mismatched} of {len(digests)}")
    if beyond < 10:
        loop.problems.append(f"only {beyond} operations beyond the 90th percentile")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "rounds": rounds,
        "ops": len(times),
        "measured_s": sum(times),
        "ops_beyond_p90": beyond,
        "setup_s_each": setup_times,
        "warm_up_digest": own_digest,
    }
    return loop, mismatched == 0 and beyond >= 10, metrics, detail


def traced(args, workloads):
    import tracing

    workload, _ = workloads.setup(args.workload, args.seed)
    plain = Loop(workload, keep_reports=True)
    tracer = tracing.Tracer()
    loop = Loop(workload, tracer=tracer, keep_reports=True)
    # Each round runs untraced and then traced, back to back, so that both
    # passes see the machine in the same state.
    rounds = 0
    while rounds == 0 or sum(plain.times) < args.seconds:
        plain.round(rounds)
        tracer.install()
        try:
            loop.round(rounds)
        finally:
            tracer.restore()
        rounds += 1
    metrics, per_n = tracing.layer_metrics(tracer.spans, len(loop.times), workload.campaign)
    rows_ms = statistics.median(loop.rows_jsonl_s) * 1e3 if loop.rows_jsonl_s else 0.0
    rows_bytes = statistics.mean(loop.rows_bytes) if loop.rows_bytes else 0.0
    metrics["campaign.rows_jsonl_ms_per_run"] = (rows_ms, "ms")
    metrics["campaign.rows_bytes_per_run"] = (rows_bytes, "bytes")
    metrics["trace.overhead_s"] = (sum(loop.times) - sum(plain.times), "s")
    same_rows = plain.rows_digests == loop.rows_digests
    if not same_rows:
        loop.problems.append("rows of the traced rounds differ from the untraced rounds")
    loop.attempted += plain.attempted
    loop.failed += plain.failed
    loop.problems.extend(plain.problems)
    tracer.write(str(OUT / f"spans-{args.workload}-{args.seed}.jsonl"))
    detail = {
        "rounds": rounds,
        "ops_per_pass": len(loop.times),
        "untraced_s": sum(plain.times),
        "traced_s": sum(loop.times),
        "spans": len(tracer.spans),
        "kernel_per_n": per_n,
    }
    return loop, same_rows, metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    require_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    env = environment()
    OUT.mkdir(exist_ok=True)
    run = traced if args.trace else end_to_end
    loop, run_ok, metrics, detail = run(args, workloads)
    for problem in loop.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    result = {
        "correct": run_ok,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "detail": detail, "result": result,
              "op_s": loop.times}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps({"environment": env, "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
