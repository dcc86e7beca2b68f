"""Time one fresh set-up of a workload: import specangles, build the
workload's inputs and run its warm-up. Prints {"setup_s", "digest"} as JSON.

    python3 perfbench/setup_probe.py <workload> <seed>

`run.py` starts this several times per run and reports the median.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

_, warm_digest = workloads.setup(sys.argv[1], int(sys.argv[2]))
elapsed = time.perf_counter() - STARTED
print(json.dumps({"setup_s": elapsed, "digest": warm_digest}))
