"""Spans around the calls into each specangles layer, kept in memory.

`Tracer.install()` replaces each traced function at the name its callers look
it up by (`from x import y` binds `y` in every importing module, so one
function can need several wrappers) and `Tracer.restore()` puts the originals
back. A span records its name, start, end, the span open when it started, and
for kernel calls the stack shape and sweeps done. Layer metrics are computed
from the spans after the run; self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import specangles.bounds as bounds
import specangles.campaign as campaign
import specangles.core as core
import specangles.geometry as geometry
from specangles.bounds import PerturbationInstance
from specangles.rng import PortableRng

# (object, attribute, span name): every traced function at every name the
# program's callers look it up by.
TRACED = (
    (core, "jacobi_sweeps", "jacobi"),
    (core, "eigh_many", "core.eigh_many"),
    (bounds, "eigh_many", "core.eigh_many"),
    (campaign, "eigh_many", "core.eigh_many"),
    (geometry, "eigh_many", "core.eigh_many"),
    (bounds, "spectral_projector", "core.spectral_projector"),
    (PortableRng, "raw", "rng.raw"),
    (PortableRng, "uniforms", "rng.uniforms"),
    (PortableRng, "gaussians", "rng.gaussians"),
    (PortableRng, "uniform_in", "rng.uniform_in"),
    (PortableRng, "unit_vector", "rng.unit_vector"),
    (PortableRng, "haar_orthogonal", "rng.haar_orthogonal"),
    (campaign, "random_instance", "instances.random_instance"),
    (campaign, "rank_one_instance", "instances.rank_one_instance"),
    (campaign, "convex_plan", "instances.convex_plan"),
    (campaign, "interleaved_plan", "instances.interleaved_plan"),
    (PerturbationInstance, "build", "bounds.build"),
    (campaign, "omega_component", "bounds.omega_component"),
    (campaign, "enclosure_check", "bounds.enclosure_check"),
    (campaign, "angle_reports", "geometry.angle_reports"),
    (geometry, "psd_block_bounds", "geometry.psd_block_bounds"),
    (geometry, "block_split", "geometry.block_split"),
)

# Classical cost of one cyclic Jacobi sweep on an n x n matrix: n(n-1)/2
# rotations, each updating two rows, two columns and two eigenvector columns
# at 6n flops apiece. Computed from n and the sweeps done, not counted.
def sweep_flop(n: int) -> int:
    return 9 * n * n * (n - 1)


NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(index)
        return index

    def close(self, index: int, info=None):
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[INFO] = info
        self._stack.pop()

    def _wrap(self, name: str, fn):
        kernel = name == "jacobi"

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index)
                raise
            info = None
            if kernel:
                stack, sweeps = args[0].shape, result[0]
                info = (stack[0], stack[-1], int(sweeps.sum()))
            self.close(index, info)
            return result

        return traced

    def install(self):
        for owner, attr, name in TRACED:
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, staticmethod(self._wrap(name, getattr(owner, attr))))
            else:
                setattr(owner, attr, self._wrap(name, raw))

    def restore(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def op_spans(spans: list[list]) -> list[list]:
    """The spans inside operations (root spans named "op"), parents
    renumbered; calls made while building a round's inputs are dropped."""
    kept: dict[int, int] = {}
    out = []
    for index, span in enumerate(spans):
        if span[NAME] == "op" or span[PARENT] in kept:
            kept[index] = len(out)
            out.append([span[NAME], span[START], span[END], kept.get(span[PARENT], -1), span[INFO]])
    return out


def layer_metrics(spans: list[list], ops: int, is_campaign: bool) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of `ops` operations whose root spans
    are named "op"; also a per-n table of kernel work."""
    spans = op_spans(spans)
    child_time = defaultdict(float)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]

    def ancestors(index):
        parent = spans[index][PARENT]
        while parent >= 0:
            yield spans[parent][NAME]
            parent = spans[parent][PARENT]

    def inclusive(prefix):
        # Time of the outermost spans of a layer, so nested spans of the
        # same layer are not counted twice.
        return sum(
            span[END] - span[START]
            for i, span in enumerate(spans)
            if span[NAME].startswith(prefix)
            and not any(name.startswith(prefix) for name in ancestors(i))
        )

    def self_time(name):
        return sum(
            span[END] - span[START] - child_time[i]
            for i, span in enumerate(spans)
            if span[NAME] == name
        )

    kernel = [(i, span) for i, span in enumerate(spans) if span[NAME] == "jacobi"]
    matrices = sum(span[INFO][0] for _, span in kernel)
    sweeps = sum(span[INFO][2] for _, span in kernel)
    flop = sum(sweep_flop(span[INFO][1]) * span[INFO][2] for _, span in kernel)
    kernel_s = sum(span[END] - span[START] for _, span in kernel)
    in_instances = sum(
        any(name.startswith("instances.") for name in ancestors(i)) for i, _ in kernel
    )
    block_calls = sum(span[NAME] == "geometry.psd_block_bounds" for span in spans)
    in_block = sum(
        any(name == "geometry.psd_block_bounds" for name in ancestors(i)) for i, _ in kernel
    )
    ms = 1e3 / ops
    metrics = {
        "jacobi.calls_per_op": (len(kernel) / ops, "count"),
        "jacobi.matrices_per_op": (matrices / ops, "count"),
        "jacobi.sweeps_per_matrix": (sweeps / matrices if matrices else 0.0, "count"),
        "jacobi.ms_per_op": (kernel_s * ms, "ms"),
        "jacobi.gflop_per_op": (flop / 1e9 / ops, "GFLOP"),
        "jacobi.gflops": (flop / 1e9 / kernel_s if kernel_s else 0.0, "GFLOP/s"),
        "core.self_ms_per_op": (self_time("core.eigh_many") * ms, "ms"),
        "core.spectral_projector_ms_per_op": (inclusive("core.spectral_projector") * ms, "ms"),
        "rng.ms_per_op": (inclusive("rng.") * ms, "ms"),
        "instances.ms_per_op": (inclusive("instances.") * ms, "ms"),
        "instances.kernel_calls_per_op": (in_instances / ops, "count"),
        "bounds.build_ms_per_op": (inclusive("bounds.build") * ms, "ms"),
        "bounds.omega_component_ms_per_op": (inclusive("bounds.omega_component") * ms, "ms"),
        "bounds.enclosure_check_ms_per_op": (inclusive("bounds.enclosure_check") * ms, "ms"),
        "geometry.angle_reports_ms_per_op": (inclusive("geometry.angle_reports") * ms, "ms"),
        "geometry.psd_block_bounds_ms_per_op": (inclusive("geometry.psd_block_bounds") * ms, "ms"),
        "geometry.block_split_ms_per_op": (inclusive("geometry.block_split") * ms, "ms"),
        "geometry.psd_block_bounds_kernel_calls": (
            in_block / block_calls if block_calls else 0.0,
            "count",
        ),
        "campaign.trial_self_ms_per_op": ((self_time("op") if is_campaign else 0.0) * ms, "ms"),
    }
    per_n: dict[int, dict] = {}
    for _, span in kernel:
        k, n, done = span[INFO]
        row = per_n.setdefault(n, {"calls": 0, "matrices": 0, "sweeps": 0, "ms": 0.0})
        row["calls"] += 1
        row["matrices"] += k
        row["sweeps"] += done
        row["ms"] += (span[END] - span[START]) * 1e3
    return metrics, dict(sorted(per_n.items()))
