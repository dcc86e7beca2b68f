"""The benchmark's hooks into the program: its tracer wraps the program's
functions at the names their callers look them up by, and its campaign
workload captures each trial's instance at those names. Every such name must
exist, and a run through them must record every span and check every trial,
or a benchmark run fails while tier-1 stays green."""

import importlib.util
import sys
from pathlib import Path

from specangles import campaign, geometry
from specangles.campaign import PLAN_NAMES, CampaignConfig, run_campaign

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Every span a campaign and a block-lemma draw record. The tracer also wraps
# core.spectral_projector and geometry.block_split, which neither calls.
RECORDED_SPANS = {
    "bounds.build",
    "bounds.enclosure_check",
    "bounds.omega_component",
    "core.eigh_many",
    "geometry.angle_reports",
    "geometry.psd_block_bounds",
    "instances.convex_plan",
    "instances.interleaved_plan",
    "instances.random_instance",
    "instances.rank_one_instance",
    "jacobi",
    "rng.gaussians",
    "rng.haar_orthogonal",
    "rng.raw",
    "rng.uniform_in",
    "rng.uniforms",
    "rng.unit_vector",
}


def load(name, monkeypatch):
    """perfbench/<name>.py as the top-level module `name`, as the benchmark
    imports it, for this test only and without writing bytecode beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def load_workloads(monkeypatch):
    load("oracle", monkeypatch)
    return load("workloads", monkeypatch)


def assert_unwrapped():
    # the wrappers are gone once a run ends, so later tests call the program
    for name in ("random_instance", "rank_one_instance"):
        assert getattr(campaign, name).__module__ == "specangles.instances"


def test_every_traced_name_resolves(monkeypatch):
    traced = load("tracing", monkeypatch).TRACED
    assert traced
    for owner, attr, span in traced:
        # classes are patched through their own __dict__, modules by attribute
        found = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        assert found, f"{owner.__name__}.{attr} (span {span}) does not exist"
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr} is not callable"


def test_tracer_records_every_layer(monkeypatch):
    tracing = load("tracing", monkeypatch)
    workloads = load_workloads(monkeypatch)
    config = CampaignConfig.from_dict(
        {"trials": 4, "n": 6, "plans": list(PLAN_NAMES), "v_ratios": [0.5], "seed_base": 3}
    )
    v, q = workloads.block_draw(5, 7000)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        list(run_campaign(config))
        geometry.psd_block_bounds(v, q)
    finally:
        tracer.restore()
    recorded = {span[tracing.NAME] for span in tracer.spans}
    assert RECORDED_SPANS <= recorded, sorted(RECORDED_SPANS - recorded)
    assert_unwrapped()


def test_workload_captures_and_checks_every_trial(monkeypatch):
    workloads = load_workloads(monkeypatch)
    axes = {"trials": 3, "n": [6], "plans": list(workloads.PLANS), "v_ratios": [0.5]}
    workload = workloads.CampaignWorkload(axes, 2, 11, axes)
    ops = workload.round_ops(0)
    problems, done = [], 0
    try:
        for op in ops:
            problems += op.check(op.run())
            done += 1
    finally:
        ops.close()
    assert done == 3
    assert problems == []
    assert_unwrapped()
