"""The benchmark's checks must bite: outputs a hair off the numpy oracle are
reported as failed operations, and the program's real outputs pass.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import subprocess
import sys

import pytest

import oracle
import run
import workloads
from conftest import BENCH

SMALL = {"trials": 6, "n": [8], "plans": list(workloads.PLANS), "v_ratios": [0.25, 0.45]}


def small_campaign():
    return workloads.CampaignWorkload(SMALL, stride=5, seed_base=11, warm_axes=SMALL)


def tampered(workload, tamper):
    """The workload with `tamper` applied to every operation's output."""

    class Tampered:
        campaign = workload.campaign

        def round_ops(self, index):
            for op in workload.round_ops(index):
                yield workloads.Op(run=lambda op=op: tamper(op.run()), check=op.check)

    return Tampered()


def with_rows(report, rows):
    return dataclasses.replace(report, rows=tuple(rows))


def move_theta(report):
    rows = list(report.rows)
    rows[-1] = dataclasses.replace(rows[-1], theta=rows[-1].theta + 1e-6)
    return with_rows(report, rows)


def swap_bound_values(report):
    rows = list(report.rows)
    i, j = (k for k, row in enumerate(rows) if row.bound_name in ("log", "sin2theta"))
    rows[i], rows[j] = (
        dataclasses.replace(rows[i], bound_value=rows[j].bound_value),
        dataclasses.replace(rows[j], bound_value=rows[i].bound_value),
    )
    return with_rows(report, rows)


def drop_row(report):
    return with_rows(report, report.rows[:-1])


def run_round(workload):
    loop = run.Loop(workload)
    loop.round(0)
    return loop


def test_program_trials_pass():
    loop = run_round(small_campaign())
    assert loop.attempted == SMALL["trials"]
    assert loop.failed == 0, loop.problems


@pytest.mark.parametrize("tamper", [move_theta, swap_bound_values, drop_row])
def test_tampered_trials_fail(tamper):
    loop = run_round(tampered(small_campaign(), tamper))
    assert loop.attempted == SMALL["trials"]
    assert loop.failed == SMALL["trials"]


def test_moved_report_theta_fails():
    workload = small_campaign()
    loop = run_round(
        tampered(workload, lambda r: dataclasses.replace(r, theta=r.theta + 1e-6))
    )
    assert loop.failed == SMALL["trials"]


def test_broken_theorem_fails():
    # A bound value lowered below the measured angle, with its margin
    # recomputed to match: consistent rows, but the theorem fails.
    def lower_log(report):
        rows = []
        for row in report.rows:
            if row.bound_name == "log":
                measured = row.bound_value - row.margin
                row = dataclasses.replace(row, bound_value=measured / 2, margin=-measured / 2)
            rows.append(row)
        return with_rows(report, rows)

    loop = run_round(tampered(small_campaign(), lower_log))
    assert loop.failed == SMALL["trials"]


class FewDraws(workloads.BlockLemmaWorkload):
    def round_ops(self, index):
        ops = super().round_ops(index)
        for _ in range(27):
            yield next(ops)
        ops.close()


def test_block_draws_pass():
    loop = run_round(FewDraws(7000))
    assert (loop.attempted, loop.failed) == (27, 0), loop.problems


@pytest.mark.parametrize("position", [0, 1, 2])
def test_block_triple_off_by_1e6_fails(position):
    def nudge(triple):
        triple = list(triple)
        triple[position] += 1e-6
        return tuple(triple)

    loop = run_round(tampered(FewDraws(7000), nudge))
    assert (loop.attempted, loop.failed) == (27, 27)


def test_block_oracle_matches_exact_family():
    # V with spectrum {0, x, y, y} against the first two coordinates gives
    # exactly (x, x, 2y); the oracle must reproduce it.
    import numpy as np

    x, y = 1.0, 0.75
    v = np.array([[y, 0, 0, 0], [0, x / 2, x / 2, 0], [0, x / 2, x / 2, 0], [0, 0, 0, y]])
    q = np.diag([1.0, 1.0, 0.0, 0.0])
    assert oracle.block_triple(v, q) == pytest.approx((x, x, 2 * y), abs=1e-14)
    assert oracle.check_block(v, q, (x, x, 2 * y)) == []


def test_kappa_matches_program():
    from specangles.bounds import constants

    assert oracle.KAPPA == pytest.approx(constants().kappa, abs=1e-15)


def test_warm_up_rows_identical_across_processes():
    probe = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), "block-lemma", "3"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    _, digest = workloads.setup("block-lemma", 3)
    assert json.loads(probe.stdout)["digest"] == digest


def traced_round(workload):
    import tracing

    tracer = tracing.Tracer()
    loop = run.Loop(workload, tracer=tracer)
    tracer.install()
    try:
        loop.round(0)
    finally:
        tracer.restore()
    metrics, _ = tracing.layer_metrics(tracer.spans, loop.attempted, workload.campaign)
    return loop, {name: value for name, (value, _) in metrics.items()}


def test_trace_counts_kernel_calls_where_they_happen():
    from specangles import campaign, core

    originals = (core.jacobi_sweeps, campaign.eigh_many, campaign.random_instance)
    loop, metrics = traced_round(small_campaign())
    assert loop.failed == 0
    assert (core.jacobi_sweeps, campaign.eigh_many, campaign.random_instance) == originals
    # Gram-based plans: Gram matrix, [A, V], path, angles; rank-one: no Gram.
    assert metrics["jacobi.calls_per_op"] == pytest.approx((4 * 4 + 2 * 3) / 6)
    assert metrics["instances.kernel_calls_per_op"] == pytest.approx((4 * 2 + 2 * 1) / 6)
    assert metrics["geometry.psd_block_bounds_kernel_calls"] == 0.0
    assert metrics["jacobi.ms_per_op"] > 0.0 and metrics["jacobi.sweeps_per_matrix"] >= 1.0


def test_trace_counts_block_lemma_solves():
    loop, metrics = traced_round(FewDraws(7000))
    assert loop.failed == 0
    assert metrics["geometry.psd_block_bounds_kernel_calls"] == 5.0
    assert metrics["jacobi.calls_per_op"] == 5.0
    # inputs are drawn before the round: their PortableRng calls are no op's
    assert metrics["rng.ms_per_op"] == 0.0
