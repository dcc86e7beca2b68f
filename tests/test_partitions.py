"""Step partitions, the descent optimizer, and projector chain walks."""

import math

import numpy as np
import pytest

from specangles import (
    C_CRIT_SEM,
    N_eval,
    PerturbationInstance,
    SymmetricMatrix,
    angle_reports,
    chain_demo,
    constants,
    interleaved_plan,
    make_plan,
    omega_component,
    optimize,
    random_instance,
    riemann_limit_check,
)
from specangles.partitions import LAMBDA_MAX

FROZEN_HALF_ASIN_PI_4 = 0.45166955538325637
FROZEN_QUARTER_PI_LOG_2 = 0.5443965225759005  # (pi/4) * log 2


class TestMakePlan:
    def test_empty_plan_represents_zero(self):
        plan = make_plan(0.0, ())
        assert plan.lambdas == ()
        assert plan.objective == 0.0

    def test_empty_plan_with_positive_x_rejected(self):
        with pytest.raises(ValueError):
            make_plan(0.3, ())

    def test_single_step(self):
        plan = make_plan(0.5, [0.5])
        assert plan.objective == pytest.approx(FROZEN_HALF_ASIN_PI_4, abs=1e-15)

    def test_objective_is_half_sum_of_arcsines(self):
        lams = (0.2, 0.375)
        x = 1.0 - (1.0 - 0.2) * (1.0 - 0.375)
        plan = make_plan(x, lams)
        expected = 0.5 * sum(math.asin(math.pi * v / 2.0) for v in lams)
        assert plan.objective == pytest.approx(expected, abs=1e-14)

    def test_step_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_plan(0.5, [0.7, -0.4])
        with pytest.raises(ValueError):
            make_plan(0.1, [-0.1])

    def test_product_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_plan(0.5, [0.1, 0.1])

    def test_small_drift_repaired_exactly(self):
        lam = 1.0 - math.sqrt(0.6)
        plan = make_plan(0.4, [lam + 3e-9, lam])
        product = math.prod(1.0 - v for v in plan.lambdas)
        assert abs(product - 0.6) < 1e-12

    def test_repair_cannot_leave_range(self):
        # both steps pinned at the cap and the target asking for a hair more:
        # the initial product passes the coarse gate but exact repair would
        # need to exceed 2/pi, so the plan must be rejected
        r = (1.0 - LAMBDA_MAX) * 0.7
        x = 1.0 - r * (1.0 - 5e-9)
        with pytest.raises(ValueError, match="not exactly feasible"):
            make_plan(x, [LAMBDA_MAX, 0.3])

    def test_x_domain(self):
        with pytest.raises(ValueError):
            make_plan(1.0, [0.5])
        with pytest.raises(ValueError):
            make_plan(-0.1, [0.1])


class TestOptimize:
    def test_zero_is_trivial(self):
        assert optimize(0.0).lambdas == ()

    def test_domain(self):
        with pytest.raises(ValueError):
            optimize(-0.01)
        with pytest.raises(ValueError):
            optimize(C_CRIT_SEM + 1e-6)

    def test_matches_closed_form_across_pieces(self):
        # one probe inside each piece of the closed-form envelope plus the
        # endpoint, all far tighter than the acceptance tolerance
        k = constants().kappa
        for x in (0.05, 0.4, 0.6, 0.63, 0.7, 0.84, 0.9, C_CRIT_SEM):
            plan = optimize(x)
            assert plan.objective == pytest.approx(N_eval(x / 2.0, k), abs=1e-7)

    def test_never_beats_the_infimum(self):
        k = constants().kappa
        for x in np.linspace(0.02, C_CRIT_SEM, 29):
            x = float(x)
            assert optimize(x).objective >= N_eval(x / 2.0, k) - 1e-9

    def test_endpoint_reaches_right_angle(self):
        plan = optimize(C_CRIT_SEM)
        assert plan.objective == pytest.approx(math.pi / 2, abs=1e-9)
        assert len(plan.lambdas) == 3

    def test_part_count_grows_with_x(self):
        assert len(optimize(0.3).lambdas) == 1
        assert len(optimize(0.7).lambdas) == 2
        assert len(optimize(0.9).lambdas) == 3

    def test_restricting_parts_costs_angle(self):
        # at x = 0.84 two parts are genuinely worse than three
        k = constants().kappa
        gap = optimize(0.84, n_max=2).objective - N_eval(0.42, k)
        assert gap > 0.02

    def test_deterministic(self):
        assert optimize(0.77).lambdas == optimize(0.77).lambdas

    def test_steps_sorted_and_in_range(self):
        plan = optimize(0.88)
        assert all(b <= a for a, b in zip(plan.lambdas, plan.lambdas[1:]))
        assert all(0.0 <= v <= LAMBDA_MAX for v in plan.lambdas)


def sharpness_instance(v: float) -> PerturbationInstance:
    s = math.sqrt(1.0 - v * v)
    a = SymmetricMatrix.diagonal([-0.5, 0.5])
    w = SymmetricMatrix(
        np.array(
            [
                [v * (v + 1.0) / 2.0, v * s / 2.0],
                [v * s / 2.0, v * (1.0 - v) / 2.0],
            ]
        )
    )
    return PerturbationInstance.build(a, w, (0,))


class TestChainDemo:
    def test_single_step_recovers_full_angle(self):
        v = 0.6
        chain = chain_demo(sharpness_instance(v), (0.0, 1.0))
        assert chain.total_angle == pytest.approx(0.5 * math.asin(v), abs=1e-12)
        assert chain.lambdas == pytest.approx((v,), abs=1e-12)
        assert chain.local_caps[0] == pytest.approx(
            0.5 * math.asin(math.pi * v / 2.0), abs=1e-12
        )

    def test_refined_grid_structure(self):
        inst = sharpness_instance(0.5)
        grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        chain = chain_demo(inst, grid)
        assert len(chain.per_step_angles) == 4
        for j in range(4):
            lam = 0.25 * inst.v_norm / (inst.d - grid[j] * inst.v_norm)
            assert chain.lambdas[j] == pytest.approx(lam, abs=1e-14)
            assert chain.local_caps[j] == 0.5 * math.asin(math.pi * chain.lambdas[j] / 2.0)
            assert chain.per_step_angles[j] <= chain.local_caps[j] + 1e-8
        assert chain.total_angle <= math.fsum(chain.per_step_angles) + 1e-10

    def test_two_kernel_calls_same_bits(self, kernel_calls):
        # one stacked path solve and one stacked solve of the five 4 x 4
        # basis products; both kernels give each matrix the same bits alone
        # or in a stack, so the plan matches a walk that solves every point
        # and every pair of bases on its own
        inst = random_instance(8, interleaved_plan(8), 0.5, seed=12)
        grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        kernel_calls.clear()
        chain = chain_demo(inst, grid)
        assert kernel_calls == [("two-sided", (4, 8, 8)), ("one-sided", (5, 4, 4))]
        bases = [omega_component(inst, t).bases for t in grid]
        steps = tuple(
            angle_reports([(s, t)])[0].max_angle for s, t in zip(bases, bases[1:])
        )
        assert chain.per_step_angles == steps
        assert chain.total_angle == angle_reports([(bases[0], bases[-1])])[0].max_angle

    def test_repeated_grid_point_is_solved_once(self, kernel_calls):
        # t = 0.5 appears twice but is solved once; the zero step's bases are
        # bit-identical, so only three 4 x 4 products are solved
        inst = random_instance(8, interleaved_plan(8), 0.5, seed=12)
        kernel_calls.clear()
        chain = chain_demo(inst, (0.0, 0.5, 0.5, 1.0))
        assert kernel_calls == [("two-sided", (2, 8, 8)), ("one-sided", (3, 4, 4))]
        assert chain.per_step_angles[1] == 0.0

    def test_oversized_step_has_no_cap(self):
        chain = chain_demo(sharpness_instance(0.9), (0.0, 1.0))
        assert chain.local_caps == (None,)

    def test_duplicate_grid_points_are_zero_steps(self):
        chain = chain_demo(sharpness_instance(0.4), (0.0, 0.5, 0.5, 1.0))
        assert chain.lambdas[1] == 0.0
        assert chain.per_step_angles[1] == pytest.approx(0.0, abs=1e-9)

    def test_grid_validation(self):
        inst = sharpness_instance(0.4)
        with pytest.raises(ValueError):
            chain_demo(inst, (0.1, 1.0))
        with pytest.raises(ValueError):
            chain_demo(inst, (0.0, 0.9))
        with pytest.raises(ValueError):
            chain_demo(inst, (0.0, 0.7, 0.3, 1.0))
        with pytest.raises(ValueError):
            chain_demo(inst, (0.0,))


class TestRiemannLimit:
    def test_uniform_grid_converges_to_log_integral(self):
        fine = riemann_limit_check(0.5, 4096)
        assert abs(fine - FROZEN_QUARTER_PI_LOG_2) < 1e-3

    def test_error_shrinks_with_refinement(self):
        coarse = abs(riemann_limit_check(0.5, 64) - FROZEN_QUARTER_PI_LOG_2)
        fine = abs(riemann_limit_check(0.5, 8192) - FROZEN_QUARTER_PI_LOG_2)
        assert fine < coarse / 16

    def test_single_step_closed_form(self):
        assert riemann_limit_check(0.5, 1) == pytest.approx(
            FROZEN_HALF_ASIN_PI_4, abs=1e-15
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            riemann_limit_check(1.0, 4)
        with pytest.raises(ValueError):
            riemann_limit_check(0.5, 0)
