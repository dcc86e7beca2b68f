"""Perturbation bounds, critical constants, and spectral enclosures.

Every closed-form value asserted here was frozen from an independent
computation (mpmath or a hand derivation) before the implementation existed;
the literals are the oracle, not a snapshot of the code under test.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specangles import (
    C_CRIT,
    C_CRIT_SEM,
    IntervalSet,
    LOG_THRESHOLD,
    N_eval,
    NoBoundKnownError,
    PerturbationInstance,
    SymmetricMatrix,
    angle_bounds,
    angle_reports,
    bound_corollary,
    bound_favorable,
    bound_generic,
    bound_log,
    bound_sin2theta,
    constants,
    continuity_modulus,
    convexity_condition,
    eigh,
    enclosure_check,
    kappa_solve,
    omega_component,
    shift_set,
    truncate_digits,
)
from specangles.bounds import (
    INTERLEAVED,
    KAPPA_SUP,
    N_BREAK_1,
    N_BREAK_2,
    _shifted_margins,
)

# Frozen oracles.
FROZEN_C_CRIT_SEM = 0.9096799222654122
FROZEN_C_CRIT = 0.4548399611327061
FROZEN_LOG_THRESHOLD = 0.8646647167633873
FROZEN_KAPPA = 0.4098623087698866
FROZEN_HALF_ASIN_PI_4 = 0.45166955538325637  # (1/2) arcsin(pi/4)
FROZEN_N_AT_02 = 0.33969496337547544  # (1/2) arcsin(0.2 pi)
FROZEN_HALF_ASIN_06 = 0.3217505543966422  # (1/2) arcsin(0.6)


class TestConstants:
    def test_frozen_values(self):
        assert C_CRIT_SEM == pytest.approx(FROZEN_C_CRIT_SEM, abs=1e-15)
        assert C_CRIT == pytest.approx(FROZEN_C_CRIT, abs=1e-15)
        assert LOG_THRESHOLD == pytest.approx(FROZEN_LOG_THRESHOLD, abs=1e-15)
        assert C_CRIT_SEM == 2.0 * C_CRIT

    def test_closed_forms(self):
        assert C_CRIT_SEM == 1.0 - (1.0 - math.sqrt(3.0) / math.pi) ** 3
        assert LOG_THRESHOLD == 2.0 * math.sinh(1.0) / math.e
        assert N_BREAK_1 == pytest.approx(4.0 / (math.pi**2 + 4.0), abs=1e-16)
        assert N_BREAK_2 == pytest.approx(
            4.0 * (math.pi**2 - 2.0) / math.pi**4, abs=1e-16
        )
        assert KAPPA_SUP == pytest.approx(
            2.0 * (math.pi - 1.0) / math.pi**2, abs=1e-16
        )

    def test_constants_bundle_cached(self):
        assert constants() is constants()
        c = constants()
        assert c.c_crit == C_CRIT
        assert c.c_crit_sem == C_CRIT_SEM
        assert c.log_threshold == LOG_THRESHOLD
        assert c.kappa == pytest.approx(FROZEN_KAPPA, abs=1e-13)

    def test_truncation_never_rounds_up(self):
        assert truncate_digits(C_CRIT, 7) == "0.4548399"
        assert truncate_digits(C_CRIT_SEM, 7) == "0.9096799"
        assert truncate_digits(LOG_THRESHOLD, 5) == "0.86466"
        assert truncate_digits(0.9999999, 3) == "0.999"
        assert truncate_digits(-0.9999, 2) == "-0.99"
        assert truncate_digits(2.5, 4) == "2.5000"
        with pytest.raises(ValueError):
            truncate_digits(1.0, 0)

    @pytest.mark.parametrize(
        "x, digits, text",
        [
            (0.29, 2, "0.29"),
            (0.57, 2, "0.57"),
            (1.15, 2, "1.15"),
            (-0.29, 2, "-0.29"),
            (0.7, 1, "0.7"),
        ],
    )
    def test_truncation_reads_the_shortest_decimal(self, x, digits, text):
        # each binary value lies just below its decimal, and 0.29 * 100 rounds
        # to 28.999999999999996, which truncated to 0.28
        assert truncate_digits(x, digits) == text

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_truncation_refuses_non_finite_values(self, x):
        with pytest.raises(ValueError, match=f"x must be finite, got {x}"):
            truncate_digits(x, 3)

    @pytest.mark.parametrize("digits", [2.5, True])
    def test_truncation_refuses_non_integer_digits(self, digits):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            truncate_digits(0.123, digits)

    def test_truncation_takes_numpy_integer_digits(self):
        # 10**np.int64(20) wraps in int64; the digits must not
        assert truncate_digits(0.5, np.int64(20)) == "0.5" + "0" * 19

    @pytest.mark.parametrize("x, digits", [(0.123, 400), (1e10, 300)])
    def test_truncation_refuses_digits_past_the_float_range(self, x, digits):
        # 10**400 has no float value, and 1e10 * 10**300 overflows to inf
        with pytest.raises(ValueError, match=f"digits={digits} "):
            truncate_digits(x, digits)


class TestKappa:
    def test_frozen_root(self):
        assert kappa_solve() == pytest.approx(FROZEN_KAPPA, abs=5e-16)

    def test_lies_between_last_breakpoint_and_sup(self):
        k = kappa_solve()
        assert N_BREAK_2 < k < KAPPA_SUP

    def test_is_the_crossover_of_the_last_two_pieces(self):
        def piece3(x):
            return math.asin((math.pi / 2) * (1 - math.sqrt(1 - 2 * x)))

        def piece4(x):
            return 1.5 * math.asin((math.pi / 2) * (1 - (1 - 2 * x) ** (1 / 3)))

        k = kappa_solve()
        assert piece3(k - 0.02) < piece4(k - 0.02)
        assert piece4(k + 0.02) < piece3(k + 0.02)
        assert abs(piece3(k) - piece4(k)) < 1e-13


class TestNEval:
    def test_anchors(self):
        k = constants().kappa
        assert N_eval(0.0, k) == 0.0
        assert N_eval(0.2, k) == pytest.approx(FROZEN_N_AT_02, abs=1e-15)
        assert N_eval(0.25, k) == pytest.approx(FROZEN_HALF_ASIN_PI_4, abs=1e-15)
        # reaches pi/2 exactly at the right endpoint of the domain
        assert N_eval(C_CRIT, k) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_continuous_at_breakpoints(self):
        k = constants().kappa
        for b in (N_BREAK_1, N_BREAK_2, k):
            left = N_eval(math.nextafter(b, 0.0), k)
            right = N_eval(math.nextafter(b, 1.0), k)
            assert abs(left - right) < 1e-12

    def test_nondecreasing(self):
        k = constants().kappa
        xs = np.linspace(0.0, C_CRIT, 400)
        vals = [N_eval(float(x), k) for x in xs]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_domain_enforced(self):
        k = constants().kappa
        with pytest.raises(ValueError):
            N_eval(-1e-9, k)
        with pytest.raises(ValueError):
            N_eval(C_CRIT + 1e-9, k)

    def test_matches_brute_force_pair_minimum(self):
        # In the second piece the value must equal the true minimum over all
        # two-part splits with product constraint (1-u)(1-w) = 1-2x and both
        # parts in [0, 2/pi]. A dense grid is an independent oracle.
        k = constants().kappa
        lam_max = 2.0 / math.pi
        for x in (0.295, 0.305, 0.315):
            rem = 1.0 - 2.0 * x
            lo = max(0.0, 1.0 - rem / (1.0 - lam_max))
            u = np.linspace(lo, lam_max, 2_000_001)
            w = 1.0 - rem / (1.0 - u)
            ok = (w >= 0.0) & (w <= lam_max)
            obj = 0.5 * (
                np.arcsin(np.clip(math.pi * u[ok] / 2, -1, 1))
                + np.arcsin(np.clip(math.pi * w[ok] / 2, -1, 1))
            )
            assert N_eval(x, k) == pytest.approx(float(obj.min()), abs=1e-9)

    def test_never_above_feasible_closed_splits(self):
        # N is an infimum, so every feasible closed-form split dominates it.
        k = constants().kappa
        lam_max = 2.0 / math.pi
        for x in np.linspace(0.01, C_CRIT - 1e-6, 97):
            x = float(x)
            n_val = N_eval(x, k)
            if 2.0 * x <= lam_max:
                assert n_val <= 0.5 * math.asin(math.pi * x) + 1e-12
            lam2 = 1.0 - math.sqrt(1.0 - 2.0 * x)
            if lam2 <= lam_max:
                assert n_val <= math.asin(math.pi * lam2 / 2.0) + 1e-12
            lam3 = 1.0 - (1.0 - 2.0 * x) ** (1.0 / 3.0)
            if lam3 <= lam_max:
                assert n_val <= 1.5 * math.asin(math.pi * lam3 / 2.0) + 1e-12


class TestScalarBounds:
    def test_favorable_frozen_value(self):
        assert bound_favorable(0.6, 1.0) == pytest.approx(
            FROZEN_HALF_ASIN_06, abs=1e-15
        )
        assert bound_favorable(1.2, 2.0) == pytest.approx(
            FROZEN_HALF_ASIN_06, abs=1e-15
        )

    def test_favorable_stays_below_quarter_pi(self):
        assert bound_favorable(1.0 - 1e-12, 1.0) < math.pi / 4

    def test_favorable_domain(self):
        with pytest.raises(ValueError):
            bound_favorable(1.0, 1.0)
        with pytest.raises(ValueError):
            bound_favorable(0.5, 0.0)
        with pytest.raises(ValueError):
            bound_favorable(-0.1, 1.0)

    def test_sin2theta_both_geometries(self):
        assert bound_sin2theta(0.3, 1.0, convex=True) == pytest.approx(0.3)
        assert bound_sin2theta(0.3, 1.0, convex=False) == pytest.approx(
            math.pi * 0.15
        )
        assert bound_sin2theta(0.0, 1.0, convex=False) == 0.0
        with pytest.raises(ValueError):
            bound_sin2theta(0.3, -1.0, convex=True)

    def test_corollary_frozen_value(self):
        assert bound_corollary(0.5, 1.0) == pytest.approx(
            FROZEN_HALF_ASIN_PI_4, abs=1e-15
        )

    def test_corollary_endpoint_and_domain(self):
        assert bound_corollary(2.0 / math.pi, 1.0) == pytest.approx(
            math.pi / 4, abs=1e-12
        )
        with pytest.raises(ValueError):
            bound_corollary(2.0 / math.pi + 1e-9, 1.0)

    def test_generic_equals_n_at_half_ratio(self):
        assert bound_generic(0.4, 1.0) == pytest.approx(FROZEN_N_AT_02, abs=1e-15)

    def test_generic_open_problem_regime_raises(self):
        with pytest.raises(NoBoundKnownError):
            bound_generic(C_CRIT_SEM, 1.0)
        with pytest.raises(NoBoundKnownError):
            bound_generic(0.95, 1.0)
        just_below = math.nextafter(C_CRIT_SEM, 0.0)
        assert bound_generic(just_below, 1.0) <= math.pi / 2 + 1e-12

    def test_generic_agrees_with_corollary_on_first_piece(self):
        # For ||V||/d <= 2*N_BREAK_1 the piecewise bound and the arcsin
        # corollary are the same function.
        for ratio in np.linspace(0.01, 2 * N_BREAK_1 - 1e-9, 23):
            ratio = float(ratio)
            assert bound_generic(ratio, 1.0) == pytest.approx(
                bound_corollary(ratio, 1.0), abs=1e-14
            )

    def test_log_frozen_value_and_flag(self):
        lb = bound_log(0.5, 1.0)
        assert lb.value == pytest.approx(0.5443965225759005, abs=1e-15)
        assert lb.below_half_pi
        # at the threshold ratio the value is exactly pi/2
        at = bound_log(LOG_THRESHOLD, 1.0)
        assert at.value == pytest.approx(math.pi / 2, abs=1e-12)
        assert not at.below_half_pi
        assert not bound_log(LOG_THRESHOLD + 1e-6, 1.0).below_half_pi
        assert bound_log(LOG_THRESHOLD - 1e-6, 1.0).below_half_pi

    def test_log_domain(self):
        with pytest.raises(ValueError):
            bound_log(1.0, 1.0)

    @pytest.mark.parametrize("bound", [bound_favorable, bound_log])
    @pytest.mark.parametrize("v_norm", [1.0, 1.5])
    def test_closed_gap_message(self, bound, v_norm):
        # asin and log would fail on their own past ||V|| = d, with other
        # errors; the hypothesis check names what was violated
        message = re.escape("hypothesis 0 <= ||V|| < d violated")
        with pytest.raises(ValueError, match=f"^{message}$"):
            bound(v_norm, 1.0)

    @given(st.floats(min_value=1e-6, max_value=0.99), st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_bounds_scale_invariant(self, ratio, d):
        # every bound depends on (||V||, d) only through the ratio
        v = ratio * d
        assert bound_favorable(v, d) == pytest.approx(bound_favorable(ratio, 1.0), rel=1e-12)
        assert bound_sin2theta(v, d, False) == pytest.approx(
            bound_sin2theta(ratio, 1.0, False), rel=1e-12
        )
        assert bound_log(v, d).value == pytest.approx(
            bound_log(ratio, 1.0).value, rel=1e-9
        )


class TestAngleBounds:
    # each hypothesis is tested at its own edge with ||V||/d exact (d = 1),
    # and each value must be bit-equal to its own bound function

    def test_corollary_edge(self):
        edge = 2.0 / math.pi
        assert angle_bounds(edge, 1.0, True)["corollary"] == bound_corollary(edge, 1.0)
        assert "corollary" not in angle_bounds(math.nextafter(edge, 2.0), 1.0, True)

    def test_generic_edge(self):
        below = math.nextafter(C_CRIT_SEM, 0.0)
        assert angle_bounds(below, 1.0, True)["generic"] == bound_generic(below, 1.0)
        assert "generic" not in angle_bounds(C_CRIT_SEM, 1.0, True)

    def test_unit_ratio_edge(self):
        below = math.nextafter(1.0, 0.0)
        assert angle_bounds(below, 1.0, True) == {
            "favorable": bound_favorable(below, 1.0),
            "log": bound_log(below, 1.0).value,
        }
        assert angle_bounds(1.0, 1.0, True) == {}

    def test_all_four_in_table_order(self):
        found = angle_bounds(0.3, 1.0, True)
        assert list(found) == ["favorable", "corollary", "generic", "log"]
        assert found["favorable"] == bound_favorable(0.3, 1.0)
        assert found["corollary"] == bound_corollary(0.3, 1.0)
        assert found["generic"] == bound_generic(0.3, 1.0)
        assert found["log"] == bound_log(0.3, 1.0).value

    def test_interleaved_geometry_has_no_favorable(self):
        found = angle_bounds(0.3, 1.0, False)
        assert list(found) == ["corollary", "generic", "log"]


class TestNonFiniteScales:
    # NaN fails every hypothesis comparison and inf passes some, so each
    # function refuses both in ||V|| and in d before reading any hypothesis
    BOUNDS = {
        "favorable": bound_favorable,
        "sin2theta": lambda v, d: bound_sin2theta(v, d, True),
        "corollary": bound_corollary,
        "generic": bound_generic,
        "log": bound_log,
        "continuity": lambda v, d: continuity_modulus(v, d, 0.0, 1.0),
        "angle_bounds": lambda v, d: angle_bounds(v, d, True),
    }
    BAD = [math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("name", BOUNDS)
    @pytest.mark.parametrize("v_norm, d", [(x, 1.0) for x in BAD] + [(0.5, x) for x in BAD])
    def test_refused(self, name, v_norm, d):
        with pytest.raises(ValueError, match="finite"):
            self.BOUNDS[name](v_norm, d)


class TestConvexityCondition:
    def test_separated_hulls(self):
        sigma = IntervalSet(((0.0, 1.0),))
        big = IntervalSet(((2.0, 3.0),))
        assert convexity_condition(sigma, big)

    def test_single_interleave_is_still_favorable(self):
        # one point inside the other hull is fine as long as one of the two
        # hulls stays clear
        sigma = IntervalSet(((2.0, 2.0),))
        big = IntervalSet(((0.0, 0.0), (4.0, 4.0)))
        assert convexity_condition(sigma, big)
        assert convexity_condition(big, sigma)

    def test_double_interleave_fails(self):
        sigma = IntervalSet(((-0.5, 0.0), (4.0, 4.0)))
        big = IntervalSet(((2.0, 2.0), (6.0, 6.5)))
        assert not convexity_condition(sigma, big)

    def test_rejects_touching_sets(self):
        with pytest.raises(ValueError):
            convexity_condition(
                IntervalSet(((0.0, 1.0),)), IntervalSet(((1.0, 2.0),))
            )


def sharpness_matrices(v: float):
    a = SymmetricMatrix.diagonal([-0.5, 0.5])
    s = math.sqrt(1.0 - v * v)
    w = SymmetricMatrix(
        np.array(
            [
                [v * (v + 1.0) / 2.0, v * s / 2.0],
                [v * s / 2.0, v * (1.0 - v) / 2.0],
            ]
        )
    )
    return a, w


class TestPerturbationInstance:
    @pytest.mark.parametrize("indices", [[0.9], [1.5, 2.7], [True], [np.float64(1.0)]])
    def test_non_integer_indices_refused_before_the_solve(self, kernel_calls, indices):
        a = SymmetricMatrix.diagonal([0.0, 2.0, 4.0])
        v = SymmetricMatrix(np.zeros((3, 3)))
        dec_a = eigh(a)
        kernel_calls.clear()
        with pytest.raises(TypeError, match="integer"):
            PerturbationInstance.build(a, v, indices)
        with pytest.raises(TypeError, match="integer"):
            PerturbationInstance.assemble(a, v, indices, dec_a, np.zeros(3))
        assert kernel_calls == []
        # numpy integers stay indices
        inst = PerturbationInstance.build(a, v, [np.int64(2), np.intp(0)])
        assert inst.sigma_indices == (0, 2) and type(inst.sigma_indices[0]) is int

    def test_derived_fields(self):
        a = SymmetricMatrix.diagonal([0.0, 1.0, 5.0, 6.0])
        v = SymmetricMatrix.diagonal([0.5, 0.0, 0.0, 0.0])
        inst = PerturbationInstance.build(a, v, (0, 1), label="demo")
        assert inst.d == pytest.approx(4.0)
        assert inst.v_norm == pytest.approx(0.5)
        assert inst.sigma_indices == (0, 1)
        assert inst.dec_a.eigenvalues[list(inst.sigma_indices)].tolist() == [0.0, 1.0]
        assert inst.geometry == "convex-separated"
        assert inst.label == "demo"

    def test_interleaved_geometry_detected(self):
        a = SymmetricMatrix.diagonal([0.0, 2.0, 4.0, 6.0])
        v = SymmetricMatrix(np.zeros((4, 4)))
        inst = PerturbationInstance.build(a, v, (0, 2))
        assert inst.geometry == INTERLEAVED
        assert inst.v_norm == 0.0

    def test_build_validations(self):
        a = SymmetricMatrix.diagonal([0.0, 1.0, 2.0])
        v = SymmetricMatrix(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            PerturbationInstance.build(a, SymmetricMatrix(np.zeros((4, 4))), (0,))
        with pytest.raises(ValueError):
            PerturbationInstance.build(a, v, ())
        with pytest.raises(ValueError):
            PerturbationInstance.build(a, v, (0, 1, 2))
        with pytest.raises(ValueError):
            PerturbationInstance.build(a, v, (0, 0))
        with pytest.raises(ValueError):
            PerturbationInstance.build(a, v, (3,))
        with pytest.raises(ValueError):
            PerturbationInstance.build(
                a, SymmetricMatrix.diagonal([-1.0, 0.0, 0.0]), (0,)
            )
        with pytest.raises(ValueError):
            PerturbationInstance.build(
                SymmetricMatrix.diagonal([1.0, 1.0, 3.0]), v, (0,)
            )


def six_by_six() -> PerturbationInstance:
    a = SymmetricMatrix.diagonal([0.0, 1.0, 2.0, 5.0, 6.0, 7.0])
    v = SymmetricMatrix.diagonal([0.1, 0.0, 0.0, 0.0, 0.0, 0.0])
    return PerturbationInstance.build(a, v, (0, 1, 2))


def decs_of_other_sizes() -> list:
    return [eigh(SymmetricMatrix.diagonal(range(n))) for n in (3, 8)]


class TestSpectraAtZero:
    def test_t_zero_reuses_the_build_solve(self, kernel_calls):
        a, w = sharpness_matrices(0.6)
        inst = PerturbationInstance.build(a, w, (0,))
        kernel_calls.clear()
        omega_component(inst, 0.0)
        report = enclosure_check(inst, 0.0)
        assert inst.spectra([0.0])[0.0] is inst.dec_a
        assert kernel_calls == []
        assert report.tol == 1e-8
        omega_component(inst, 0.5)
        assert kernel_calls == [("two-sided", (1, 2, 2))]


def test_a_dec_of_another_size_gets_one_message_from_both_checks():
    inst = six_by_six()
    for dec in decs_of_other_sizes():
        messages = set()
        for check in (enclosure_check, omega_component):
            with pytest.raises(ValueError) as info:
                check(inst, 0.5, dec=dec)
            messages.add(str(info.value))
        assert messages == {f"dec has dimension {dec.dim}, the instance 6"}


class TestEnclosure:
    def test_psd_shift_traps_spectrum(self):
        a, w = sharpness_matrices(0.8)
        inst = PerturbationInstance.build(a, w, (0,))
        for t in (0.0, 0.3, 0.7, 1.0):
            report = enclosure_check(inst, t)
            assert report.passed
            assert report.worst_margin >= -1e-8

    def test_detects_escape(self):
        # feeding a decomposition of the wrong matrix must show up as a
        # negative margin, proving the check is not vacuous
        a = SymmetricMatrix.diagonal([0.0, 3.0])
        v = SymmetricMatrix.diagonal([0.1, 0.0])
        inst = PerturbationInstance.build(a, v, (0,))
        wrong = eigh(SymmetricMatrix.diagonal([1.5, 3.0]))
        report = enclosure_check(inst, 0.5, dec=wrong)
        assert not report.passed
        assert report.worst_margin < -1.0

    def test_margins_match_interval_set_bit_for_bit(self):
        # Ties, touching and overlapping shifts, shift 0, and points on,
        # between and beyond every interval end.
        rng = np.random.default_rng(2024)
        for case in range(3000):
            n = int(rng.integers(1, 9))
            points = np.round(rng.normal(0.0, 2.0, n), int(rng.integers(0, 3)))
            shift = [0.0, 0.5, float(rng.uniform(0.0, 3.0))][case % 3]
            x = np.concatenate(
                [points, points + shift, rng.normal(0.0, 4.0, 6), [-1e3, 1e3]]
            )
            allowed = shift_set(IntervalSet.from_points(points), shift)
            oracle = np.array([allowed.signed_margin(float(v)) for v in x])
            margins = _shifted_margins(points, shift, x)
            assert margins.tobytes() == oracle.tobytes()

    def test_t_range(self):
        a, w = sharpness_matrices(0.5)
        inst = PerturbationInstance.build(a, w, (0,))
        with pytest.raises(ValueError):
            enclosure_check(inst, -0.1)
        with pytest.raises(ValueError):
            enclosure_check(inst, 1.5)

    def test_refuses_a_dec_of_another_size(self):
        inst = six_by_six()
        for dec in decs_of_other_sizes():
            with pytest.raises(ValueError, match=f"dimension {dec.dim}, the instance 6"):
                enclosure_check(inst, 0.5, dec=dec)


class TestOmegaComponent:
    def test_sharpness_family_angle_is_exact(self):
        for v in (0.2, 0.6, 0.9):
            a, w = sharpness_matrices(v)
            inst = PerturbationInstance.build(a, w, (0,))
            comp0 = omega_component(inst, 0.0)
            comp1 = omega_component(inst, 1.0)
            theta = angle_reports([(comp0.bases, comp1.bases)])[0].max_angle
            assert theta == pytest.approx(0.5 * math.asin(v), abs=1e-12)

    def test_sharpness_eigenpair(self):
        v = 0.6
        a, w = sharpness_matrices(v)
        m = a.entries + w.entries
        theta = 0.5 * math.asin(v)
        x = np.array([math.cos(theta), -math.sin(theta)])
        lam = (v - math.sqrt(1.0 - v * v)) / 2.0
        assert np.abs(m @ x - lam * x).max() < 1e-12

    def test_tracked_indices_and_enclosure(self):
        a = SymmetricMatrix.diagonal([0.0, 1.0, 5.0])
        v = SymmetricMatrix.diagonal([0.2, 0.2, 0.0])
        inst = PerturbationInstance.build(a, v, (0, 1))
        comp = omega_component(inst, 1.0)
        assert comp.omega_indices == (0, 1)
        assert comp.bases[0].shape == (3, 2)

    def test_bases_are_columns_of_the_decomposition(self):
        inst = PerturbationInstance.build(
            SymmetricMatrix.diagonal([0.0, 5.0, 1.0]),
            SymmetricMatrix(np.full((3, 3), 0.1)),
            (0, 2),
        )
        comp = omega_component(inst, 0.5)
        vectors = comp.dec.eigenvectors
        basis, complement = comp.bases
        assert comp.omega_indices == (0, 2)
        assert np.array_equal(basis, vectors[:, [0, 2]])
        assert np.array_equal(complement, vectors[:, [1]])
        assert not basis.flags.writeable and not complement.flags.writeable

    def test_gap_hypothesis_enforced(self):
        a = SymmetricMatrix.diagonal([0.0, 1.0])
        v = SymmetricMatrix.diagonal([2.0, 0.0])
        inst = PerturbationInstance.build(a, v, (0,))
        with pytest.raises(ValueError):
            omega_component(inst, 1.0)
        # at small t the same instance is fine
        assert omega_component(inst, 0.25).omega_indices == (0,)

    def test_gap_is_checked_before_any_solve(self, kernel_calls):
        a = SymmetricMatrix.diagonal([0.0, 1.0])
        v = SymmetricMatrix.diagonal([2.0, 0.0])
        inst = PerturbationInstance.build(a, v, (0,))
        kernel_calls.clear()
        for t in (0.5, 1.0):  # t*||V|| = d, then 2d
            with pytest.raises(ValueError, match="gap non-closing"):
                omega_component(inst, t)
        assert kernel_calls == []

    def test_detects_component_size_change(self):
        a = SymmetricMatrix.diagonal([0.0, 3.0])
        v = SymmetricMatrix.diagonal([0.05, 0.0])
        inst = PerturbationInstance.build(a, v, (0,))
        both_low = eigh(SymmetricMatrix.diagonal([0.0, 0.03]))
        with pytest.raises(ValueError, match="left its Weyl interval"):
            omega_component(inst, 1.0, dec=both_low)

    def test_detects_escaped_eigenvalue(self):
        a = SymmetricMatrix.diagonal([0.0, 3.0])
        v = SymmetricMatrix.diagonal([0.05, 0.0])
        inst = PerturbationInstance.build(a, v, (0,))
        stray = eigh(SymmetricMatrix.diagonal([10.0, 11.0]))
        with pytest.raises(ValueError, match="left its Weyl interval"):
            omega_component(inst, 1.0, dec=stray)

    def test_refuses_a_dec_of_another_size(self):
        inst = six_by_six()
        for dec in decs_of_other_sizes():
            with pytest.raises(ValueError, match=f"dimension {dec.dim}, the instance 6"):
                omega_component(inst, 0.5, dec=dec)


class TestContinuityModulus:
    def test_formula(self):
        v, d, s, t = 0.3, 1.0, 0.2, 0.7
        expected = (math.pi / 2) * (t - s) * v / (d - t * v)
        assert continuity_modulus(v, d, s, t) == pytest.approx(expected, abs=1e-15)

    def test_zero_at_equal_times(self):
        assert continuity_modulus(0.5, 1.0, 0.3, 0.3) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            continuity_modulus(0.5, 1.0, 0.7, 0.3)
        with pytest.raises(ValueError):
            continuity_modulus(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            continuity_modulus(-0.1, 1.0, 0.0, 1.0)

    @given(
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.5, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_dominates_measured_projector_motion(self, s, t):
        a, w = sharpness_matrices(0.7)
        inst = PerturbationInstance.build(a, w, (0,))
        bases_s, bases_t = (omega_component(inst, time).bases for time in (s, t))
        moved = angle_reports([(bases_s, bases_t)])[0].sines[0]
        assert moved <= continuity_modulus(inst.v_norm, inst.d, s, t) + 1e-8
