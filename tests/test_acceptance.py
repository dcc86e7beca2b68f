"""Acceptance gate: twelve pinned criteria, one test per criterion.

Each test asserts its criterion at the pinned tolerance and prints one PASS
line, so `pytest -v` (or -s) reads as a per-criterion verdict list. The
randomized criteria all draw from the bundled 500-trial campaign config so
the shipped config is exercised end to end; one more test pins the bytes of
that campaign's rows.
"""

import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

from specangles import (
    C_CRIT,
    C_CRIT_SEM,
    CampaignConfig,
    LOG_THRESHOLD,
    N_eval,
    PortableRng,
    Projector,
    SymmetricMatrix,
    block_example,
    bound_log,
    constants,
    kappa_solve,
    optimize,
    psd_block_bounds,
    riemann_limit_check,
    rows_jsonl,
    run_campaign,
    sharpness_pair,
    truncate_digits,
    walk_path,
)

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "verify500.json"

# sha256 of the campaign's rows as `specangles verify --format json` writes
# them. Haar bases go through LAPACK's QR and matrix products through BLAS, so
# the bytes hold for conftest's PINNED_BUILD and PINNED_CORE only, as for the
# verify cases of test_cli's TestPinnedOutputs.
VERIFY500_JSONL_SHA256 = "373925859d6fc772b31244e929c82b309c88c15fa1e3970c4c69c854ccc3a7e4"


@pytest.fixture(scope="session")
def campaign():
    config = CampaignConfig.from_json_file(str(CONFIG_PATH))
    started = time.perf_counter()
    reports = list(run_campaign(config))
    return reports, time.perf_counter() - started


def rows_named(reports, bound_name):
    return [row for report in reports for row in report.rows
            if row.bound_name == bound_name]


def announce(number, text):
    print(f"PASS criterion {number:02d}: {text}")


def test_criterion_01_sharpness_family():
    started = time.perf_counter()
    for k in range(1, 20):
        v = 0.05 * k
        inst = sharpness_pair(v)
        _, (report,) = walk_path(inst, [(0.0, 1.0)])
        theta = report.max_angle
        target = 0.5 * math.asin(v)
        assert abs(theta - target) <= 1e-9
        x = np.array([math.cos(target), -math.sin(target)])
        lam = (v - math.sqrt(1.0 - v * v)) / 2.0
        residual = np.abs((inst.a.entries + inst.v.entries) @ x - lam * x).max()
        assert residual <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(1, f"sharp family attained at 19 ratios in {elapsed:.3f}s")


def test_criterion_02_spectral_enclosure(campaign):
    reports, elapsed = campaign
    assert len(reports) == 500
    assert all(report.n <= 32 for report in reports)
    rows = rows_named(reports, "enclosure")
    assert len(rows) == 2500
    assert sorted({row.t for row in rows}) == [0.0, 0.25, 0.5, 0.75, 1.0]
    worst = min(row.margin for row in rows)
    assert worst >= -1e-8
    assert elapsed < 30.0
    announce(2, f"2500 enclosures hold (worst margin {worst:+.2e}) in {elapsed:.1f}s")


def test_criterion_03_sin_two_theta(campaign):
    reports, _ = campaign
    checked = 0
    for report in reports:
        ratio = report.v_norm / report.d
        for row in report.rows:
            if row.bound_name != "sin2theta":
                continue
            measured = row.bound_value - row.margin
            assert measured <= (math.pi / 2.0) * ratio + 1e-8
            if report.geometry == "convex-separated":
                assert measured <= ratio + 1e-8
            checked += 1
    assert checked == 500
    announce(3, f"sin 2-angle norm bounded on {checked} instances")


def test_criterion_04_favorable_geometry(campaign):
    reports, _ = campaign
    checked = 0
    for report in reports:
        if report.geometry != "convex-separated" or report.v_norm >= report.d:
            continue
        favorable = [r for r in report.rows if r.bound_name == "favorable"]
        assert len(favorable) == 1
        assert favorable[0].margin >= -1e-8
        assert report.theta < math.pi / 4.0
        checked += 1
    assert checked == 400
    announce(4, f"half-arcsine bound and quarter-turn ceiling on {checked} instances")


def test_criterion_05_generic_geometry(campaign):
    reports, _ = campaign
    checked = 0
    for report in reports:
        generic = [r for r in report.rows if r.bound_name == "generic"]
        if report.v_norm < C_CRIT_SEM * report.d:
            assert len(generic) == 1
            assert generic[0].margin >= -1e-8
            checked += 1
        else:
            assert not generic
    # 80 of the 500 trials run at ratio 0.95, beyond the proved regime
    assert checked == 420
    announce(5, f"piecewise bound holds on {checked} in-regime instances")


def test_criterion_06_optimizer_matches_closed_form():
    kappa = constants().kappa
    started = time.perf_counter()
    worst = 0.0
    for x in np.linspace(0.0, C_CRIT_SEM, 50):
        x = float(x)
        gap = abs(optimize(x, n_max=8).objective - N_eval(x / 2.0, kappa))
        tol = 1e-3 if x >= 0.95 * C_CRIT_SEM else 1e-4
        assert gap <= tol
        worst = max(worst, gap)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    announce(6, f"50-point optimizer sweep, worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_07_kappa_root():
    kappa = kappa_solve()
    residual = abs(
        math.asin((math.pi / 2.0) * (1.0 - math.sqrt(1.0 - 2.0 * kappa)))
        - 1.5 * math.asin((math.pi / 2.0) * (1.0 - (1.0 - 2.0 * kappa) ** (1 / 3)))
    )
    assert residual <= 1e-12
    assert 0.323157 < kappa < 0.433977
    left = N_eval(math.nextafter(kappa, 0.0), kappa)
    right = N_eval(math.nextafter(kappa, 1.0), kappa)
    assert abs(left - right) <= 1e-10
    announce(7, f"kappa = {kappa:.15f}, residual {residual:.1e}")


def test_criterion_08_printed_constants():
    assert truncate_digits(C_CRIT, 7) == "0.4548399"
    assert truncate_digits(C_CRIT_SEM, 7) == "0.9096799"
    assert truncate_digits(LOG_THRESHOLD, 5) == "0.86466"
    assert abs(C_CRIT_SEM - 2.0 * C_CRIT) <= 1e-12
    announce(8, "constants print truncated, semi-critical ratio doubles exactly")


def test_criterion_09_psd_block_lemma():
    for trial in range(1000):
        n = 2 + trial % 9
        rng = PortableRng(7000 + trial)
        g = rng.gaussians(n * n).reshape(n, n)
        v = SymmetricMatrix(g @ g.T)
        q_full = rng.haar_orthogonal(n)
        rank = 1 + trial % (n - 1)
        cols = q_full[:, :rank]
        q = Projector(SymmetricMatrix(cols @ cols.T), rank=rank)
        lower, middle, upper = psd_block_bounds(v, q)
        assert lower <= middle + 1e-10
        assert middle <= upper + 1e-10
    for x in (0.25, 0.5, 1.0, 2.0):
        for j in range(5):
            y = x * (4 + j) / 8.0
            v, q = block_example(x, y)
            assert psd_block_bounds(v, q) == (x, x, 2.0 * y)
    flip = SymmetricMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    e0 = Projector(SymmetricMatrix.diagonal([1.0, 0.0]), rank=1)
    with pytest.raises(ValueError):
        psd_block_bounds(flip, e0)
    # for that indefinite flip, 2||W|| = 2 while ||V|| = 1: the left
    # inequality genuinely requires positive semidefiniteness
    announce(9, "block-norm chain on 1000 PSD draws, exact dyadic family")


def test_criterion_10_continuity_modulus(campaign):
    reports, _ = campaign
    rows = rows_named(reports, "continuity")
    assert len(rows) == 500
    worst = min(row.margin for row in rows)
    assert worst >= -1e-8
    announce(10, f"path modulus dominates all grid pairs (worst {worst:+.2e})")


def test_criterion_11_riemann_limit_and_log_flag():
    limit = (math.pi / 4.0) * math.log(2.0)
    value = riemann_limit_check(0.5, 4096)
    assert abs(value - limit) <= 1e-3
    assert bound_log(LOG_THRESHOLD - 1e-10, 1.0).below_half_pi
    assert not bound_log(LOG_THRESHOLD + 1e-10, 1.0).below_half_pi
    announce(11, f"uniform chain at n=4096 within {abs(value - limit):.1e} of the log integral")


def test_criterion_12_rank_one_motion(campaign):
    reports, _ = campaign
    rows = rows_named(reports, "rank-one")
    assert len(rows) == 200
    worst = min(row.margin for row in rows)
    assert worst >= -1e-8
    announce(12, f"rank-one projector motion under ratio on 200 trials (worst {worst:+.2e})")


def test_verify500_rows_keep_their_bytes(pinned_build, campaign):
    reports, _ = campaign
    text = rows_jsonl(reports)
    assert text.count("\n") == 5275
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY500_JSONL_SHA256
