"""Independent checks of specangles outputs, written with numpy.linalg only.

Nothing here imports specangles: spectra come from LAPACK (`eigh`,
`eigvalsh`), angles from the singular values of basis products, and every
bound from the formulas in the README's table, evaluated here, with this
module's own root for the switchover point kappa of the bound function N.
Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

T_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)

# A program value must match the oracle's within MATCH_TOL (absolute, after
# scaling by 1 + |value| where noted); a theorem holds when measured <=
# bound + THEOREM_TOL, the campaign's default margin tolerance.
MATCH_TOL = 1e-9
THEOREM_TOL = 1e-8

C_CRIT_SEM = 1.0 - (1.0 - math.sqrt(3.0) / math.pi) ** 3
CONVEX = "convex-separated"
INTERLEAVED = "interleaved"

# Gap d and hull geometry each plan's instances are built with.
PLAN_D = {"convex-separated": 1.0, "doubly-interleaved": 2.0, "rank-one": 1.0}
PLAN_GEOMETRY = {
    "convex-separated": CONVEX,
    "doubly-interleaved": INTERLEAVED,
    "rank-one": CONVEX,
}


def _asin(x: float) -> float:
    return math.asin(min(max(x, -1.0), 1.0))


def _kappa_gap(k: float) -> float:
    return _asin((math.pi / 2.0) * (1.0 - math.sqrt(1.0 - 2.0 * k))) - 1.5 * _asin(
        (math.pi / 2.0) * (1.0 - (1.0 - 2.0 * k) ** (1.0 / 3.0))
    )


def _kappa() -> float:
    # Bisection on (4(pi^2-2)/pi^4, 2(pi-1)/pi^2], where the third piece of N
    # starts and where its arcsine argument reaches 1.
    lo = 4.0 * (math.pi**2 - 2.0) / math.pi**4
    hi = 2.0 * (math.pi - 1.0) / math.pi**2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _kappa_gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


KAPPA = _kappa()


def bound_n(x: float) -> float:
    """The generic bound function N(x), x = ||V||/(2d), built from arcsines."""
    if x <= 4.0 / (math.pi**2 + 4.0):
        return 0.5 * _asin(math.pi * x)
    if x < 4.0 * (math.pi**2 - 2.0) / math.pi**4:
        return _asin(math.sqrt((2.0 * math.pi**2 * x - 4.0) / (math.pi**2 - 4.0)))
    if x <= KAPPA:
        return _asin((math.pi / 2.0) * (1.0 - math.sqrt(1.0 - 2.0 * x)))
    return 1.5 * _asin((math.pi / 2.0) * (1.0 - (1.0 - 2.0 * x) ** (1.0 / 3.0)))


def continuity(v_norm: float, d: float, s: float, t: float) -> float:
    return (math.pi / 2.0) * (t - s) * v_norm / (d - t * v_norm)


def expected_bounds(v_norm: float, d: float, convex: bool, rank_one: bool) -> dict:
    """Bound value of every t = 1 row whose hypothesis holds, by bound name."""
    ratio = v_norm / d
    out = {
        "sin2theta": ratio if convex else (math.pi / 2.0) * ratio,
        "continuity": continuity(v_norm, d, 0.0, 1.0),
    }
    if v_norm <= 2.0 * d / math.pi:
        out["corollary"] = 0.5 * _asin(math.pi * ratio / 2.0)
    if convex and v_norm < d:
        out["favorable"] = 0.5 * _asin(ratio)
    if v_norm < C_CRIT_SEM * d:
        out["generic"] = bound_n(ratio / 2.0)
    if v_norm < d:
        out["log"] = (math.pi / 4.0) * math.log(d / (d - v_norm))
    if rank_one:
        out["rank-one"] = ratio
    return out


def _shifted_distance(x: np.ndarray, points: np.ndarray, shift: float) -> np.ndarray:
    """Distance of each x to the union of [p, p + shift] over points p."""
    gaps = np.maximum(points[None, :] - x[:, None], x[:, None] - (points[None, :] + shift))
    return np.maximum(gaps.min(axis=1), 0.0)


def _signed_margins(x: np.ndarray, points: np.ndarray, shift: float) -> np.ndarray:
    """Depth of each x inside the merged intervals of points + [0, shift],
    or minus its distance outside them."""
    merged: list[list[float]] = []
    for p in np.sort(points):
        if merged and p <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], p + shift)
        else:
            merged.append([float(p), float(p) + shift])
    out = []
    for xi in x:
        inside = [min(xi - lo, hi - xi) for lo, hi in merged if lo <= xi <= hi]
        if inside:
            out.append(inside[0])
        else:
            out.append(-min(max(lo - xi, xi - hi) for lo, hi in merged))
    return np.array(out)


def _sines_cosines(u: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sines (descending) and cosines (ascending) of the canonical angles
    between the column spans of the orthonormal bases u and w."""
    cosines = np.sort(np.linalg.svd(u.T @ w, compute_uv=False))
    sines = np.linalg.svd(w - u @ (u.T @ w), compute_uv=False)
    return np.clip(sines, 0.0, 1.0), np.clip(cosines, 0.0, 1.0)


def _hull_condition(sigma: np.ndarray, big: np.ndarray) -> bool:
    lo, hi = sigma.min(), sigma.max()
    blo, bhi = big.min(), big.max()
    return not np.any((big >= lo) & (big <= hi)) or not np.any(
        (sigma >= blo) & (sigma <= bhi)
    )


def check_trial(spec: dict, a: np.ndarray, v: np.ndarray, sigma_indices, report) -> list[str]:
    """Check one campaign trial against numpy.

    `spec` holds the trial's plan, n and v_ratio as the campaign config
    assigns them; `a`, `v` and `sigma_indices` are the instance the program
    built; `report` is the program's TrialReport.
    """
    problems: list[str] = []

    def expect(ok: bool, message: str):
        if not ok:
            problems.append(message)

    plan, n, v_ratio = spec["plan"], spec["n"], spec["v_ratio"]
    idx = np.array(sorted(sigma_indices))
    expect(a.shape == (n, n) and report.n == n, f"size {a.shape} / {report.n}, expected n={n}")
    if problems:
        return problems
    wa = np.linalg.eigvalsh(a)
    wv = np.linalg.eigvalsh(v)
    v_norm = float(max(abs(wv[0]), abs(wv[-1])))
    in_sigma = np.zeros(n, dtype=bool)
    in_sigma[idx] = True
    sigma, big = wa[in_sigma], wa[~in_sigma]
    d = float(np.min(np.abs(sigma[:, None] - big[None, :])))
    convex = _hull_condition(sigma, big)

    expect(float(wv[0]) >= -1e-10 * (1.0 + v_norm), f"V not PSD: min eigenvalue {wv[0]!r}")
    expect(abs(d - PLAN_D[plan]) <= MATCH_TOL, f"gap {d!r}, plan pins {PLAN_D[plan]!r}")
    target = v_ratio * PLAN_D[plan]
    expect(abs(v_norm - target) <= MATCH_TOL * (1.0 + target), f"||V|| {v_norm!r}, expected {target!r}")
    if plan == "rank-one":
        expect(float(wv[-2]) <= 1e-10 * (1.0 + v_norm), "rank-one V has a second eigenvalue")
    expect(abs(report.d - d) <= MATCH_TOL, f"report d {report.d!r} vs {d!r}")
    expect(abs(report.v_norm - v_norm) <= MATCH_TOL, f"report v_norm {report.v_norm!r} vs {v_norm!r}")
    geometry = CONVEX if convex else INTERLEAVED
    expect(geometry == PLAN_GEOMETRY[plan], f"hull geometry {geometry}, plan {plan}")
    expect(report.geometry == geometry, f"report geometry {report.geometry}, expected {geometry}")

    # Spectra on the grid, the enclosure margins and the tracked bases.
    enclosure: dict[float, float] = {}
    bases: dict[float, np.ndarray] = {}
    for t in T_GRID:
        w, q = np.linalg.eigh(a + t * v)
        shift = t * v_norm
        margins = _signed_margins(w, wa, shift)
        enclosure[t] = float(margins.min())
        expect(enclosure[t] >= -THEOREM_TOL, f"enclosure fails at t={t}: {enclosure[t]!r}")
        tracked = _shifted_distance(w, sigma, shift) < _shifted_distance(w, big, shift)
        expect(int(tracked.sum()) == idx.size, f"t={t}: {int(tracked.sum())} tracked, expected {idx.size}")
        if int(tracked.sum()) != idx.size:
            return problems
        bases[t] = q[:, tracked]

    sines01, cosines01 = _sines_cosines(bases[0.0], bases[1.0])
    theta = math.atan2(float(sines01[0]), float(cosines01[0]))
    sin2 = float(np.max(2.0 * sines01 * cosines01[: sines01.size]))
    worst_continuity = min(
        continuity(v_norm, d, s, t) - float(_sines_cosines(bases[s], bases[t])[0][0])
        for i, s in enumerate(T_GRID)
        for t in T_GRID[i + 1 :]
    )
    expect(abs(report.theta - theta) <= MATCH_TOL, f"report theta {report.theta!r} vs {theta!r}")

    bounds = expected_bounds(v_norm, d, convex, plan == "rank-one")
    measured = {name: theta for name in ("corollary", "favorable", "generic", "log")}
    measured.update({"sin2theta": sin2, "rank-one": float(sines01[0])})
    margins = {name: bounds[name] - measured[name] for name in bounds if name != "continuity"}
    margins["continuity"] = worst_continuity
    expected_rows = sorted([("enclosure", t) for t in T_GRID] + [(name, 1.0) for name in bounds])
    got_rows = [(row.bound_name, row.t) for row in report.rows]
    expect(got_rows == expected_rows, f"rows {got_rows} vs expected {expected_rows}")
    if got_rows != expected_rows:
        return problems

    for row in report.rows:
        name, t = row.bound_name, row.t
        where = f"{name} t={t}"
        expect(abs(row.theta - theta) <= MATCH_TOL, f"{where}: theta {row.theta!r} vs {theta!r}")
        if name == "enclosure":
            bound, margin = 0.0, enclosure[t]
        else:
            bound, margin = bounds[name], margins[name]
        expect(
            abs(row.bound_value - bound) <= MATCH_TOL * (1.0 + abs(bound)),
            f"{where}: bound_value {row.bound_value!r} vs {bound!r}",
        )
        expect(abs(row.margin - margin) <= MATCH_TOL, f"{where}: margin {row.margin!r} vs {margin!r}")
        expect(
            abs(row.margin - (row.bound_value - (bound - margin))) <= MATCH_TOL,
            f"{where}: margin is not bound_value - measured",
        )
        expect(margin >= -THEOREM_TOL, f"{where}: theorem fails, margin {margin!r}")
        expect(row.passed is True, f"{where}: row reports a violation")
    return problems


def block_triple(v: np.ndarray, q: np.ndarray) -> tuple[float, float, float]:
    """(2||W||, ||V||, 2*max(||V0||, ||V1||)) in an eigenbasis of the
    projector q from numpy."""
    w, basis = np.linalg.eigh(q)
    b0, b1 = basis[:, w > 0.5], basis[:, w <= 0.5]

    def norm(m):
        return float(np.linalg.norm(m, 2))

    return (
        2.0 * norm(b0.T @ v @ b1),
        norm(v),
        2.0 * max(norm(b0.T @ v @ b0), norm(b1.T @ v @ b1)),
    )


def check_block(v: np.ndarray, q: np.ndarray, triple) -> list[str]:
    """Check the program's psd_block_bounds triple for (v, q) against numpy,
    and the chain 2||W|| <= ||V|| <= 2*max(||V0||, ||V1||)."""
    lower, middle, upper = block_triple(v, q)
    scale = 1.0 + middle
    problems = [
        f"{label} {float(got)!r} vs {want!r}"
        for label, got, want in zip(("2||W||", "||V||", "2max"), triple, (lower, middle, upper))
        if not abs(float(got) - want) <= MATCH_TOL * scale
    ]
    if lower > middle + THEOREM_TOL * scale or middle > upper + THEOREM_TOL * scale:
        problems.append(f"chain broken: {lower!r} <= {middle!r} <= {upper!r}")
    return problems
