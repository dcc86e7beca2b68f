"""Command-line front end.

Subcommands: constants, scan, sharpness, optimize, verify, kappa. Each
`cmd_*` returns its verdict and three functions giving its JSON payload, CSV
table and pretty lines; `_write` renders the one `--format` {json|csv|pretty}
asks for to stdout or `--out`, ending it with one newline (an empty JSON
Lines report stays empty). Exit codes: 0 when all checks pass, 1 on any bound violation,
2 on usage or config errors. The default margin tolerance can be overridden
per invocation with --tol or ambiently with the TOOLKIT_TOL environment
variable (a decimal); per-bound tolerances in a campaign config take
precedence over both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bounds import (
    ANGLE_BOUND_NAMES,
    C_CRIT_SEM,
    KAPPA_TOL,
    N_BREAK_2,
    KAPPA_SUP,
    N_eval,
    angle_bounds,
    bound_favorable,
    constants,
    kappa_solve,
    truncate_digits,
    _kappa_equation,
)
from .campaign import (
    CampaignConfig,
    ConfigError,
    checked_tol,
    csv_text,
    rows_jsonl,
    rows_table,
    run_campaign,
    walk_path,
)
from .instances import sharpness_pair
from .partitions import optimize

FORMATS = ("json", "csv", "pretty")


def _write(args, ok: bool, payload, table, lines) -> int:
    """Render the format `args` asks for, write it to `--out` or stdout, and
    return the exit code: 0 if `ok`, else 1. Only the one of `payload`,
    `table` and `lines` that the format needs is called; a payload that is
    already text (a JSON Lines report) is written as it is."""
    if args.format == "json":
        text = payload()
        if not isinstance(text, str):
            text = json.dumps(text, indent=2)
    elif args.format == "csv":
        text = csv_text(table())
    else:
        text = "\n".join(lines())
    if text and not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def _env_tol() -> float | None:
    raw = os.environ.get("TOOLKIT_TOL")
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError as err:
        raise ConfigError(f"TOOLKIT_TOL is not a decimal: {raw!r}") from err
    return checked_tol(value, "TOOLKIT_TOL")


def _chosen_tol(flag_value: float | None, fallback: float | None) -> float | None:
    if flag_value is not None:
        return checked_tol(flag_value, "--tol")
    env = _env_tol()
    return fallback if env is None else env


def cmd_constants(args) -> tuple:
    bc = constants()
    rows = [
        ("c_crit", bc.c_crit, truncate_digits(bc.c_crit, 7)),
        ("c_crit_sem", bc.c_crit_sem, truncate_digits(bc.c_crit_sem, 7)),
        ("log_threshold", bc.log_threshold, truncate_digits(bc.log_threshold, 5)),
        ("kappa", bc.kappa, truncate_digits(bc.kappa, 7)),
    ]
    payload = {name: {"value": value, "printed": printed} for name, value, printed in rows}
    payload["kappa"]["interval"] = [N_BREAK_2, KAPPA_SUP]
    return (
        True,
        lambda: payload,
        lambda: [
            ("name", "value", "printed"),
            *((name, f"{value:.12f}", printed) for name, value, printed in rows),
        ],
        lambda: [
            *(f"{name:<14} {value:.12f}   prints as {printed}" for name, value, printed in rows),
            f"kappa interval ({N_BREAK_2:.6f}, {KAPPA_SUP:.6f})",
        ],
    )


def cmd_kappa(args) -> tuple:
    kappa = kappa_solve()
    # kappa is where the two arcsine pieces meet, so the equation's residual
    # is also the gap between the pieces
    residual = abs(_kappa_equation(kappa))
    inside = N_BREAK_2 < kappa < KAPPA_SUP
    ok = residual <= KAPPA_TOL and inside
    return (
        ok,
        lambda: {
            "kappa": kappa,
            "residual": residual,
            "interval": [N_BREAK_2, KAPPA_SUP],
            "inside_interval": inside,
            "piece_gap": residual,
            "pass": ok,
        },
        lambda: [
            ("kappa", "residual", "inside_interval", "pass"),
            (f"{kappa:.15f}", f"{residual:.3e}", inside, ok),
        ],
        lambda: [
            f"kappa    {kappa:.15f}",
            f"residual {residual:.3e}",
            f"interval ({N_BREAK_2:.15f}, {KAPPA_SUP:.15f})"
            + ("  contains kappa" if inside else "  MISSES kappa"),
            f"pieces meet within {residual:.3e}",
            "pass" if ok else "FAIL",
        ],
    )


def cmd_scan(args) -> tuple:
    if not (0.0 <= args.x_min < args.x_max <= 1.0):
        raise ConfigError("need 0 <= x-min < x-max <= 1")
    if args.steps < 2:
        raise ConfigError("need at least 2 steps")
    xs = [
        args.x_min + k * (args.x_max - args.x_min) / (args.steps - 1)
        for k in range(args.steps)
    ]
    fields = ("x", *ANGLE_BOUND_NAMES)
    # an absent bound keeps its column, as None
    table = [dict.fromkeys(fields) | angle_bounds(x, 1.0, convex=True) | {"x": x} for x in xs]
    return (
        True,
        lambda: table,
        lambda: [fields, *(cells.values() for cells in table)],
        lambda: [
            "  ".join(f"{name:>10}" for name in fields),
            *(
                "  ".join(" " * 10 if v is None else f"{v:10.6f}" for v in cells.values())
                for cells in table
            ),
        ],
    )


def cmd_sharpness(args) -> tuple:
    start, stop, count = args.grid
    # float.is_integer is False for inf and nan as well as for 2.7
    if not (float(count).is_integer() and count >= 1 and 0.0 <= start <= stop < 1.0):
        raise ConfigError(
            "grid must satisfy 0 <= start <= stop < 1 with an integer count >= 1"
        )
    count = int(count)
    tol = _chosen_tol(args.tol, 1e-9)
    rows = []
    for k in range(count):
        v = start if count == 1 else start + k * (stop - start) / (count - 1)
        inst = sharpness_pair(v)
        _, (report,) = walk_path(inst, [(0.0, 1.0)])
        bound = bound_favorable(inst.v_norm, inst.d)
        rows.append((v, report.max_angle, bound, bound - report.max_angle))
    worst = max(abs(margin) for *_, margin in rows)
    ok = worst <= tol
    fields = ("v", "theta", "bound", "margin")
    return (
        ok,
        lambda: {
            "rows": [dict(zip(fields, row)) for row in rows],
            "worst_abs_margin": worst,
            "tol": tol,
            "pass": ok,
        },
        lambda: [fields, *rows],
        lambda: [
            f"{'v':>6} {'theta':>18} {'bound':>18} {'margin':>12}",
            *(
                f"{v:6.3f} {theta:18.15f} {bound:18.15f} {margin:12.3e}"
                for v, theta, bound, margin in rows
            ),
            f"worst |margin| {worst:.3e} vs tol {tol:.1e}: " + ("pass" if ok else "FAIL"),
        ],
    )


def cmd_optimize(args) -> tuple:
    plan = optimize(args.x, args.n_max)
    closed = N_eval(args.x / 2.0, constants().kappa)
    gap = abs(plan.objective - closed)
    near_edge = args.x >= 0.95 * C_CRIT_SEM
    tol = _chosen_tol(args.tol, 1e-3 if near_edge else 1e-4)
    ok = gap <= tol
    steps = ", ".join(f"{lam:.9f}" for lam in plan.lambdas)
    return (
        ok,
        lambda: plan.to_json() | {"closed_form": closed, "gap": gap, "tol": tol, "pass": ok},
        lambda: [
            ("x", "objective", "closed_form", "gap", "parts", "pass"),
            (plan.x, plan.objective, closed, gap, len(plan.lambdas), ok),
        ],
        lambda: [
            f"x            {plan.x:.12f}",
            f"steps        [{steps}]",
            f"objective    {plan.objective:.12f}",
            f"closed form  {closed:.12f}",
            f"gap          {gap:.3e} vs tol {tol:.1e}: " + ("pass" if ok else "FAIL"),
        ],
    )


def cmd_verify(args) -> tuple:
    config = CampaignConfig.from_json_file(
        args.config,
        trials=args.trials,
        seed_base=args.seed_base,
        tol=_chosen_tol(args.tol, None),
    )
    reports = list(run_campaign(config))
    failures = sum(1 for report in reports if not report.passed)
    return (
        failures == 0,
        lambda: rows_jsonl(reports),
        lambda: rows_table(reports),
        lambda: [
            *(
                f"{report.seed:>10} {report.instance_id:<44} "
                + ("pass" if report.passed else "FAIL")
                for report in reports
            ),
            f"{len(reports)} trials, {failures} failures",
        ],
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specangles",
        description=(
            "Bounds on maximal angles between spectral subspaces under "
            "positive-semidefinite perturbations"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=FORMATS, default="pretty")
        p.add_argument("--out", default=None, help="write output to this file")

    p = sub.add_parser("constants", help="print the critical constants")
    common(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("kappa", help="solve and check the piece-matching root")
    common(p)
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("scan", help="tabulate all bound curves against x = ||V||/d")
    common(p)
    p.add_argument("--x-min", type=float, default=0.0)
    p.add_argument("--x-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=21)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("sharpness", help="sweep the family that attains the sharp bound")
    common(p)
    p.add_argument(
        "--grid",
        nargs=3,
        type=float,
        default=(0.05, 0.95, 19),
        metavar=("START", "STOP", "COUNT"),
    )
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_sharpness)

    p = sub.add_parser("optimize", help="numerical partition infimum vs closed form")
    common(p)
    p.add_argument("x", type=float)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("verify", help="run a campaign from a JSON config")
    common(p)
    p.add_argument("config")
    p.add_argument("--seed-base", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _write(args, *args.func(args))
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
