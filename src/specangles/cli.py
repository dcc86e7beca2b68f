"""Command-line front end.

Subcommands: constants, scan, sharpness, optimize, verify, kappa. Every
command takes --format {json|csv|pretty} and --out; verification commands
exit 0 when all checks pass, 1 on any bound violation, 2 on usage or config
errors. The default margin tolerance can be overridden per invocation with
--tol or ambiently with the TOOLKIT_TOL environment variable (a decimal);
per-bound tolerances in a campaign config take precedence over both.
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
    rows_csv,
    rows_jsonl,
    run_campaign,
    walk_path,
)
from .instances import sharpness_pair
from .partitions import optimize

FORMATS = ("json", "csv", "pretty")


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


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


def _csv_line(cells) -> str:
    return ",".join(cells)


def cmd_constants(args) -> int:
    bc = constants()
    rows = [
        ("c_crit", bc.c_crit, truncate_digits(bc.c_crit, 7)),
        ("c_crit_sem", bc.c_crit_sem, truncate_digits(bc.c_crit_sem, 7)),
        ("log_threshold", bc.log_threshold, truncate_digits(bc.log_threshold, 5)),
        ("kappa", bc.kappa, truncate_digits(bc.kappa, 7)),
    ]
    if args.format == "json":
        payload = {
            name: {"value": value, "printed": printed} for name, value, printed in rows
        }
        payload["kappa"]["interval"] = [N_BREAK_2, KAPPA_SUP]
        text = json.dumps(payload, indent=2)
    elif args.format == "csv":
        lines = [_csv_line(("name", "value", "printed"))]
        lines += [_csv_line((name, f"{value:.12f}", printed)) for name, value, printed in rows]
        text = "\n".join(lines)
    else:
        lines = [
            f"{name:<14} {value:.12f}   prints as {printed}"
            for name, value, printed in rows
        ]
        lines.append(f"kappa interval ({N_BREAK_2:.6f}, {KAPPA_SUP:.6f})")
        text = "\n".join(lines)
    _emit(text, args.out)
    return 0


def cmd_kappa(args) -> int:
    kappa = kappa_solve()
    # kappa is where the two arcsine pieces meet, so the equation's residual
    # is also the gap between the pieces
    residual = abs(_kappa_equation(kappa))
    inside = N_BREAK_2 < kappa < KAPPA_SUP
    ok = residual <= KAPPA_TOL and inside
    if args.format == "json":
        text = json.dumps(
            {
                "kappa": kappa,
                "residual": residual,
                "interval": [N_BREAK_2, KAPPA_SUP],
                "inside_interval": inside,
                "piece_gap": residual,
                "pass": ok,
            },
            indent=2,
        )
    elif args.format == "csv":
        text = "\n".join(
            [
                _csv_line(("kappa", "residual", "inside_interval", "pass")),
                _csv_line(
                    (
                        f"{kappa:.15f}",
                        f"{residual:.3e}",
                        "true" if inside else "false",
                        "true" if ok else "false",
                    )
                ),
            ]
        )
    else:
        text = "\n".join(
            [
                f"kappa    {kappa:.15f}",
                f"residual {residual:.3e}",
                f"interval ({N_BREAK_2:.15f}, {KAPPA_SUP:.15f})"
                + ("  contains kappa" if inside else "  MISSES kappa"),
                f"pieces meet within {residual:.3e}",
                "pass" if ok else "FAIL",
            ]
        )
    _emit(text, args.out)
    return 0 if ok else 1


def cmd_scan(args) -> int:
    if not (0.0 <= args.x_min < args.x_max <= 1.0):
        raise ConfigError("need 0 <= x-min < x-max <= 1")
    if args.steps < 2:
        raise ConfigError("need at least 2 steps")
    xs = [
        args.x_min + k * (args.x_max - args.x_min) / (args.steps - 1)
        for k in range(args.steps)
    ]
    names = ANGLE_BOUND_NAMES
    # an absent bound keeps its column, as None
    table = [(x, dict.fromkeys(names) | angle_bounds(x, 1.0, convex=True)) for x in xs]
    if args.format == "json":
        text = json.dumps(
            [{"x": x, **cells} for x, cells in table], indent=2
        )
    elif args.format == "csv":
        lines = [_csv_line(("x",) + names)]
        for x, cells in table:
            lines.append(
                _csv_line(
                    (repr(x),)
                    + tuple(
                        "" if cells[name] is None else repr(cells[name])
                        for name in names
                    )
                )
            )
        text = "\n".join(lines)
    else:
        lines = [f"{'x':>10}  " + "  ".join(f"{name:>10}" for name in names)]
        for x, cells in table:
            rendered = [
                " " * 10 if cells[name] is None else f"{cells[name]:10.6f}"
                for name in names
            ]
            lines.append(f"{x:10.6f}  " + "  ".join(rendered))
        text = "\n".join(lines)
    _emit(text, args.out)
    return 0


def cmd_sharpness(args) -> int:
    start, stop, count = args.grid
    # float.is_integer is False for inf and nan as well as for 2.7
    if not (float(count).is_integer() and count >= 1 and 0.0 <= start <= stop < 1.0):
        raise ConfigError(
            "grid must satisfy 0 <= start <= stop < 1 with an integer count >= 1"
        )
    count = int(count)
    tol = _chosen_tol(args.tol, 1e-9)
    rows = []
    worst = 0.0
    for k in range(count):
        v = start if count == 1 else start + k * (stop - start) / (count - 1)
        inst = sharpness_pair(v)
        _, (report,) = walk_path(inst, [(0.0, 1.0)])
        theta = report.max_angle
        bound = bound_favorable(inst.v_norm, inst.d)
        margin = bound - theta
        worst = max(worst, abs(margin))
        rows.append((v, theta, bound, margin))
    ok = worst <= tol
    if args.format == "json":
        text = json.dumps(
            {
                "rows": [
                    {"v": v, "theta": theta, "bound": bound, "margin": margin}
                    for v, theta, bound, margin in rows
                ],
                "worst_abs_margin": worst,
                "tol": tol,
                "pass": ok,
            },
            indent=2,
        )
    elif args.format == "csv":
        lines = [_csv_line(("v", "theta", "bound", "margin"))]
        lines += [
            _csv_line((repr(v), repr(theta), repr(bound), repr(margin)))
            for v, theta, bound, margin in rows
        ]
        text = "\n".join(lines)
    else:
        lines = [f"{'v':>6} {'theta':>18} {'bound':>18} {'margin':>12}"]
        lines += [
            f"{v:6.3f} {theta:18.15f} {bound:18.15f} {margin:12.3e}"
            for v, theta, bound, margin in rows
        ]
        lines.append(
            f"worst |margin| {worst:.3e} vs tol {tol:.1e}: "
            + ("pass" if ok else "FAIL")
        )
        text = "\n".join(lines)
    _emit(text, args.out)
    return 0 if ok else 1


def cmd_optimize(args) -> int:
    plan = optimize(args.x, args.n_max)
    closed = N_eval(args.x / 2.0, constants().kappa)
    gap = abs(plan.objective - closed)
    near_edge = args.x >= 0.95 * C_CRIT_SEM
    tol = _chosen_tol(args.tol, 1e-3 if near_edge else 1e-4)
    ok = gap <= tol
    if args.format == "json":
        payload = plan.to_json()
        payload.update({"closed_form": closed, "gap": gap, "tol": tol, "pass": ok})
        text = json.dumps(payload, indent=2)
    elif args.format == "csv":
        text = "\n".join(
            [
                _csv_line(("x", "objective", "closed_form", "gap", "parts", "pass")),
                _csv_line(
                    (
                        repr(plan.x),
                        repr(plan.objective),
                        repr(closed),
                        repr(gap),
                        str(len(plan.lambdas)),
                        "true" if ok else "false",
                    )
                ),
            ]
        )
    else:
        steps = ", ".join(f"{lam:.9f}" for lam in plan.lambdas)
        text = "\n".join(
            [
                f"x            {plan.x:.12f}",
                f"steps        [{steps}]",
                f"objective    {plan.objective:.12f}",
                f"closed form  {closed:.12f}",
                f"gap          {gap:.3e} vs tol {tol:.1e}: "
                + ("pass" if ok else "FAIL"),
            ]
        )
    _emit(text, args.out)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    config = CampaignConfig.from_json_file(
        args.config,
        trials=args.trials,
        seed_base=args.seed_base,
        tol=_chosen_tol(args.tol, None),
    )
    reports = list(run_campaign(config))
    failures = sum(1 for report in reports if not report.passed)
    if args.format == "json":
        text = rows_jsonl(reports)
    elif args.format == "csv":
        text = rows_csv(reports)
    else:
        lines = [
            f"{report.seed:>10} {report.instance_id:<44} "
            + ("pass" if report.passed else "FAIL")
            for report in reports
        ]
        lines.append(f"{len(reports)} trials, {failures} failures")
        text = "\n".join(lines)
    _emit(text, args.out)
    return 0 if failures == 0 else 1


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
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
