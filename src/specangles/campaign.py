"""Randomized verification campaigns.

A campaign config declares how many trials to run and the generator axes
(plans, dimensions, perturbation ratios, seeds); the runner builds each
instance, walks the path subspaces over the t grid {0, 1/4, 1/2, 3/4, 1},
measures angles, and emits one row per (instance, bound) with the signed
margin bound - measured. Margins at or above -tol pass. Identical configs
produce byte-identical reports; timing lives on the trial report only, never
in rows, so serialized reports are directly comparable.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .bounds import (
    ANGLE_BOUND_NAMES,
    CONVEX_SEPARATED,
    DEFAULT_TOL,
    PerturbationInstance,
    angle_bounds,
    bound_sin2theta,
    continuity_modulus,
    enclosure_check,
    omega_component,
)
# eigh_many is unused here, but the benchmark's tracer wraps campaign.eigh_many
from .core import SpectralDecomposition, eigh_many
from .geometry import AngleReport, angle_reports
from .instances import (
    DOUBLY_INTERLEAVED,
    SpecPlan,
    convex_plan,
    interleaved_plan,
    random_instance,
    rank_one_instance,
    sharpness_pair,
)

T_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
PLAN_NAMES = (CONVEX_SEPARATED, DOUBLY_INTERLEAVED, "sharpness", "rank-one")

ROW_FIELDS = ("instance_id", "t", "theta", "bound_name", "bound_value", "margin", "pass")

# Every bound_name a trial can emit, in the order _measure_trial adds them;
# each is also a tolerance key of the config, besides "default".
BOUND_NAMES = ("enclosure", "sin2theta", *ANGLE_BOUND_NAMES, "continuity", "rank-one")


class ConfigError(ValueError):
    """Campaign config rejected: unknown key, bad type, or bad value."""


def checked_tol(value: float, name: str) -> float:
    """A margin tolerance must be a finite nonnegative number; NaN and inf
    would fail or pass every margin, and true would read as 1.0."""
    if not _is_real(value) or not 0.0 <= value < float("inf"):
        raise ConfigError(f"{name} must be a finite nonnegative number")
    return float(value)


def _is_int(value) -> bool:
    # bool is a subclass of int, but true is not a trial count or a seed
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # nor is true a ratio or a tolerance, and "0.5" is not a number
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _listed(raw: dict, key: str, default: list, message: str) -> tuple:
    # a scalar where a list belongs is a usage error, not something to iterate
    value = raw.get(key, default)
    if not isinstance(value, (list, tuple)):
        raise ConfigError(message)
    return tuple(value)


def read_config(path: str) -> dict:
    """The raw JSON object of a config file; a parse error is reported as
    `path:line: message`."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}:{err.lineno}: {err.msg}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return raw


@dataclass(frozen=True)
class CampaignConfig:
    trials: int
    ns: tuple[int, ...]
    plans: tuple[str, ...]
    v_ratios: tuple[float, ...]
    seeds: tuple[int, ...]
    tolerances: dict[str, float]

    @classmethod
    def from_dict(
        cls,
        raw: dict,
        trials: int | None = None,
        seed_base: int | None = None,
        tol: float | None = None,
    ) -> "CampaignConfig":
        """The config `raw` describes. `trials`, `seed_base` and `tol`, where
        given, override its trial count (keeping a prefix of its listed
        seeds), its seeds (seed_base + k for trial k) and its default
        tolerance; they are applied after raw's own checks."""
        known = {"trials", "n", "plans", "v_ratios", "seeds", "seed_base", "tolerances"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        count = raw.get("trials", 0)
        trials = count if trials is None else trials
        if not all(_is_int(k) and k >= 0 for k in (count, trials)):
            raise ConfigError("trials must be a nonnegative integer")
        ns_raw = raw.get("n", [8])
        ns = tuple(ns_raw) if isinstance(ns_raw, list) else (ns_raw,)
        if not ns or not all(isinstance(n, int) and n >= 2 for n in ns):
            raise ConfigError("n must be an integer >= 2 or a nonempty list of them")
        message = f"plans must be a nonempty subset of {PLAN_NAMES}"
        plans = _listed(raw, "plans", [CONVEX_SEPARATED], message)
        if not plans or any(p not in PLAN_NAMES for p in plans):
            raise ConfigError(message)
        message = "v_ratios must be a nonempty list of numbers inside [0, 1)"
        v_ratios = _listed(raw, "v_ratios", [0.5], message)
        if not v_ratios or not all(_is_real(v) and 0.0 <= v < 1.0 for v in v_ratios):
            raise ConfigError(message)
        if "seeds" in raw and "seed_base" in raw:
            raise ConfigError("give either seeds or seed_base, not both")
        message = "seeds must list exactly one integer per trial"
        listed = _listed(raw, "seeds", [], message)
        if "seeds" in raw and (len(listed) != count or not all(map(_is_int, listed))):
            raise ConfigError(message)
        base = raw.get("seed_base", 1) if seed_base is None else seed_base
        if not all(map(_is_int, (raw.get("seed_base", 1), base))):
            raise ConfigError("seed_base must be an integer")
        if "seeds" in raw and seed_base is None:
            if len(listed) < trials:
                raise ConfigError(message)
            seeds = listed[:trials]
        else:
            seeds = tuple(base + k for k in range(trials))
        tol_raw = raw.get("tolerances", {})
        if not isinstance(tol_raw, dict):
            raise ConfigError("tolerances must be a mapping")
        bad = set(tol_raw) - {"default", *BOUND_NAMES}
        if bad:
            raise ConfigError(f"unknown tolerance keys: {sorted(bad)}")
        tolerances = {
            k: checked_tol(v, f"tolerance {k!r}") for k, v in tol_raw.items()
        }
        if tol is not None:
            tolerances["default"] = checked_tol(tol, "the default tolerance")
        config = cls(
            trials=trials,
            ns=ns,
            plans=plans,
            v_ratios=tuple(float(v) for v in v_ratios),
            seeds=seeds,
            tolerances=tolerances,
        )
        # refuse a size a plan's generator cannot build before any trial runs
        # (sharpness ignores n; _plan_for gives it the convex plan, which fits)
        for name, n in dict.fromkeys((name, n) for _, name, n, _ in config.schedule):
            try:
                _plan_for(name, n)
            except ValueError as err:
                raise ConfigError(f"n = {n} does not fit plan {name!r}: {err}") from None
        return config

    @classmethod
    def from_json_file(cls, path: str, **overrides) -> "CampaignConfig":
        return cls.from_dict(read_config(path), **overrides)

    @cached_property
    def schedule(self) -> list[tuple[int, str, int, float]]:
        """(seed, plan, n, v_ratio) of each trial, in ascending seed order:
        plans cycle fastest over trials, then v_ratios, then n."""
        pending = []
        for k in range(self.trials):
            block = k // len(self.plans)
            v_ratio = self.v_ratios[block % len(self.v_ratios)]
            n = self.ns[(block // len(self.v_ratios)) % len(self.ns)]
            pending.append((self.seeds[k], self.plans[k % len(self.plans)], n, v_ratio))
        return sorted(pending, key=lambda item: item[0])

    def tol_for(self, bound_name: str) -> float:
        return self.tolerances.get(
            bound_name, self.tolerances.get("default", DEFAULT_TOL)
        )


@dataclass(frozen=True)
class BoundRow:
    instance_id: str
    t: float
    theta: float
    bound_name: str
    bound_value: float
    margin: float
    passed: bool

    def to_mapping(self) -> dict:
        # __dict__ holds the fields in declaration order, which ROW_FIELDS
        # names ("passed" as "pass")
        return dict(zip(ROW_FIELDS, vars(self).values(), strict=True))


@dataclass(frozen=True)
class TrialReport:
    seed: int
    instance_id: str
    n: int
    geometry: str
    d: float
    v_norm: float
    theta: float
    rows: tuple[BoundRow, ...]
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)


def _plan_for(name: str, n: int) -> SpecPlan:
    if name == DOUBLY_INTERLEAVED:
        return interleaved_plan(n)
    return convex_plan(n)


def _build_instance(name: str, n: int, v_ratio: float, seed: int) -> PerturbationInstance:
    if name == "sharpness":
        return sharpness_pair(v_ratio)
    if name == "rank-one":
        return rank_one_instance(n, convex_plan(n), v_ratio, seed)
    return random_instance(n, _plan_for(name, n), v_ratio, seed)


def walk_path(
    inst: PerturbationInstance, pairs: Sequence[tuple[float, float]]
) -> tuple[dict[float, SpectralDecomposition], list[AngleReport]]:
    """Walk the path A + tV over the times of `pairs`: the decomposition at
    each distinct t, from `inst.spectra`, and the angle report of each pair
    (s, t) in order. Each t's bases come from `omega_component`, and all
    pairs share one `angle_reports` call. The campaign, `chain_demo` and the
    sharpness sweep all walk the path here.
    """
    decs = inst.spectra(t for pair in pairs for t in pair)
    bases = {t: omega_component(inst, t, dec=dec).bases for t, dec in decs.items()}
    return decs, angle_reports([(bases[s], bases[t]) for s, t in pairs])


def _measure_trial(
    config: CampaignConfig, name: str, n: int, v_ratio: float, seed: int
) -> TrialReport:
    started = time.perf_counter()
    inst = _build_instance(name, n, v_ratio, seed)
    pairs = [(s, t) for i, s in enumerate(T_GRID) for t in T_GRID[i + 1 :]]
    decs, reports = walk_path(inst, pairs)
    angles = dict(zip(pairs, reports))
    endpoints = angles[(0.0, 1.0)]
    theta = float(endpoints.max_angle)
    rows: list[BoundRow] = []

    def add(bound_name: str, t: float, bound_value: float, margin: float):
        # numpy scalars sneak in via array indexing; rows must hold built-in
        # floats so repr/json serialization stays portable
        rows.append(
            BoundRow(
                instance_id=inst.label,
                t=float(t),
                theta=theta,
                bound_name=bound_name,
                bound_value=float(bound_value),
                margin=float(margin),
                passed=bool(margin >= -config.tol_for(bound_name)),
            )
        )

    for t in T_GRID:
        report = enclosure_check(inst, t, dec=decs[t])
        add("enclosure", t, 0.0, report.worst_margin)

    convex = inst.geometry == CONVEX_SEPARATED
    value = bound_sin2theta(inst.v_norm, inst.d, convex)
    add("sin2theta", 1.0, value, value - endpoints.sin2_norm)
    for bound_name, value in angle_bounds(inst.v_norm, inst.d, convex).items():
        add(bound_name, 1.0, value, value - theta)

    worst = min(
        continuity_modulus(inst.v_norm, inst.d, s, t) - angles[(s, t)].sines[0]
        for s, t in pairs
    )
    add("continuity", 1.0, continuity_modulus(inst.v_norm, inst.d, 0.0, 1.0), worst)

    if name == "rank-one":
        value = inst.v_norm / inst.d
        add("rank-one", 1.0, value, value - endpoints.sines[0])

    rows.sort(key=lambda row: (row.bound_name, row.t))
    return TrialReport(
        seed=seed,
        instance_id=inst.label,
        n=inst.a.dim,
        geometry=inst.geometry,
        d=inst.d,
        v_norm=inst.v_norm,
        theta=theta,
        rows=tuple(rows),
        elapsed_s=time.perf_counter() - started,
    )


def run_campaign(config: CampaignConfig) -> Iterator[TrialReport]:
    """Run every trial and yield reports in ascending seed order."""
    for seed, name, n, v_ratio in config.schedule:
        yield _measure_trial(config, name, n, v_ratio, seed)


def rows_of(reports: Iterable[TrialReport]) -> Iterator[BoundRow]:
    for report in reports:
        yield from report.rows


def rows_jsonl(reports: Iterable[TrialReport]) -> str:
    lines = [json.dumps(row.to_mapping()) for row in rows_of(reports)]
    return "\n".join(lines) + ("\n" if lines else "")


def csv_text(table: Iterable[Sequence]) -> str:
    """The CSV of `table`, one line per row. csv writes a float as its repr
    and None as a blank cell; a verdict is spelled as in JSON."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in table:
        writer.writerow(["true" if c is True else "false" if c is False else c for c in row])
    return buffer.getvalue()


def rows_table(reports: Iterable[TrialReport]) -> list[Sequence]:
    return [ROW_FIELDS, *(vars(row).values() for row in rows_of(reports))]
