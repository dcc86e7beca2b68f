"""Constrained-partition machinery behind the generic angle bound.

A partition of the perturbation ratio x = ||V||/d is a vector of step ratios
lambda_0..lambda_{n-1}, each in [0, 2/pi], multiplying out to
prod(1 - lambda_j) = 1 - x. Each step admits the local angle cap
(1/2)*arcsin(pi*lambda_j/2), so the total angle is bounded by the objective
(1/2)*sum arcsin(pi*lambda_j/2). The closed-form bound function N is the
infimum of this objective over all feasible partitions; optimize() is the
numerical oracle for that infimum, independent of the closed form, and
chain_demo() realizes partitions as actual projector paths P_{t_j}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import C_CRIT_SEM, DEFAULT_TOL, PerturbationInstance, bound_corollary
from .campaign import walk_path
from .core import _index

LAMBDA_MAX = 2.0 / math.pi
PRODUCT_TOL = 1e-8
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Search effort of optimize(): two-level seed levels per part count, coarse
# scan points and golden-section steps per pair move, descent cycles per seed,
# and the number of best seeds refined besides the best seed of each count.
SEED_SCAN = 17
PAIR_GRID = 25
GOLDEN_ITERS = 48
DESCENT_CYCLES = 8
POLISH_TOP = 6


@dataclass(frozen=True)
class PartitionPlan:
    """A feasible partition: ratio x, step values, and the angle objective."""

    x: float
    lambdas: tuple[float, ...]
    objective: float

    def to_json(self) -> dict:
        return {"x": self.x, "lambdas": list(self.lambdas), "objective": self.objective}


@dataclass(frozen=True)
class ChainPlan:
    """A partition realized on a concrete instance: interpolation grid,
    per-step maximal angles between consecutive path projectors, local caps
    (None where a step ratio exceeds 2/pi and no cap applies), and the
    end-to-end maximal angle."""

    t_grid: tuple[float, ...]
    lambdas: tuple[float, ...]
    per_step_angles: tuple[float, ...]
    local_caps: tuple[float | None, ...]
    total_angle: float


def _objective(lambdas) -> float:
    return 0.5 * math.fsum(math.asin(math.pi * lam / 2.0) for lam in lambdas)


def make_plan(x: float, lambdas) -> PartitionPlan:
    """Validate a partition of x and compute its objective.

    Every step must lie in [0, 2/pi] and the product prod(1 - lambda_j) must
    match 1 - x within 1e-8; violations raise. The accepted steps are then
    repaired on the largest coordinate so the stored plan satisfies the
    product constraint exactly up to rounding.
    """
    if not 0.0 <= x < 1.0:
        raise ValueError("x must lie in [0, 1)")
    lams = [float(v) for v in lambdas]
    for lam in lams:
        if not -1e-12 <= lam <= LAMBDA_MAX + 1e-12:
            raise ValueError(f"step ratio {lam!r} outside [0, 2/pi]")
    lams = [min(max(lam, 0.0), LAMBDA_MAX) for lam in lams]
    product = math.prod(1.0 - lam for lam in lams)
    if abs(product - (1.0 - x)) > PRODUCT_TOL:
        raise ValueError(
            f"infeasible partition: product {product!r} vs required {1.0 - x!r}"
        )
    if not lams:
        if x != 0.0:
            raise ValueError("empty partition only represents x = 0")
    else:
        pinned = _renormalize(lams, x)
        final = math.prod(1.0 - lam for lam in lams)
        if not pinned or abs(final - (1.0 - x)) > 1e-10:
            raise ValueError("partition is not exactly feasible within [0, 2/pi]")
    out = tuple(lams)
    return PartitionPlan(x=x, lambdas=out, objective=_objective(out))


def _pair_window(r: float) -> tuple[float, float]:
    # Feasible range for u = 1 - lambda_i when the partner is eliminated via
    # (1 - lambda_i)(1 - lambda_j) = r and both steps must stay in [0, 2/pi].
    lo = max(1.0 - LAMBDA_MAX, r)
    hi = min(1.0, r / (1.0 - LAMBDA_MAX))
    return lo, hi


def _pair_objective(u: float, r: float) -> float:
    # At the window endpoints rounding can push an argument a few ulp past 1;
    # clamping there shifts the objective by O(ulp) only.
    a = min(1.0, math.pi * (1.0 - u) / 2.0)
    b = min(1.0, math.pi * (1.0 - r / u) / 2.0)
    return 0.5 * (math.asin(a) + math.asin(b))


def _golden_min(f, lo: float, hi: float) -> float:
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(GOLDEN_ITERS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)

def _pair_move(lams: list[float], i: int, j: int) -> bool:
    # The pair objective can be bimodal around the symmetric point, so a
    # coarse scan picks the basin before golden-section refines it.
    r = (1.0 - lams[i]) * (1.0 - lams[j])
    lo, hi = _pair_window(r)
    if hi - lo < 1e-15:
        return False
    best_u = 1.0 - lams[i]
    best_f = _pair_objective(best_u, r)
    step = (hi - lo) / (PAIR_GRID - 1)
    scan_u, scan_f = best_u, best_f
    for k in range(PAIR_GRID):
        u = lo + k * step
        fu = _pair_objective(u, r)
        if fu < scan_f:
            scan_u, scan_f = u, fu
    u = _golden_min(
        lambda v: _pair_objective(v, r),
        max(lo, scan_u - step),
        min(hi, scan_u + step),
    )
    fu = _pair_objective(u, r)
    if fu >= best_f - 1e-15:
        return False
    lams[i] = 1.0 - u
    lams[j] = 1.0 - r / u
    return True


def _renormalize(lams: list[float], x: float) -> bool:
    # Pin the product constraint exactly on the largest step; reject the
    # iterate if repair would push that step out of range.
    if not lams:
        return x == 0.0
    j = max(range(len(lams)), key=lambda k: lams[k])
    rest = math.prod(1.0 - lams[k] for k in range(len(lams)) if k != j)
    if rest <= 0.0:
        return False
    lam = 1.0 - (1.0 - x) / rest
    if not -1e-9 <= lam <= LAMBDA_MAX + 1e-9:
        return False
    lams[j] = min(max(lam, 0.0), LAMBDA_MAX)
    return True


def _equal_split(x: float, n: int) -> list[float] | None:
    lam = 1.0 - (1.0 - x) ** (1.0 / n)
    if lam > LAMBDA_MAX:
        return None
    return [lam] * n


def _two_level_seeds(x: float, n: int) -> list[list[float]]:
    # k steps pinned at a common value a, the rest equal at the b solving the
    # product constraint; scan a over the admissible range.
    out = []
    for k in range(1, n):
        for idx in range(1, SEED_SCAN + 1):
            a = LAMBDA_MAX * idx / (SEED_SCAN + 1)
            rem = (1.0 - x) / (1.0 - a) ** k
            if not (1.0 - LAMBDA_MAX) ** (n - k) <= rem <= 1.0:
                continue
            b = 1.0 - rem ** (1.0 / (n - k))
            out.append([a] * k + [b] * (n - k))
    return out


def optimize(x: float, n_max: int = 8) -> PartitionPlan:
    """Numerically approach the partition infimum for ratio x.

    Seeds every part count n = 1..n_max with the equal split plus two-level
    splits, then refines the most promising seeds by cyclic pair descent: each
    move redistributes product mass inside one pair of steps, eliminating the
    partner through the constraint so every iterate stays feasible. Returns
    the best feasible plan found; its objective is an upper bound for the true
    infimum by construction. Ties break deterministically by
    (objective, part count, lexicographic steps).
    """
    if not 0.0 <= x <= C_CRIT_SEM:
        raise ValueError(f"x={x!r} outside [0, {C_CRIT_SEM!r}]")
    if _index(n_max) < 1:
        raise ValueError("n_max must be at least 1")
    if x == 0.0:
        return PartitionPlan(x=0.0, lambdas=(), objective=0.0)

    seeds: list[list[float]] = []
    for n in range(1, n_max + 1):
        equal = _equal_split(x, n)
        if equal is not None:
            seeds.append(equal)
        seeds.extend(_two_level_seeds(x, n))
    if not seeds:
        raise ValueError(f"no feasible partition with at most {n_max} parts")

    def key(lams: list[float]):
        return (_objective(lams), len(lams), tuple(sorted(lams, reverse=True)))

    seeds.sort(key=key)
    chosen: list[list[float]] = []
    seen_n = set()
    for lams in seeds:
        top = len(chosen) < POLISH_TOP
        first_of_n = len(lams) not in seen_n
        if top or first_of_n:
            chosen.append(lams)
            seen_n.add(len(lams))

    best: list[float] = chosen[0]
    best_obj = _objective(best)
    for lams in chosen:
        lams = list(lams)
        current = _objective(lams)
        for _ in range(DESCENT_CYCLES):
            before = current
            for i in range(len(lams) - 1):
                for j in range(i + 1, len(lams)):
                    if _pair_move(lams, i, j) and not _renormalize(lams, x):
                        raise AssertionError("refinement left the feasible set")
            current = _objective(lams)
            if before - current < 1e-13:
                break
        if (current, len(lams)) < (best_obj, len(best)):
            best, best_obj = lams, current

    return make_plan(x, tuple(sorted(best, reverse=True)))


def chain_demo(inst: PerturbationInstance, t_grid) -> ChainPlan:
    """Walk the projector path P_t along a grid and report per-step angles.

    Each step ratio lambda_j = (t_{j+1}-t_j)*||V||/(d - t_j*||V||) with
    lambda_j <= 2/pi must keep its step angle under (1/2)*arcsin(pi*lambda_j/2);
    a violation (or a total angle exceeding the step sum) raises, since both
    are guaranteed facts being demonstrated, not hypotheses.
    """
    grid = tuple(float(t) for t in t_grid)
    if len(grid) < 2 or grid[0] != 0.0 or grid[-1] != 1.0:
        raise ValueError("t_grid must run from 0.0 to 1.0")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("t_grid must be nondecreasing")
    if inst.v_norm >= inst.d:
        raise ValueError("gap non-closing hypothesis ||V|| < d violated")

    _, reports = walk_path(inst, [*zip(grid, grid[1:]), (0.0, 1.0)])

    lambdas = []
    caps: list[float | None] = []
    angles = []
    for j in range(len(grid) - 1):
        lam = (grid[j + 1] - grid[j]) * inst.v_norm / (inst.d - grid[j] * inst.v_norm)
        lambdas.append(lam)
        caps.append(bound_corollary(lam, 1.0) if lam <= LAMBDA_MAX else None)
        angles.append(reports[j].max_angle)
        if caps[j] is not None and angles[j] > caps[j] + DEFAULT_TOL:
            raise AssertionError(
                f"step {j} angle {angles[j]!r} exceeds its local cap {caps[j]!r}"
            )

    total = reports[-1].max_angle
    if total > math.fsum(angles) + 1e-10:
        raise AssertionError("total angle exceeds the per-step sum")
    return ChainPlan(
        t_grid=grid,
        lambdas=tuple(lambdas),
        per_step_angles=tuple(angles),
        local_caps=tuple(caps),
        total_angle=total,
    )


def riemann_limit_check(x: float, n: int) -> float:
    """Objective of the uniform-grid partition with n steps.

    The steps lambda_j = (x/n)/(1 - (j/n)x) telescope to a feasible partition
    of x; as n grows the objective converges to (pi/4)*log(1/(1-x)), the
    integral the per-step caps Riemann-sum into. Returns the finite-n value.
    """
    if not 0.0 <= x < 1.0:
        raise ValueError("x must lie in [0, 1)")
    if _index(n) < 1:
        raise ValueError("n must be at least 1")
    lambdas = [(x / n) / (1.0 - (j / n) * x) for j in range(n)]
    return make_plan(x, lambdas).objective
