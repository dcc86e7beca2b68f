"""Constrained-partition machinery behind the generic angle bound.

A partition of the perturbation ratio x = ||V||/d is a vector of step ratios
lambda_0..lambda_{n-1}, each in [0, 2/pi], multiplying out to
prod(1 - lambda_j) = 1 - x. Each step admits the local angle cap
(1/2)*arcsin(pi*lambda_j/2), so the total angle is bounded by the objective
(1/2)*sum arcsin(pi*lambda_j/2). The closed-form bound function N is the
infimum of this objective over all feasible partitions; optimize() is the
numerical oracle for that infimum, independent of the closed form, and
chain_demo() realizes partitions as actual projector paths P_{t_j}.

optimize() rests on an exact reduction, argued in its docstring: in the log
coordinate mu_j = -log(1 - lambda_j), a best partition with n parts has one
free step and n - 1 equal ones, so one step per part count is searched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import C_CRIT_SEM, DEFAULT_TOL, PerturbationInstance, bound_corollary
from .campaign import walk_path
from .core import _index

LAMBDA_MAX = 2.0 / math.pi
PRODUCT_TOL = 1e-8
MU_MAX = -math.log1p(-LAMBDA_MAX)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Search effort of optimize(): coarse scan points and golden-section steps of
# the one free step per part count.
PAIR_GRID = 25
GOLDEN_ITERS = 48


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


def _renormalize(lams: list[float], x: float) -> bool:
    # Pin the product constraint exactly on the largest step of a nonempty
    # partition; refuse it if repair would push that step out of range.
    j = max(range(len(lams)), key=lambda k: lams[k])
    rest = math.prod(1.0 - lams[k] for k in range(len(lams)) if k != j)
    if rest <= 0.0:
        return False
    lam = 1.0 - (1.0 - x) / rest
    if not -1e-9 <= lam <= LAMBDA_MAX + 1e-9:
        return False
    lams[j] = min(max(lam, 0.0), LAMBDA_MAX)
    return True


def _cap(mu: float) -> float:
    # One step's cap at mu = -log(1 - lambda), clamped where rounding passes 1.
    return 0.5 * math.asin(min(1.0, -0.5 * math.pi * math.expm1(-mu)))


def _split_plans(x: float, total: float, n: int):
    # The n-part equal split, then the best n-part plan with one free step a
    # and n - 1 steps at (total - a)/(n - 1), all in mu: a coarse scan of a,
    # since the sum can have two basins, refined by golden section.
    yield make_plan(x, [-math.expm1(-total / n)] * n)
    if n == 1:
        return

    def cost(a: float) -> float:
        return _cap(a) + (n - 1) * _cap((total - a) / (n - 1))

    lo = max(0.0, total - (n - 1) * MU_MAX)
    hi = min(MU_MAX, total)
    step = (hi - lo) / (PAIR_GRID - 1)
    scan = min((lo + k * step for k in range(PAIR_GRID)), key=cost)
    a = _golden_min(cost, max(lo, scan - step), min(hi, scan + step))
    yield make_plan(x, [-math.expm1(-a)] + [-math.expm1((a - total) / (n - 1))] * (n - 1))


def optimize(x: float, n_max: int = 8) -> PartitionPlan:
    """Numerically approach the partition infimum for ratio x.

    In mu_j = -log(1 - lambda_j) the constraint reads sum mu_j = -log(1 - x),
    and one step's cap (1/2)*arcsin(pi*(1 - exp(-mu))/2) is concave in mu
    below lambda = 4/pi^2 and convex above it. So a minimizer with n parts
    has at most one step in the concave part, since two there could trade
    mass and lower the sum; its other steps share one derivative on the
    convex part, where the derivative increases, and so one value; no step
    sits at 2/pi, where the derivative is infinite; a zero step drops out to
    n - 1 parts. For each n = 1..n_max this leaves one free step a with the
    other n - 1 at (-log(1 - x) - a)/(n - 1): optimize() tries the equal
    split, scans a coarsely and refines the best scan point by golden
    section. It returns the best plan over n, the one with fewer parts on a
    tie; its objective is an upper bound for the true infimum.
    """
    if not 0.0 <= x <= C_CRIT_SEM:
        raise ValueError(f"x={x!r} outside [0, {C_CRIT_SEM!r}]")
    if _index(n_max) < 1:
        raise ValueError("n_max must be at least 1")
    if x == 0.0:
        return PartitionPlan(x=0.0, lambdas=(), objective=0.0)
    total = -math.log1p(-x)
    feasible = [n for n in range(1, n_max + 1) if total <= n * MU_MAX]
    plans = [plan for n in feasible for plan in _split_plans(x, total, n)]
    if not plans:
        raise ValueError(f"no feasible partition with at most {n_max} parts")
    best = min(plans, key=lambda plan: plan.objective)
    # make_plan's repair can move the largest step an ulp below the next
    return PartitionPlan(x, tuple(sorted(best.lambdas, reverse=True)), best.objective)


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
