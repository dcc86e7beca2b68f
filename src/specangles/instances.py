"""Deterministic instance generators.

Exact constructions: the 2x2 family saturating the favorable-geometry bound
and the 4x4 PSD block example hitting both ends of the block-norm inequality.
Seeded ensembles: random instances whose base-matrix spectrum is sampled
inside a SpecPlan's clusters with the gap pinned exactly, perturbed by either
a full-rank PSD matrix, a sampled spectrum behind a Haar basis, or by a
rank-one spike. Everything is reproducible bit for bit from (plan, n,
v_ratio, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    CONVEX_SEPARATED,
    PerturbationInstance,
    convexity_condition,
)
from .core import (
    IntervalSet,
    Projector,
    SpectralDecomposition,
    SymmetricMatrix,
    decompositions,
    set_distance,
)
from .rng import PortableRng

DOUBLY_INTERLEAVED = "doubly-interleaved"


@dataclass(frozen=True, eq=False)
class SpecPlan:
    """Where the base spectrum may live: interval clusters for the tracked
    component and its complement, eigenvalue counts per set, and the exact
    gap d_target the sampler must realize, within 1e-12 * d_target."""

    geometry: str
    sigma_locs: IntervalSet
    big_sigma_locs: IntervalSet
    counts: tuple[int, int]
    d_target: float

    def __post_init__(self):
        if self.geometry not in (CONVEX_SEPARATED, DOUBLY_INTERLEAVED):
            raise ValueError(f"unknown geometry {self.geometry!r}")
        if self.sigma_locs.is_empty or self.big_sigma_locs.is_empty:
            raise ValueError("both location sets must be nonempty")
        n_sigma, n_big = self.counts
        if n_sigma < len(self.sigma_locs.intervals):
            raise ValueError("every sigma cluster needs at least one eigenvalue")
        if n_big < len(self.big_sigma_locs.intervals):
            raise ValueError("every Sigma cluster needs at least one eigenvalue")
        gap = set_distance(self.sigma_locs, self.big_sigma_locs)
        if not self.realizes(gap):
            raise ValueError(
                f"cluster gap {gap!r} does not realize d_target {self.d_target!r}"
            )
        if convexity_condition(self.sigma_locs, self.big_sigma_locs) != (
            self.geometry == CONVEX_SEPARATED
        ):
            raise ValueError("geometry label contradicts the hull conditions")

    def realizes(self, gap: float) -> bool:
        """Whether a cluster gap equals d_target, relative to its scale."""
        return abs(gap - self.d_target) <= 1e-12 * self.d_target

    @property
    def n(self) -> int:
        return self.counts[0] + self.counts[1]


def convex_plan(n: int, d_target: float = 1.0) -> SpecPlan:
    """One cluster per set, separated by exactly d_target."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not d_target > 0:
        raise ValueError("d_target must be positive")
    s = float(d_target)
    n_sigma = max(1, n // 2)
    return SpecPlan(
        geometry=CONVEX_SEPARATED,
        sigma_locs=IntervalSet(((-1.0 * s, -0.25 * s),)),
        big_sigma_locs=IntervalSet(((0.75 * s, 1.5 * s),)),
        counts=(n_sigma, n - n_sigma),
        d_target=s,
    )


def interleaved_plan(n: int) -> SpecPlan:
    """Doubly interleaved clusters violating both hull conditions.

    sigma lives on [-1/2, 0] and {4}, Sigma on {2} and [6, 6.5]; every
    adjacent cluster pair is exactly 2 apart. The inner clusters are
    degenerate points, so sampling realizes the gap exactly without pinning.
    """
    if n < 4:
        raise ValueError("need n >= 4 for two clusters per set")
    n_sigma = n // 2
    return SpecPlan(
        geometry=DOUBLY_INTERLEAVED,
        sigma_locs=IntervalSet(((-0.5, 0.0), (4.0, 4.0))),
        big_sigma_locs=IntervalSet(((2.0, 2.0), (6.0, 6.5))),
        counts=(n_sigma, n - n_sigma),
        d_target=2.0,
    )


def sharpness_pair(v: float) -> PerturbationInstance:
    """The 2x2 family attaining the favorable-geometry bound.

    A = diag(-1/2, 1/2) and the PSD V with spec(V) = {0, v} rotate the lower
    eigenvector by exactly (1/2)*arcsin(v); the gap is 1 and ||V|| = v.
    """
    if not 0.0 <= v < 1.0:
        raise ValueError("v must lie in [0, 1)")
    root = math.sqrt(1.0 - v * v)
    a = SymmetricMatrix(np.array([[-0.5, 0.0], [0.0, 0.5]]))
    pert = SymmetricMatrix(
        np.array(
            [
                [v * (v + 1.0) / 2.0, v * root / 2.0],
                [v * root / 2.0, v * (1.0 - v) / 2.0],
            ]
        )
    )
    return PerturbationInstance.build(a, pert, (0,), label=f"sharpness-v{v:g}")


def block_example(x: float, y: float) -> tuple[SymmetricMatrix, Projector]:
    """The 4x4 PSD matrix whose off-diagonal block saturates 2||W|| = ||V||.

    Blocks V0 = diag(y, x/2), V1 = diag(x/2, y), W = [[0,0],[x/2,0]] against
    the projector onto the first two coordinates; spectrum {0, x, y, y}, so
    the norm triple is (x, x, 2y). Exact in floating point on dyadic inputs.
    """
    if not x > 0:
        raise ValueError("x must be positive")
    if not x / 2.0 <= y <= x:
        raise ValueError("y must lie in [x/2, x]")
    v = SymmetricMatrix(
        np.array(
            [
                [y, 0.0, 0.0, 0.0],
                [0.0, x / 2.0, x / 2.0, 0.0],
                [0.0, x / 2.0, x / 2.0, 0.0],
                [0.0, 0.0, 0.0, y],
            ]
        )
    )
    q = Projector(SymmetricMatrix(np.diag([1.0, 1.0, 0.0, 0.0])), rank=2)
    return v, q


def _spread(count: int, buckets: int) -> list[int]:
    base, extra = divmod(count, buckets)
    return [base + (1 if k < extra else 0) for k in range(buckets)]


def _facing_endpoints(plan: SpecPlan) -> tuple[int, float, int, float]:
    # First interval pair realizing the gap, with the endpoints facing each
    # other across it; those two values get pinned so d == d_target exactly.
    for si, (alo, ahi) in enumerate(plan.sigma_locs.intervals):
        for bi, (blo, bhi) in enumerate(plan.big_sigma_locs.intervals):
            if plan.realizes(blo - ahi):
                return si, ahi, bi, blo
            if plan.realizes(alo - bhi):
                return si, alo, bi, bhi
    raise ValueError("no cluster pair realizes d_target")


def _sample_set(
    rng: PortableRng, locs: IntervalSet, count: int, pin: tuple[int, float] | None
) -> list[float]:
    values: list[float] = []
    shares = _spread(count, len(locs.intervals))
    for k, (lo, hi) in enumerate(locs.intervals):
        if lo == hi:
            block = [lo] * shares[k]
        else:
            block = list(rng.uniform_in(lo, hi, shares[k]))
        if pin is not None and pin[0] == k:
            block[0] = pin[1]
        values.extend(block)
    return values


def _base_matrix(
    plan: SpecPlan, n: int, rng: PortableRng
) -> tuple[SymmetricMatrix, SpectralDecomposition, tuple[int, ...]]:
    if n != plan.n:
        raise ValueError(f"plan carries {plan.n} eigenvalues, asked for {n}")
    si, sval, bi, bval = _facing_endpoints(plan)
    sigma_vals = _sample_set(rng, plan.sigma_locs, plan.counts[0], (si, sval))
    big_vals = _sample_set(rng, plan.big_sigma_locs, plan.counts[1], (bi, bval))
    labeled = [(w, True) for w in sigma_vals] + [(w, False) for w in big_vals]
    labeled.sort(key=lambda pair: pair[0])
    lam = np.array([w for w, _ in labeled])
    sigma_indices = tuple(k for k, (_, is_sigma) in enumerate(labeled) if is_sigma)
    q = rng.haar_orthogonal(n)
    a = SymmetricMatrix((q * lam) @ q.T)
    return a, decompositions(lam[None], q[None])[0], sigma_indices


def random_instance(
    n: int, plan: SpecPlan, v_ratio: float, seed: int
) -> PerturbationInstance:
    """Seeded instance: spectrum sampled inside the plan's clusters behind a
    Haar-random basis, perturbed by V = H diag(mu) H^T with H Haar-random and
    mu = c * u^2, c = v_ratio * d_target, for n ascending uniform draws u whose
    largest is set to 1, so ||V|| = c exactly. The squares give mu the density
    proportional to mu^(-1/2) near 0 that the spectrum of a square Gram matrix
    G G^T has. Nothing is solved: A's draws come first, and both spectra and
    bases are the sampled ones."""
    if not 0.0 <= v_ratio < 1.0:
        raise ValueError("v_ratio must lie in [0, 1)")
    rng = PortableRng(seed)
    a, dec_a, sigma_indices = _base_matrix(plan, n, rng)
    u_squared = np.sort(rng.uniforms(n) ** 2)
    u_squared[-1] = 1.0
    v_eigenvalues = v_ratio * plan.d_target * u_squared
    h = rng.haar_orthogonal(n)
    v = SymmetricMatrix((h * v_eigenvalues) @ h.T)
    label = f"{plan.geometry}-n{n}-v{v_ratio:g}-s{seed}"
    return PerturbationInstance.assemble(a, v, sigma_indices, dec_a, v_eigenvalues, label)


def rank_one_instance(
    n: int, plan: SpecPlan, v_ratio: float, seed: int
) -> PerturbationInstance:
    """Seeded instance whose perturbation is the rank-one spike c * (u u^T),
    c = v_ratio * d_target, for a random unit vector u. Nothing is solved:
    A's spectrum and basis are the sampled ones, V's spectrum (0, ..., 0, c)."""
    if not 0.0 <= v_ratio < 1.0:
        raise ValueError("v_ratio must lie in [0, 1)")
    rng = PortableRng(seed)
    a, dec_a, sigma_indices = _base_matrix(plan, n, rng)
    u = rng.unit_vector(n)
    c = v_ratio * plan.d_target
    v = SymmetricMatrix(c * np.outer(u, u))
    label = f"rank-one-{plan.geometry}-n{n}-v{v_ratio:g}-s{seed}"
    return PerturbationInstance.assemble(
        a, v, sigma_indices, dec_a, np.append(np.zeros(n - 1), c), label
    )
