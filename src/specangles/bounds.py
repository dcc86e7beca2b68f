"""Closed-form perturbation bounds for spectral subspaces of real symmetric
matrices under positive-semidefinite perturbations.

Setting: A symmetric with spectrum split into components sigma and Sigma at
distance d > 0, perturbed along the path A + tV with V >= 0 and ||V|| < d.
The subspace tracked is the one belonging to omega_t, the part of
spec(A + tV) trapped in the one-sided enlargement sigma + [0, t*||V||]; by
Weyl's inequalities these are the eigenvalues at sigma's indices, so sigma
is carried by its indices alone and omega_t is selected by the same ones.
This module provides the enclosure check, the angle bounds
(favorable-geometry, sin-2-theta, arcsin corollary, generic N, log integral)
with angle_bounds deciding their hypotheses, the piecewise bound function N
with its switchover root kappa, and the critical constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache
from typing import Iterable

import numpy as np

from .core import (
    IntervalSet,
    SpectralDecomposition,
    SymmetricMatrix,
    _index,
    _scaled,
    _solved_diagonals,
    decompositions,
    eigh_many,
    membership_tol,
    require_psd,
    set_distance,
    spectral_projector,  # the benchmark's tracer wraps it here: ROADMAP item 1
)

# Critical ratios: a semidefinite perturbation admits the generic bound up to
# ||V||/d < c_crit_sem = 1 - (1 - sqrt(3)/pi)^3; the bound function N lives on
# [0, c_crit] with c_crit = c_crit_sem / 2. The log-integral bound stays below
# pi/2 exactly while ||V||/d < 2*sinh(1)/e.
C_CRIT_SEM = 1.0 - (1.0 - math.sqrt(3.0) / math.pi) ** 3
C_CRIT = C_CRIT_SEM / 2.0
LOG_THRESHOLD = 2.0 * math.sinh(1.0) / math.e

# Breakpoints of N's first three pieces; the fourth starts at kappa.
N_BREAK_1 = 4.0 / (math.pi**2 + 4.0)
N_BREAK_2 = 4.0 * (math.pi**2 - 2.0) / math.pi**4
KAPPA_SUP = 2.0 * (math.pi - 1.0) / math.pi**2

# Overshoot past +/-1 that arcsin arguments may carry from rounding.
ASIN_SLACK = 1e-12

# Default margin tolerance: a bound passes while bound - measured >= -tol.
DEFAULT_TOL = 1e-8

# Largest residual of the kappa equation that kappa_solve returns.
KAPPA_TOL = 1e-13

# The bounds angle_bounds evaluates, in the order it gives them.
ANGLE_BOUND_NAMES = ("favorable", "corollary", "generic", "log")

CONVEX_SEPARATED = "convex-separated"
INTERLEAVED = "interleaved"


class NoBoundKnownError(ValueError):
    """Raised in the regime where no angle bound is known (it is an open
    problem whether one holds there); nothing is fabricated."""


def _asin_guarded(arg: float) -> float:
    # Absorb 1-ulp overshoot of arguments that are exactly 1 in exact math.
    if 1.0 < arg <= 1.0 + ASIN_SLACK:
        arg = 1.0
    if -1.0 - ASIN_SLACK <= arg < -1.0:
        arg = -1.0
    return math.asin(arg)


def _frobenius(x: np.ndarray) -> float:
    """||x||_F, taken at `core._scaled`'s power-of-two scale of x, so that
    no square overflows; it has the bits of np.linalg.norm(x) wherever
    that is finite and no square is subnormal."""
    scaled, e = _scaled(np.reshape(x, (1, 1, -1)))
    return math.ldexp(float(np.linalg.norm(scaled)), int(e[0]))


@dataclass(frozen=True, eq=False)
class PerturbationInstance:
    """A perturbation problem: base matrix, PSD perturbation, and the index
    set singling out the tracked spectral component sigma of A. The derived
    fields (A's decomposition, gap d, ||V||, hull geometry) are computed once
    in assemble(); sigma's eigenvalues are dec_a.eigenvalues at
    sigma_indices."""

    a: SymmetricMatrix
    v: SymmetricMatrix
    sigma_indices: tuple[int, ...]
    label: str
    dec_a: SpectralDecomposition
    d: float
    v_norm: float
    geometry: str

    @classmethod
    def build(
        cls,
        a: SymmetricMatrix,
        v: SymmetricMatrix,
        sigma_indices,
        label: str = "",
    ) -> "PerturbationInstance":
        """Instance from the matrices alone: A and V are solved in one kernel
        call and the results handed to assemble(). An index that is not an
        integer (a bool included) raises TypeError before the solve."""
        sigma_indices = tuple(map(_index, sigma_indices))
        dec_a, dec_v = eigh_many([a, v])
        return cls.assemble(a, v, sigma_indices, dec_a, dec_v.eigenvalues, label)

    @classmethod
    def assemble(
        cls,
        a: SymmetricMatrix,
        v: SymmetricMatrix,
        sigma_indices,
        dec_a: SpectralDecomposition,
        v_eigenvalues: np.ndarray,
        label: str = "",
    ) -> "PerturbationInstance":
        """Instance from A, V, A's decomposition in eigh's conventions and
        V's eigenvalues, solving nothing. The data are checked, not trusted,
        each relative to its scale: A*Q = Q*diag(w) (O(n^3)) and V's trace and
        Frobenius norm against its eigenvalues (O(n^2)) within the membership
        tolerance of each matrix's Frobenius norm, Q^T*Q = I within that of 1,
        and V by require_psd; a mismatch raises ValueError. The norms are
        taken at a power-of-two scale, so the checks hold near overflow."""
        if a.dim != v.dim:
            raise ValueError("dimension mismatch between A and V")
        idx = tuple(sorted(map(_index, sigma_indices)))
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate sigma indices")
        if not idx or len(idx) >= a.dim:
            raise ValueError("sigma must be a nonempty proper subset of the spectrum")
        if idx[0] < 0 or idx[-1] >= a.dim:
            raise ValueError("sigma index out of range")
        w, q = dec_a.eigenvalues, dec_a.eigenvectors
        tol = membership_tol(_frobenius(a.entries))
        if np.any(np.diff(w) < 0.0) or not (
            np.allclose(a.entries @ q, q * w, rtol=0.0, atol=tol)
            and np.allclose(q.T @ q, np.eye(a.dim), rtol=0.0, atol=membership_tol(1.0))
        ):
            raise ValueError("dec_a is not an ascending eigendecomposition of A")
        wv = np.asarray(v_eigenvalues, dtype=float)
        v_fro = _frobenius(v.entries)
        tol = membership_tol(v_fro)
        if abs(np.trace(v.entries) - wv.sum()) > tol or abs(v_fro - _frobenius(wv)) > tol:
            raise ValueError("v_eigenvalues do not match the spectrum of V")
        require_psd(wv)
        in_sigma = np.zeros(a.dim, dtype=bool)
        in_sigma[list(idx)] = True
        sigma = IntervalSet.from_points(w[in_sigma])
        big_sigma = IntervalSet.from_points(w[~in_sigma])
        d = set_distance(sigma, big_sigma)
        if d <= 0.0:
            raise ValueError("sigma and Sigma must be separated by a positive gap")
        geometry = (
            CONVEX_SEPARATED if convexity_condition(sigma, big_sigma) else INTERLEAVED
        )
        return cls(
            a=a,
            v=v,
            sigma_indices=idx,
            label=label,
            dec_a=dec_a,
            d=d,
            v_norm=float(np.max(np.abs(wv))),
            geometry=geometry,
        )

    def spectra(self, times: Iterable[float]) -> dict[float, SpectralDecomposition]:
        """Eigendecompositions of A + tV at each distinct t of `times`, in
        first-seen order; ValueError, before any solve, unless every t lies
        in [0, 1].

        t = 0 is dec_a. Every other t is solved warm, in one kernel call, as
        M_t = Q^T A Q + t * Q^T V Q with Q = dec_a.eigenvectors, all M_t in
        one broadcast of the two symmetrized products: M_t's values and its
        rotations X, lifted as Q*X, are ordered and signed once, by
        `core.decompositions`. The off-diagonal part of M_t is about t times
        that of Q^T V Q, so Jacobi starts near the diagonal, where cyclic
        Jacobi converges quadratically (Henrici 1958). Q^T A Q is formed, not
        taken as diag(lambda): assemble accepts a dec_a with a residual up to
        membership_tol(||A||_F), and only the formed product keeps the lifted
        pairs those of the stored A + tV. A t gets the same bits alone as
        inside a larger set.
        """
        times = list(dict.fromkeys(times))
        if not all(0.0 <= t <= 1.0 for t in times):
            raise ValueError("t must lie in [0, 1]")
        later = [t for t in times if t != 0.0]
        if later:
            q = self.dec_a.eigenvectors
            qaq = SymmetricMatrix(q.T @ self.a.entries @ q).entries
            qvq = SymmetricMatrix(q.T @ self.v.entries @ q).entries
            x = np.repeat(np.eye(q.shape[0])[None], len(later), axis=0)
            w = _solved_diagonals(qaq + np.array(later, dtype=float)[:, None, None] * qvq, x)
            lifted = iter(decompositions(w, q @ x))
        return {t: self.dec_a if t == 0.0 else next(lifted) for t in times}


@dataclass(frozen=True, eq=False)
class OmegaComponent:
    """The tracked spectral component of A + tV: indices into its ascending
    spectrum (sigma's, by Weyl), the decomposition they index, and the bases
    (U_t, U_perp_t) of Ran P_t and of its complement (the selected
    eigenvector columns and the rest, in index order), from which
    `geometry.angle_reports` measures every angle; P_t itself is not formed."""

    t: float
    omega_indices: tuple[int, ...]
    dec: SpectralDecomposition
    bases: tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
class EnclosureReport:
    """Per-eigenvalue signed containment margins of spec(A+tV) in
    spec(A) + [0, t*||V||]; positive means inside with room, negative means
    outside by that distance."""

    t: float
    eigenvalues: np.ndarray
    margins: np.ndarray
    tol: float

    @property
    def passed(self) -> bool:
        return bool(np.all(self.margins >= -self.tol))

    @property
    def worst_margin(self) -> float:
        return float(np.min(self.margins))


@dataclass(frozen=True)
class BoundConstants:
    c_crit: float
    c_crit_sem: float
    log_threshold: float
    kappa: float


@dataclass(frozen=True)
class LogBound:
    """Value of the log-integral bound plus the flag telling whether the
    hypothesis ratio keeps it strictly below pi/2."""

    value: float
    below_half_pi: bool


def _decomposition_at(inst: PerturbationInstance, t: float, dec: SpectralDecomposition | None):
    if dec is None:
        return inst.spectra([t])[t]
    if dec.dim != inst.a.dim:
        raise ValueError(f"dec has dimension {dec.dim}, the instance {inst.a.dim}")
    return dec


def enclosure_check(
    inst: PerturbationInstance, t: float, dec: SpectralDecomposition | None = None
) -> EnclosureReport:
    """Check spec(A+tV) against the one-sided enlargement spec(A)+[0, t*||V||],
    by default on inst.spectra([t])[t]; the report passes at margins >=
    -DEFAULT_TOL. A `dec` of another dimension than A raises ValueError."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    w = _decomposition_at(inst, t, dec).eigenvalues
    margins = _shifted_margins(inst.dec_a.eigenvalues, t * inst.v_norm, w)
    return EnclosureReport(t=t, eigenvalues=w, margins=margins, tol=DEFAULT_TOL)


def _shifted_margins(points: np.ndarray, shift: float, x: np.ndarray) -> np.ndarray:
    """The signed_margin of each x in shift_set(IntervalSet.from_points(points),
    shift), in one pass with the same float operations.

    With the points sorted, a component of points + [0, shift] starts where a
    point exceeds the previous one plus shift; its lo is its first point and
    its hi is its last point plus shift. Inside a component the margin is
    min(x - lo, hi - x), outside it is minus the distance to the nearer one.
    """
    points = np.sort(points, kind="stable")
    ends = points + shift
    starts = np.concatenate([[True], points[1:] > ends[:-1]])
    lo = points[starts]
    hi = ends[np.append(starts[1:], True)]
    left = np.searchsorted(lo, x, side="right") - 1  # last lo <= x, or -1
    right = np.minimum(left + 1, lo.size - 1)
    past = np.where(left >= 0, x - hi[left], np.inf)
    before = np.where(left + 1 < lo.size, lo[right] - x, np.inf)
    depth, height = x - lo[left], hi[left] - x
    # signed_margin's min keeps depth on a tie, which decides -0.0 against 0.0
    inside = np.where(height < depth, height, depth)
    return np.where(past <= 0.0, inside, -np.minimum(past, before))


def omega_component(
    inst: PerturbationInstance, t: float, dec: SpectralDecomposition | None = None
) -> OmegaComponent:
    """The tracked component of spec(A+tV): the eigenvalues at sigma's indices.

    For V >= 0, Weyl's inequalities give lambda_k(A) <= lambda_k(A+tV) <=
    lambda_k(A) + t*||V|| for every k, so while t*||V|| < d the part of the
    spectrum in sigma + [0, t*||V||] is exactly the eigenvalues at sigma's
    indices. That is checked, not assumed: an eigenvalue outside its own Weyl
    interval by more than membership_tol(||A + tV||) raises ValueError, as
    do a `dec` of another dimension than A and, before any solve, a t outside
    [0, 1] or with t*||V|| >= d. `dec` defaults to inst.spectra([t])[t].
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    shift = t * inst.v_norm
    if shift >= inst.d:
        raise ValueError("gap non-closing hypothesis t*||V|| < d violated")
    dec = _decomposition_at(inst, t, dec)
    w = dec.eigenvalues
    lower = inst.dec_a.eigenvalues
    tol = membership_tol(dec.norm)
    outside = np.flatnonzero((w < lower - tol) | (w > lower + shift + tol))
    if outside.size:
        k = int(outside[0])
        raise ValueError(
            f"eigenvalue {k} = {float(w[k])!r} left its Weyl interval "
            f"[{float(lower[k])!r}, {float(lower[k]) + shift!r}]"
        )
    idx = inst.sigma_indices
    selected = np.zeros(dec.dim, dtype=bool)
    selected[list(idx)] = True
    bases = (dec.eigenvectors[:, selected], dec.eigenvectors[:, ~selected])
    for basis in bases:
        basis.setflags(write=False)
    return OmegaComponent(t=t, omega_indices=idx, dec=dec, bases=bases)


def _require_scales(v_norm: float, d: float) -> None:
    # NaN fails every comparison and inf passes some: refuse both up front.
    if not (math.isfinite(d) and d > 0.0 and math.isfinite(v_norm) and v_norm >= 0.0):
        raise ValueError("need finite d > 0 and finite ||V|| >= 0")


def continuity_modulus(v_norm: float, d: float, s: float, t: float) -> float:
    """Norm bound (pi/2)*(t-s)*||V||/(d - t*||V||) on ||P_s - P_t||, s <= t."""
    _require_scales(v_norm, d)
    if not 0.0 <= s <= t <= 1.0:
        raise ValueError("need 0 <= s <= t <= 1")
    if t * v_norm >= d:
        raise ValueError("gap non-closing hypothesis t*||V|| < d violated")
    return (math.pi / 2.0) * (t - s) * v_norm / (d - t * v_norm)


def convexity_condition(sigma: IntervalSet, big_sigma: IntervalSet) -> bool:
    """Favorable geometry: conv(sigma) avoids Sigma, or sigma avoids
    conv(Sigma)."""
    if set_distance(sigma, big_sigma) <= 0.0:
        raise ValueError("sets must be disjoint with positive distance")
    return (
        set_distance(sigma.hull(), big_sigma) > 0.0
        or set_distance(sigma, big_sigma.hull()) > 0.0
    )


def bound_favorable(v_norm: float, d: float) -> float:
    """Sharp angle bound (1/2)*arcsin(||V||/d) under the convex-hull
    condition, which needs ||V|| < d (ValueError otherwise); below pi/4."""
    _require_scales(v_norm, d)
    if v_norm >= d:
        raise ValueError("hypothesis 0 <= ||V|| < d violated")
    return 0.5 * math.asin(v_norm / d)


def bound_sin2theta(v_norm: float, d: float, convex: bool) -> float:
    """Bound on ||sin 2*Theta||: (pi/2)*||V||/d in general, ||V||/d under the
    convex-hull condition."""
    _require_scales(v_norm, d)
    ratio = v_norm / d
    return ratio if convex else (math.pi / 2.0) * ratio


def bound_corollary(v_norm: float, d: float) -> float:
    """Angle bound (1/2)*arcsin(pi*||V||/(2d)), valid while ||V|| <= 2d/pi."""
    _require_scales(v_norm, d)
    arg = math.pi * v_norm / (2.0 * d)
    if arg > 1.0 + ASIN_SLACK:
        raise ValueError("hypothesis ||V|| <= 2d/pi violated")
    return 0.5 * _asin_guarded(arg)


def N_eval(x: float, kappa: float) -> float:
    """The piecewise bound function N on [0, c_crit].

    Pieces, in order, with breakpoints 4/(pi^2+4), 4(pi^2-2)/pi^4, kappa:
      (1/2)*arcsin(pi*x)
      arcsin(sqrt((2*pi^2*x - 4)/(pi^2 - 4)))
      arcsin((pi/2)*(1 - sqrt(1 - 2x)))
      (3/2)*arcsin((pi/2)*(1 - cbrt(1 - 2x)))
    Continuous and nondecreasing, reaching pi/2 exactly at the right endpoint.
    """
    if not 0.0 <= x <= C_CRIT:
        raise ValueError(f"x={x!r} outside the domain [0, {C_CRIT!r}]")
    if x <= N_BREAK_1:
        return 0.5 * _asin_guarded(math.pi * x)
    if x < N_BREAK_2:
        return _asin_guarded(
            math.sqrt((2.0 * math.pi**2 * x - 4.0) / (math.pi**2 - 4.0))
        )
    if x <= kappa:
        return _asin_guarded((math.pi / 2.0) * (1.0 - math.sqrt(1.0 - 2.0 * x)))
    return 1.5 * _asin_guarded(
        (math.pi / 2.0) * (1.0 - (1.0 - 2.0 * x) ** (1.0 / 3.0))
    )


def _kappa_equation(k: float) -> float:
    return math.asin((math.pi / 2.0) * (1.0 - math.sqrt(1.0 - 2.0 * k))) - 1.5 * math.asin(
        (math.pi / 2.0) * (1.0 - (1.0 - 2.0 * k) ** (1.0 / 3.0))
    )


def kappa_solve() -> float:
    """Switchover point between N's third and fourth pieces: the unique root
    in (0, 2(pi-1)/pi^2] of

        arcsin((pi/2)(1 - sqrt(1-2k))) = (3/2) arcsin((pi/2)(1 - cbrt(1-2k)))

    found by bisection, then residual-checked below KAPPA_TOL.
    """
    lo, hi = 1e-4, KAPPA_SUP
    f_lo, f_hi = _kappa_equation(lo), _kappa_equation(hi)
    if not f_lo < 0.0 < f_hi:
        raise ValueError("no sign change on the bisection bracket")
    while hi - lo > 1e-16:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _kappa_equation(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    kappa = 0.5 * (lo + hi)
    residual = abs(_kappa_equation(kappa))
    if residual > KAPPA_TOL:
        raise ValueError(f"bisection stalled with residual {residual:.3e}")
    return kappa


@lru_cache(maxsize=1)
def constants() -> BoundConstants:
    """The four critical constants, computed once and cached."""
    return BoundConstants(
        c_crit=C_CRIT,
        c_crit_sem=C_CRIT_SEM,
        log_threshold=LOG_THRESHOLD,
        kappa=kappa_solve(),
    )


def bound_generic(v_norm: float, d: float) -> float:
    """Angle bound N(||V||/(2d)) for arbitrary spectral geometry, proved for
    ||V|| < c_crit_sem * d. Beyond that ratio no bound is known (open
    problem), so NoBoundKnownError is raised rather than a fabricated value.
    """
    _require_scales(v_norm, d)
    if v_norm >= C_CRIT_SEM * d:
        raise NoBoundKnownError(
            f"no angle bound is known for ||V||/d = {v_norm / d!r} >= "
            f"c_crit_sem = {C_CRIT_SEM!r}"
        )
    return N_eval(v_norm / (2.0 * d), constants().kappa)


def bound_log(v_norm: float, d: float) -> LogBound:
    """Log-integral angle bound (pi/4)*log(d/(d-||V||)), ValueError unless
    ||V|| < d; the flag records whether ||V||/d < 2*sinh(1)/e, exactly the
    regime where the value stays below pi/2."""
    _require_scales(v_norm, d)
    if v_norm >= d:
        raise ValueError("hypothesis 0 <= ||V|| < d violated")
    return LogBound(
        value=(math.pi / 4.0) * math.log(d / (d - v_norm)),
        below_half_pi=v_norm / d < LOG_THRESHOLD,
    )


def angle_bounds(v_norm: float, d: float, convex: bool) -> dict[str, float]:
    """The value of each angle bound whose hypothesis holds, keyed and
    ordered by ANGLE_BOUND_NAMES; a bound whose hypothesis fails is absent,
    never fabricated."""
    _require_scales(v_norm, d)
    values = (
        bound_favorable(v_norm, d) if convex and v_norm < d else None,
        bound_corollary(v_norm, d) if v_norm <= 2.0 * d / math.pi else None,
        bound_generic(v_norm, d) if v_norm < C_CRIT_SEM * d else None,
        bound_log(v_norm, d).value if v_norm < d else None,
    )
    return {k: v for k, v in zip(ANGLE_BOUND_NAMES, values, strict=True) if v is not None}


def truncate_digits(x: float, digits: int) -> str:
    """Decimal rendering truncated toward zero, matching how the critical
    constants are conventionally printed (0.45483996... prints as 0.4548399,
    never rounded up). What is truncated is repr(x), the shortest decimal
    that reads back as x, so 0.29 at two digits prints as 0.29, not as the
    0.28 of its binary value. `digits` must be an integer (TypeError
    otherwise) with |x| * 10**digits a finite float (ValueError otherwise)."""
    digits = _index(digits)  # a Python int, so 10**digits cannot wrap as numpy's would
    if digits < 1:
        raise ValueError("digits must be positive")
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    try:
        math.trunc(abs(x) * 10**digits)  # the range check; the digits come from repr(x)
    except OverflowError:
        raise ValueError(f"digits={digits} takes |x| * 10**digits past the float range") from None
    scaled = int(Decimal(repr(abs(x))).scaleb(digits))  # int() truncates toward zero
    sign = "-" if x < 0 else ""
    return f"{sign}{scaled // 10**digits}.{scaled % 10**digits:0{digits}d}"
