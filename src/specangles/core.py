"""Dense real-symmetric substrate: matrices, spectra, projectors, interval sets.

Everything downstream (angles, bounds, campaigns) is built on the four value
types here. All of them are immutable and safe to share; every operation is a
pure function of its inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._jacobi import hestenes_sweeps, jacobi_sweeps

MAX_SWEEPS = 100
# Dimensionless tolerance factors, each multiplied by the scale of what its
# check tests: see eigh, singular_values_many, membership_tol, require_psd.
JACOBI_TOL = 1e-13
MEMBERSHIP_TOL_FACTOR = 1e-8
PSD_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """Iteration cap reached before the convergence criterion."""


def membership_tol(scale: float) -> float:
    """Membership tolerance 1e-8 * |scale|, relative to what is tested."""
    return MEMBERSHIP_TOL_FACTOR * abs(scale)


def require_psd(eigenvalues: np.ndarray) -> None:
    """Raise ValueError unless lambda_min >= -1e-10 * ||V|| for the
    eigenvalues of V, which allows the solver's backward error eps * ||V||."""
    if eigenvalues.min() < -PSD_TOL * np.abs(eigenvalues).max():
        raise ValueError("V must be positive semidefinite")


@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """Real symmetric matrix; symmetrized as (M + M^T)/2 at construction, so
    entries[i, j] == entries[j, i] holds exactly."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValueError("entries must form a nonempty square matrix")
        if not np.all(np.isfinite(arr)):
            raise ValueError("entries must be finite")
        arr = (arr + arr.T) / 2.0
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def diagonal(cls, values: Iterable[float]) -> "SymmetricMatrix":
        return cls(np.diag(np.asarray(list(values), dtype=float)))

    def scaled(self, factor: float) -> "SymmetricMatrix":
        return SymmetricMatrix(self.entries * float(factor))

    def __add__(self, other: "SymmetricMatrix") -> "SymmetricMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return SymmetricMatrix(self.entries + other.entries)

    def to_json(self) -> str:
        return json.dumps({"dim": self.dim, "rows": self.entries.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "SymmetricMatrix":
        obj = json.loads(text)
        rows = np.asarray(obj["rows"], dtype=float)
        if rows.shape != (obj["dim"], obj["dim"]):
            raise ValueError("rows do not match declared dim")
        return cls(rows)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues ascending; eigenvector column k pairs with eigenvalue k."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def norm(self) -> float:
        """Spectral norm of the decomposed matrix, max |eigenvalue|."""
        w = self.eigenvalues
        return float(max(abs(w[0]), abs(w[-1])))


def eigh(m: SymmetricMatrix) -> SpectralDecomposition:
    """Full eigendecomposition by round-robin Jacobi, every sweep rotating
    every nonzero pivot; from n = 16, all-pairs steps finish a near-diagonal
    matrix (see `_jacobi`).

    Converged when the off-diagonal Frobenius norm is at most 1e-13 * ||M||_F,
    tested on M divided by a power of two (see `_scaled`), so the rule is
    relative at every scale; hard cap of 100 sweeps and steps together.
    Ordering is ascending with ties left in stable (original index) order,
    and each eigenvector's largest-magnitude component is made positive, so
    identical input gives identical output.
    """
    return eigh_many([m])[0]


def _scaled(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each matrix of the stack divided by 2^e, and the exponents e, where e
    puts its largest |entry| in [1/2, 1). The division is exact in the normal
    range, so the kernels keep every bit they give unscaled, while squares of
    entries near overflow or underflow no longer overflow or flush to zero."""
    _, e = np.frexp(np.max(np.abs(stack), axis=(1, 2), initial=0.0))
    return np.ldexp(stack, -e[:, None, None]), e


def eigh_many(ms: Sequence[SymmetricMatrix]) -> list[SpectralDecomposition]:
    """Eigendecompositions of several same-size matrices in one kernel call.

    Each matrix gets exactly the decomposition `eigh` gives it alone: its own
    scale, tolerance 1e-13 * ||M||_F, cap of sweeps and steps, and the
    conventions of `decompositions`. Raises ConvergenceError if any matrix
    misses it.
    """
    if not ms:
        return []
    vec = np.repeat(np.eye(ms[0].dim)[None], len(ms), axis=0)
    return decompositions(_solved_diagonals(ms, vec), vec)


def eigvalsh_many(ms: Sequence[SymmetricMatrix]) -> np.ndarray:
    """Eigenvalues, ascending, of several same-size matrices in one kernel
    call, as rows of a (k, n) array: bit for bit the eigenvalues `eigh_many`
    gives, from a solve that builds no eigenvectors. The rotations of each
    matrix never read its vectors, so its scale, tolerance, cap, sweeps and
    ConvergenceError are those of `eigh_many`.
    """
    if not ms:
        return np.zeros((0, 0))
    return np.sort(_solved_diagonals(ms, None), axis=1, kind="stable")


def _solved_diagonals(ms: Sequence[SymmetricMatrix], vec: np.ndarray | None) -> np.ndarray:
    """The diagonals (k, n), in index order, that the two-sided kernel leaves
    of the matrices, each solved at its own power-of-two scale to tolerance
    1e-13 * ||M||_F, its rotations accumulated into `vec` unless it is None;
    raises ConvergenceError if any matrix misses it."""
    if any(m.dim != ms[0].dim for m in ms):
        raise ValueError("all matrices must have the same dimension")
    a, e = _scaled(np.array([m.entries for m in ms], dtype=float))
    fro = np.sqrt(np.sum(a * a, axis=(1, 2)))
    # positional: the kernel-call counters read the stack as the first argument
    off = jacobi_sweeps(a, vec, JACOBI_TOL * fro, MAX_SWEEPS).off
    _require_converged(off, fro)
    return np.ldexp(np.diagonal(a, axis1=1, axis2=2), e[:, None])


def singular_values_many(ms: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Singular values, descending, of several same-shape matrices in one call
    of the one-sided Jacobi kernel.

    Each matrix is oriented with its shorter side as rows, divided by a power
    of two (see `_scaled`) and preconditioned by two QR factorizations (see
    `_preconditioned`), which leave a square R with the same singular values.
    The rows of R are rotated until |r_p . r_q| <= 1e-13 * |r_p| * |r_q| for
    every pair; the row norms, scaled back, are the singular values, small
    ones to high relative accuracy (Demmel & Veselic 1992; Drmac & Veselic
    2008 for the QR preconditioning) from subnormal to near overflow. The
    Gram matrix of the current rows only picks each round's or step's
    rotations: no value is read from the eigenvalues of M^T M. A matrix gets
    the same values alone or in a stack. Hard cap of 100 sweeps and all-pairs
    steps together; raises ConvergenceError if any matrix misses the
    tolerance there.
    """
    if not len(ms):
        return []
    shape = np.shape(ms[0])
    if len(shape) != 2 or any(np.shape(m) != shape for m in ms):
        raise ValueError("all matrices must be 2-D with the same shape")
    b = np.array(ms, dtype=float)
    if shape[0] > shape[1]:
        b = np.ascontiguousarray(b.transpose(0, 2, 1))
    b, e = _scaled(b)
    b = _preconditioned(b)
    off = hestenes_sweeps(b, JACOBI_TOL, MAX_SWEEPS).off
    _require_converged(off, np.ones_like(off))
    values = np.ldexp(np.sqrt(np.sum(b * b, axis=-1)), e[:, None])
    return list(np.sort(values, axis=1)[:, ::-1])


def _preconditioned(b: np.ndarray) -> np.ndarray:
    """The r x r factor R2 of each matrix B (r x m, r <= m) of the stack, from
    two QR factorizations with a static pivot (Drmac & Veselic 2008): the
    rows of B, sorted by decreasing norm, give B^T P1 = Q1 R1, and the rows
    of R1, sorted the same way, give R1^T P2 = Q2 R2. R2 has B's singular
    values, and its rows are closer to orthogonal than B's, with norms
    nearer the singular values, so one-sided Jacobi on them takes fewer
    sweeps. Both sorts are stable, so
    ties keep their index order and each R2 depends on its own B only."""
    for _ in range(2):
        order = np.argsort(-np.sum(b * b, axis=-1), axis=1, kind="stable")
        pivoted = np.take_along_axis(b, order[:, :, None], axis=1)
        b = np.linalg.qr(pivoted.transpose(0, 2, 1), mode="r")
    return b


def _require_converged(off: np.ndarray, scale: np.ndarray) -> None:
    """The convergence check of both kernels: raise ConvergenceError, with
    the worst scale-free residual off / scale, unless off <= 1e-13 * scale."""
    failed = off > JACOBI_TOL * scale
    if failed.any():
        raise ConvergenceError(
            f"no convergence in {MAX_SWEEPS} sweeps: residual "
            f"{np.max(off[failed] / scale[failed]):.3e} above tolerance {JACOBI_TOL:.0e}"
        )


def decompositions(w: np.ndarray, vec: np.ndarray) -> list[SpectralDecomposition]:
    """Stacked eigenpairs, values w (k, n) and vector columns vec (k, n, n), put
    in eigh's conventions, whether computed or constructed: ascending, ties in
    index order, each vector's largest-magnitude entry positive, read-only."""
    order = np.argsort(w, axis=1, kind="stable")
    w = np.take_along_axis(w, order, axis=1)
    vec = np.take_along_axis(vec, order[:, None, :], axis=2)
    lead = np.argmax(np.abs(vec), axis=1)
    signs = np.where(np.take_along_axis(vec, lead[:, None, :], axis=1) < 0.0, -1.0, 1.0)
    vec = vec * signs
    decs = []
    for values, vectors in zip(w, vec):
        values = values.copy()
        vectors = vectors.copy()
        values.setflags(write=False)
        vectors.setflags(write=False)
        decs.append(SpectralDecomposition(eigenvalues=values, eigenvectors=vectors))
    return decs


@dataclass(frozen=True, eq=False)
class IntervalSet:
    """Finite union of closed intervals [lo, hi] (points allowed), kept sorted
    and disjoint: overlapping or touching intervals merge at construction."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pairs = []
        for lo, hi in self.intervals:
            lo = float(lo)
            hi = float(hi)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("interval endpoints must be finite")
            if lo > hi:
                raise ValueError(f"interval [{lo}, {hi}] has lo > hi")
            pairs.append((lo, hi))
        pairs.sort()
        merged: list[tuple[float, float]] = []
        for lo, hi in pairs:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        object.__setattr__(self, "intervals", tuple(merged))

    @classmethod
    def from_points(cls, values: Iterable[float]) -> "IntervalSet":
        return cls(tuple((float(v), float(v)) for v in values))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def _require_nonempty(self):
        if self.is_empty:
            raise ValueError("empty interval set")

    @property
    def inf(self) -> float:
        self._require_nonempty()
        return self.intervals[0][0]

    @property
    def sup(self) -> float:
        self._require_nonempty()
        return self.intervals[-1][1]

    def hull(self) -> "IntervalSet":
        self._require_nonempty()
        return IntervalSet(((self.inf, self.sup),))

    def distance_to_point(self, x: float) -> float:
        self._require_nonempty()
        best = math.inf
        for lo, hi in self.intervals:
            if lo <= x <= hi:
                return 0.0
            best = min(best, lo - x if x < lo else x - hi)
        return best

    def signed_margin(self, x: float) -> float:
        """Depth inside the set (nonnegative) or minus the distance outside."""
        self._require_nonempty()
        for lo, hi in self.intervals:
            if lo <= x <= hi:
                return min(x - lo, hi - x)
        return -self.distance_to_point(x)


def shift_set(s: IntervalSet, t: float) -> IntervalSet:
    """One-sided enlargement S + [0, t]: each [lo, hi] becomes [lo, hi + t]."""
    if t < 0:
        raise ValueError("shift amount must be nonnegative")
    return IntervalSet(tuple((lo, hi + t) for lo, hi in s.intervals))


def set_distance(s1: IntervalSet, s2: IntervalSet) -> float:
    """Distance between two nonempty closed sets; 0 when they overlap.

    One merge of the two sorted lists, retiring whichever current interval
    ends first, meets every overlapping or touching pair and each interval's
    nearest neighbour in the other set, in index order, so it returns the
    bits that the least over all pairs would."""
    s1._require_nonempty()
    s2._require_nonempty()
    a, b = s1.intervals, s2.intervals
    best = math.inf
    i = j = 0
    while i < len(a) and j < len(b):
        (lo1, hi1), (lo2, hi2) = a[i], b[j]
        best = min(best, max(lo2 - hi1, lo1 - hi2, 0.0))
        if hi1 < hi2:
            i += 1
        else:
            j += 1
    return best


@dataclass(frozen=True, eq=False)
class Projector:
    """Orthogonal projector with its rank; idempotency and trace are validated
    at construction (residuals 1e-9 / 1e-8)."""

    matrix: SymmetricMatrix
    rank: int

    def __post_init__(self):
        p = self.matrix.entries
        if not 0 <= self.rank <= self.matrix.dim:
            raise ValueError("rank out of range")
        residual = float(np.max(np.abs(p @ p - p)))
        if residual > 1e-9:
            raise ValueError(f"not idempotent: residual {residual:.3e}")
        trace_gap = abs(float(np.trace(p)) - self.rank)
        if trace_gap > 1e-8:
            raise ValueError(f"trace off rank by {trace_gap:.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.dim


def spectral_projector(dec: SpectralDecomposition, indices: Iterable[int]) -> Projector:
    """Projector onto the span of the eigenvectors at `indices`.

    Built as a sum of outer products over the index set, so degenerate
    clusters are handled exactly regardless of basis rotation within the
    cluster. Duplicate or out-of-range indices raise ValueError.
    """
    idx = sorted(int(k) for k in indices)
    if len(set(idx)) != len(idx):
        raise ValueError("duplicate indices in selection")
    if idx and (idx[0] < 0 or idx[-1] >= dec.dim):
        raise ValueError("selection index out of range")
    cols = dec.eigenvectors[:, idx]
    p = cols @ cols.T
    return Projector(SymmetricMatrix(p), rank=len(idx))
