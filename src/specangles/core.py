"""Dense real-symmetric substrate: matrices, spectra, projectors, interval sets.

Everything downstream (angles, bounds, campaigns) is built on the four value
types here. All of them are immutable and safe to share; every operation is a
pure function of its inputs.
"""

from __future__ import annotations

import json
import math
import operator
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


def _index(k) -> int:
    """`k` by `operator.index`, whose TypeError refuses a non-integer; a
    bool, which it would take as 0 or 1, is refused alike."""
    if isinstance(k, bool):
        raise TypeError("'bool' object cannot be interpreted as an integer")
    return operator.index(k)


def require_psd(eigenvalues: np.ndarray) -> None:
    """Raise ValueError unless lambda_min >= -1e-10 * ||V|| for the
    eigenvalues of V, which allows the solver's backward error eps * ||V||."""
    if eigenvalues.min() < -PSD_TOL * np.abs(eigenvalues).max():
        raise ValueError("V must be positive semidefinite")


@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """Real symmetric matrix; symmetrized as (M + M^T)/2 at construction, so
    entries[i, j] == entries[j, i] holds exactly. A pair whose sum overflows
    is halved before it is added, so every finite M gives finite entries."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValueError("entries must form a nonempty square matrix")
        top = np.abs(arr).max()
        if not np.isfinite(top):
            raise ValueError("entries must be finite")
        if top < 2.0**1023:  # no pair sum can overflow
            sym = (arr + arr.T) / 2.0
        else:
            with np.errstate(over="ignore"):
                sym = (arr + arr.T) / 2.0
            over = np.isinf(sym)
            sym[over] = (arr / 2.0 + arr.T / 2.0)[over]
        sym.setflags(write=False)
        object.__setattr__(self, "entries", sym)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def diagonal(cls, values: Iterable[float]) -> "SymmetricMatrix":
        return cls(np.diag(np.asarray(list(values), dtype=float)))

    def to_json(self) -> str:
        return json.dumps({"dim": self.dim, "rows": self.entries.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "SymmetricMatrix":
        """The matrix `to_json` wrote; any other text raises ValueError."""
        obj = json.loads(text)
        # type(), not isinstance: a bool is an int
        if not isinstance(obj, dict) or type(obj.get("dim")) is not int or "rows" not in obj:
            raise ValueError('expected {"dim": <integer>, "rows": [[...], ...]}')
        try:
            rows = np.asarray(obj["rows"], dtype=float)
        except (TypeError, ValueError) as err:
            raise ValueError(f'"rows" must be a matrix of numbers: {err}') from None
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
    conventions of `decompositions`. Unequal sizes raise ValueError before
    the call, and a missed tolerance ConvergenceError.
    """
    if not ms:
        return []
    if any(m.dim != ms[0].dim for m in ms):
        raise ValueError("all matrices must have the same dimension")
    vec = np.repeat(np.eye(ms[0].dim)[None], len(ms), axis=0)
    return decompositions(_solved_diagonals(np.array([m.entries for m in ms]), vec), vec)


def _solved_diagonals(stack: np.ndarray, vec: np.ndarray | None) -> np.ndarray:
    """The diagonals (k, n), in index order, that the two-sided kernel leaves
    of the matrices of `stack` (k, n, n), each solved at its own power-of-two
    scale to tolerance 1e-13 * ||M||_F, its rotations accumulated into `vec`
    unless it is None (they never steer the solve); raises ValueError, before
    any solve, on a non-finite entry and ConvergenceError if any matrix
    misses the tolerance."""
    if not np.isfinite(stack).all():
        raise ValueError("entries must be finite")
    a, e = _scaled(stack)
    fro = np.sqrt(np.sum(a * a, axis=(1, 2)))
    # positional: the kernel-call counters read the stack as the first argument
    off = jacobi_sweeps(a, vec, JACOBI_TOL * fro, MAX_SWEEPS).off
    _require_converged(off, fro)
    return np.ldexp(np.diagonal(a, axis1=1, axis2=2), e[:, None])


def singular_values_many(ms: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Singular values, descending, of several same-shape matrices in one call
    of the one-sided Jacobi kernel.

    Each matrix is oriented with its shorter side as rows and divided by a
    power of two (see `_scaled`). At every size the kernel replaces it by the
    square R of two norm-pivoted QR passes, which keep the singular values
    (Drmac & Veselic 2008), and rotates the rows of R by all-pairs steps, and
    sweeps past the step cap, until |r_p . r_q| <= 1e-13 |r_p| |r_q| for
    every pair.
    The row norms, scaled back, are the singular values, small ones to high
    relative accuracy (Demmel & Veselic 1992) from subnormal to near
    overflow; the Gram matrix of the rows only picks the rotations, and no
    value is read from the eigenvalues of M^T M. A matrix gets the same
    values alone or in a stack. A non-finite entry raises ValueError. Hard
    cap of 100 steps and sweeps together, past the passes; raises
    ConvergenceError if any matrix misses the tolerance there.
    """
    if not len(ms):
        return []
    shape = np.shape(ms[0])
    if len(shape) != 2 or any(np.shape(m) != shape for m in ms):
        raise ValueError("all matrices must be 2-D with the same shape")
    b = np.array(ms, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError("entries must be finite")
    if shape[0] > shape[1]:
        b = np.ascontiguousarray(b.transpose(0, 2, 1))
    b, e = _scaled(b)
    b, counts = hestenes_sweeps(b, JACOBI_TOL, MAX_SWEEPS)
    _require_converged(counts.off, np.ones_like(counts.off))
    values = np.ldexp(np.sqrt(np.sum(b * b, axis=-1)), e[:, None])
    return list(np.sort(values, axis=1)[:, ::-1])


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
    vec = vec * np.where(np.take_along_axis(vec, lead[:, None, :], axis=1) < 0.0, -1.0, 1.0)
    w.flags.writeable = vec.flags.writeable = False  # and so each view below
    return [SpectralDecomposition(values, vectors) for values, vectors in zip(w, vec)]


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
        if not 0 <= _index(self.rank) <= self.matrix.dim:
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


# Kept because the benchmark's tracer names it; it can go with ROADMAP item 1.
def spectral_projector(dec: SpectralDecomposition, indices: Iterable[int]) -> Projector:
    """Projector onto the span of the eigenvectors at `indices`.

    Built as a sum of outer products over the index set, so degenerate
    clusters are handled exactly regardless of basis rotation within the
    cluster. Duplicate or out-of-range indices raise ValueError, and an
    index that is not an integer (a bool included) TypeError.
    """
    idx = sorted(map(_index, indices))
    if len(set(idx)) != len(idx):
        raise ValueError("duplicate indices in selection")
    if idx and (idx[0] < 0 or idx[-1] >= dec.dim):
        raise ValueError("selection index out of range")
    cols = dec.eigenvectors[:, idx]
    p = cols @ cols.T
    return Projector(SymmetricMatrix(p), rank=len(idx))
