"""Angles between spectral subspaces and the PSD block-matrix inequalities."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Projector,
    SymmetricMatrix,
    eigh,
    eigh_many,  # unused here, but the benchmark's tracer wraps geometry.eigh_many
    eigvalsh_many,
    require_psd,
    singular_values_many,
)

# An orthonormal basis of a subspace and one of its orthogonal complement.
Bases = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
class AngleReport:
    """Sine spectrum of a projector pair, descending, with the two derived
    scalars used by every bound: max_angle = arcsin(sines[0]) and
    sin2_norm = max over k of 2*s_k*sqrt(1 - s_k^2)."""

    sines: np.ndarray
    max_angle: float
    sin2_norm: float


@dataclass(frozen=True, eq=False)
class BlockSplit:
    """V conjugated into the 2x2 block form [[V0, W], [W^T, V1]] with respect
    to an orthonormal basis adapted to Ran Q then Ran Q-perp."""

    v0: SymmetricMatrix
    w: np.ndarray
    v1: SymmetricMatrix
    basis: np.ndarray


def angle_report(p: Projector, q: Projector) -> AngleReport:
    """Sine spectrum |spec(P - Q)| of one projector pair, solving no
    eigenproblem: since P - Q = P(I - Q) - (I - P)Q, its nonzero part is the
    nonzero singular values of (I - P)Q and of P(I - Q) together, both taken
    in one call of the one-sided kernel; they number at most n. Bit-identical
    projectors give exact zeros without a solve."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    mp, mq = p.matrix.entries, q.matrix.entries
    if np.array_equal(mp, mq):
        return _report([], p.dim)
    pq = mp @ mq
    return _report(singular_values_many([mq - pq, mp - pq]), p.dim)


def angle_reports(pairs: Sequence[tuple[Bases, Bases]]) -> list[AngleReport]:
    """Sine spectra of pairs of subspaces given by orthonormal bases.

    Each side is (U, U_perp): n x r columns spanning the subspace and
    n x (n - r) columns spanning its complement. The sines are |spec(P - Q)|
    of the two projectors, by the identity that the nonzero part of
    spec(P - Q) is +-sigma(U_perp_P^T U_Q) and +-sigma(U_P^T U_perp_Q). For
    equal ranks the two sets coincide, so only the first product is formed
    and each of its singular values appears twice; unequal ranks take both.
    Nothing forms P - Q, and no sine is read from S^T S or from a cosine.
    Two bit-identical bases U span the same subspace, so their sines are
    exactly zero and nothing is solved.
    """
    products = []
    for (u_s, perp_s), (u_t, perp_t) in pairs:
        n = u_s.shape[0]
        if not (
            perp_s.shape[0] == u_t.shape[0] == perp_t.shape[0] == n
            and u_s.shape[1] + perp_s.shape[1] == n
            and u_t.shape[1] + perp_t.shape[1] == n
        ):
            raise ValueError("dimension mismatch")
        pair = [] if np.array_equal(u_s, u_t) else [perp_s.T @ u_t]
        if pair and u_s.shape[1] != u_t.shape[1]:
            pair.append(u_s.T @ perp_t)
        products.append((n, pair))
    values = iter(_singular_values([m for _, pair in products for m in pair]))
    reports = []
    for n, pair in products:
        found = [next(values) for _ in pair]
        reports.append(_report(found * 2 if len(pair) == 1 else found, n))
    return reports


def _singular_values(ms: list[np.ndarray]) -> list[np.ndarray]:
    """Singular values of each matrix, in order, with one kernel call per
    distinct shape; an empty matrix has none."""
    found = [np.zeros(0)] * len(ms)
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for i, m in enumerate(ms):
        if m.size:
            by_shape.setdefault(m.shape, []).append(i)
    for indices in by_shape.values():
        for i, values in zip(indices, singular_values_many([ms[i] for i in indices])):
            found[i] = values
    return found


def _report(values: list[np.ndarray], n: int) -> AngleReport:
    sines = np.zeros(n)
    if values:
        found = np.sort(np.concatenate(values))[::-1][:n]
        sines[: found.size] = found
    sines = np.clip(sines, 0.0, 1.0)
    max_angle = math.asin(float(sines[0]))
    doubled = 2.0 * sines * np.sqrt(1.0 - sines * sines)
    return AngleReport(
        sines=sines, max_angle=max_angle, sin2_norm=float(np.max(doubled))
    )


def _reflected(v: SymmetricMatrix, q: Projector) -> np.ndarray:
    # KVK for the reflection K = 2Q - I.
    if v.dim != q.dim:
        raise ValueError("dimension mismatch")
    k = 2.0 * q.matrix.entries - np.eye(v.dim)
    return k @ v.entries @ k


# Kept because the benchmark's tracer names it; it can go with ROADMAP item 1.
def block_split(v: SymmetricMatrix, q: Projector) -> BlockSplit:
    """Split V into blocks along Ran Q and its complement.

    The basis is the eigenvector basis of Q from `eigh`: with eigenvalues
    ascending, the last rank(Q) columns span Ran Q and the first n - rank(Q)
    span its complement. It is deterministic for identical input.
    """
    if v.dim != q.dim:
        raise ValueError("dimension mismatch")
    if q.rank == 0 or q.rank == q.dim:
        raise ValueError("projector must have nontrivial rank for a block split")
    vectors = eigh(q.matrix).eigenvectors
    split = q.dim - q.rank
    b0, b1 = vectors[:, split:], vectors[:, :split]
    basis = np.hstack([b0, b1])
    gram_residual = float(np.max(np.abs(basis.T @ basis - np.eye(q.dim))))
    if gram_residual > 1e-8:
        raise ValueError(f"basis lost orthonormality: residual {gram_residual:.3e}")
    mat = v.entries
    return BlockSplit(
        v0=SymmetricMatrix(b0.T @ mat @ b0),
        w=b0.T @ mat @ b1,
        v1=SymmetricMatrix(b1.T @ mat @ b1),
        basis=basis,
    )


def psd_block_bounds(v: SymmetricMatrix, q: Projector) -> tuple[float, float, float]:
    """The chain 2||W|| <= ||V|| <= 2*max(||V0||, ||V1||), valid for PSD V.

    Returns the triple (2||W||, ||V||, 2*max(||V0||, ||V1||)); V failing
    `require_psd` raises, since indefinite V can break the left inequality.
    No block basis is built: with K = 2Q - I, in any basis adapted to Ran Q,
    V - KVK = 2*[[0, W], [W^T, 0]] and V + KVK = 2*diag(V0, V1), so the
    triple is (||V - KVK||, ||V||, ||V + KVK||), each norm the largest
    |eigenvalue|. All three come from one stacked eigenvalues-only solve
    (`eigvalsh_many`), whose stopping rule is relative, so the triple scales
    with V.
    """
    kvk = _reflected(v, q)
    if q.rank == 0 or q.rank == q.dim:
        raise ValueError("projector must have nontrivial rank for a block split")
    w = eigvalsh_many(
        [v, SymmetricMatrix(v.entries - kvk), SymmetricMatrix(v.entries + kvk)]
    )
    require_psd(w[0])
    norm_v, norm_off, norm_diag = np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))
    return float(norm_off), float(norm_v), float(norm_diag)

