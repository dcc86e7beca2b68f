"""Angles between spectral subspaces and the PSD block-matrix inequalities."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Projector,
    SymmetricMatrix,
    _solved_diagonals,
    eigh,
    eigh_many,  # unused here, but the benchmark's tracer wraps geometry.eigh_many
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
    """Sine spectra of pairs of equal-dimension subspaces, from their bases.

    Each side is (U, U_perp): U is n x r and spans the subspace, U_perp is
    n x (n - r) and spans its complement, with one n and one r, 0 < r < n,
    across the call; anything else raises ValueError, and projectors of
    other ranks go through `angle_report`. The sines are |spec(P - Q)|, whose
    nonzero part at equal ranks is +-sigma(U_perp_P^T U_Q): that product is
    formed per pair, each of its singular values appears twice, and all the
    products go through one call of the one-sided kernel. Nothing forms
    P - Q, and no sine is read from S^T S or from a cosine. Two bit-identical
    bases U span the same subspace: their sines are exactly zero, unsolved.
    """
    shapes = {(np.shape(u), np.shape(perp)) for pair in pairs for u, perp in pair}
    if len(shapes) > 1 or any(
        len(u) != 2 or perp != (u[0], u[0] - u[1]) or not 0 < u[1] < u[0]
        for u, perp in shapes
    ):
        raise ValueError("dimension mismatch")
    moved = [not np.array_equal(u_s, u_t) for (u_s, _), (u_t, _) in pairs]
    products = [
        perp_s.T @ u_t for ((_, perp_s), (u_t, _)), m in zip(pairs, moved) if m
    ]
    values = iter(singular_values_many(products))
    return [
        _report([next(values)] * 2 if m else [], len(u_s))
        for ((u_s, _), _), m in zip(pairs, moved)
    ]


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
    |eigenvalue|, here the largest |entry| of each diagonal that one
    (3, n, n) kernel call without vectors leaves (`core._solved_diagonals`);
    its stopping rule is relative, so the triple scales with V.
    """
    kvk = _reflected(v, q)
    if q.rank == 0 or q.rank == q.dim:
        raise ValueError("projector must have nontrivial rank for a block split")
    m = v.entries
    stack = np.array([m, SymmetricMatrix(m - kvk).entries, SymmetricMatrix(m + kvk).entries])
    w = _solved_diagonals(stack, None)
    require_psd(w[0])
    norm_v, norm_off, norm_diag = np.abs(w).max(axis=1)
    return float(norm_off), float(norm_v), float(norm_diag)

