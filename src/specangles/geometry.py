"""Angles between spectral subspaces and the PSD block-matrix inequalities."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import PSD_TOL, Projector, SymmetricMatrix, eigh, eigh_many

ORTHO_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class AngleReport:
    """Sine spectrum of a projector pair, descending, with the two derived
    scalars used by every bound: max_angle = arcsin(sines[0]) and
    sin2_norm = max over k of 2*s_k*sqrt(1 - s_k^2)."""

    sines: np.ndarray
    max_angle: float
    sin2_norm: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "sines": self.sines.tolist(),
                "max_angle": self.max_angle,
                "sin2_norm": self.sin2_norm,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "AngleReport":
        obj = json.loads(text)
        return cls(
            sines=np.asarray(obj["sines"], dtype=float),
            max_angle=float(obj["max_angle"]),
            sin2_norm=float(obj["sin2_norm"]),
        )


@dataclass(frozen=True, eq=False)
class BlockSplit:
    """V conjugated into the 2x2 block form [[V0, W], [W^T, V1]] with respect
    to an orthonormal basis adapted to Ran Q then Ran Q-perp."""

    v0: SymmetricMatrix
    w: np.ndarray
    v1: SymmetricMatrix
    basis: np.ndarray

    def reassemble(self) -> SymmetricMatrix:
        r = self.v0.dim
        n = r + self.v1.dim
        block = np.zeros((n, n))
        block[:r, :r] = self.v0.entries
        block[:r, r:] = self.w
        block[r:, :r] = self.w.T
        block[r:, r:] = self.v1.entries
        return SymmetricMatrix(self.basis @ block @ self.basis.T)


def angle_report(p: Projector, q: Projector) -> AngleReport:
    """Sine spectrum from eigenvalues of P - Q (no SVD: the spectrum of the
    symmetric difference is already symmetric around 0 up to kernel)."""
    return angle_reports([(p, q)])[0]


def angle_reports(pairs: Sequence[tuple[Projector, Projector]]) -> list[AngleReport]:
    """`angle_report` for several same-size projector pairs, with all the
    differences P - Q diagonalized in one kernel call."""
    decs = eigh_many([p.matrix - q.matrix for p, q in pairs])
    return [_report_from_difference(dec.eigenvalues) for dec in decs]


def _report_from_difference(w: np.ndarray) -> AngleReport:
    sines = np.sort(np.abs(w))[::-1]
    sines = np.clip(sines, 0.0, 1.0)
    max_angle = math.asin(float(sines[0]))
    doubled = 2.0 * sines * np.sqrt(1.0 - sines * sines)
    return AngleReport(
        sines=sines, max_angle=max_angle, sin2_norm=float(np.max(doubled))
    )


def sin_two_theta_norm(p: Projector, q: Projector) -> float:
    return angle_report(p, q).sin2_norm


def _reflected(v: SymmetricMatrix, q: Projector) -> np.ndarray:
    # KVK for the reflection K = 2Q - I.
    if v.dim != q.dim:
        raise ValueError("dimension mismatch")
    k = 2.0 * q.matrix.entries - np.eye(v.dim)
    return k @ v.entries @ k


def reflection_defect(v: SymmetricMatrix, q: Projector) -> float:
    """||V - KVK|| for the reflection K = 2Q - I; at most ||V|| when V >= 0."""
    return eigh(SymmetricMatrix(v.entries - _reflected(v, q))).norm


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
    b0 = vectors[:, q.dim - q.rank :]
    b1 = vectors[:, : q.dim - q.rank]
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

    Returns the triple (2||W||, ||V||, 2*max(||V0||, ||V1||)); V failing the
    PSD test (tol 1e-10) raises, since indefinite V can break the left
    inequality. No block basis is built: with K = 2Q - I, in any basis
    adapted to Ran Q, V - KVK = 2*[[0, W], [W^T, 0]] and V + KVK =
    2*diag(V0, V1), so the triple is (||V - KVK||, ||V||, ||V + KVK||), all
    three from one stacked solve.
    """
    kvk = _reflected(v, q)
    if q.rank == 0 or q.rank == q.dim:
        raise ValueError("projector must have nontrivial rank for a block split")
    dec_v, dec_off, dec_diag = eigh_many(
        [v, SymmetricMatrix(v.entries - kvk), SymmetricMatrix(v.entries + kvk)]
    )
    if float(dec_v.eigenvalues[0]) < -PSD_TOL:
        raise ValueError("V must be positive semidefinite")
    return dec_off.norm, dec_v.norm, dec_diag.norm


def compression_2x2(v: SymmetricMatrix, f: np.ndarray, g: np.ndarray) -> SymmetricMatrix:
    """Compression of V onto span{f, g} for an orthonormal pair (f, g):
    [[<f,Vf>, <f,Vg>], [<g,Vf>, <g,Vg>]].

    Inputs are validated, not silently projected: non-unit or non-orthogonal
    vectors raise. Over all pairs with f in Ran Q and g in its complement, the
    norms of these 2x2 compressions exhaust ||V|| from below.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != (v.dim,) or g.shape != (v.dim,):
        raise ValueError("dimension mismatch")
    if abs(np.linalg.norm(f) - 1.0) > ORTHO_TOL or abs(np.linalg.norm(g) - 1.0) > ORTHO_TOL:
        raise ValueError("f and g must be unit vectors")
    if abs(float(f @ g)) > ORTHO_TOL:
        raise ValueError("f and g must be orthogonal")
    vf = v.entries @ f
    vg = v.entries @ g
    return SymmetricMatrix([[f @ vf, f @ vg], [g @ vf, g @ vg]])
