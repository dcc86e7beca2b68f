"""Seedable portable random numbers.

The generator is SplitMix64 used in counter mode: draw number i of the stream
with seed s is

    z = (s + (i+1) * 0x9E3779B97F4A7C15)  mod 2**64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB  mod 2**64
    z =  z ^ (z >> 31)

(Steele, Lea, Flood 2014; the counter form is the stateless reading of the
usual "advance by the golden gamma, then mix" loop.) Uniform doubles take the
top 53 bits, gaussians come from Box-Muller pairs. The draws are therefore
reproducible across platforms up to 1-ulp libm noise in log/cos/sin. Matrices
built from them are not always: `haar_orthogonal` goes through LAPACK `qr`, so
instances are bit-identical only under one BLAS/LAPACK build.
"""

from __future__ import annotations

import math
import operator

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _require_size(size: int, least: int) -> int:
    if (size := operator.index(size)) < least:
        raise ValueError(f"size must be at least {least}, got {size}")
    return size


class PortableRng:
    """SplitMix64 counter stream with vector draws; a size no draw can take,
    or a size or seed that is not an integer, raises before any word is drawn."""

    def __init__(self, seed: int):
        self._seed = np.uint64(operator.index(seed) & _MASK)
        self._counter = 0

    def raw(self, count: int) -> np.ndarray:
        """Next `count` raw 64-bit words as a uint64 array."""
        count = _require_size(count, 0)
        idx = np.arange(self._counter + 1, self._counter + count + 1, dtype=np.uint64)
        self._counter += count
        with np.errstate(over="ignore"):
            return _mix(self._seed + idx * _GAMMA)

    def uniforms(self, count: int) -> np.ndarray:
        """count doubles, i.i.d. uniform on [0, 1)."""
        return (self.raw(count) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def gaussians(self, count: int) -> np.ndarray:
        """count standard normals via Box-Muller."""
        count = _require_size(count, 0)
        pairs = (count + 1) // 2
        # u1 shifted into (0, 1] so log is always finite
        u1 = ((self.raw(pairs) >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
        u2 = self.uniforms(pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        phi = 2.0 * math.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(phi)
        out[1::2] = r * np.sin(phi)
        return out[:count]

    def uniform_in(self, lo: float, hi: float, count: int) -> np.ndarray:
        return lo + (hi - lo) * self.uniforms(count)

    def unit_vector(self, n: int) -> np.ndarray:
        n = _require_size(n, 1)
        g = self.gaussians(n)
        norm = float(np.linalg.norm(g))
        while norm < 1e-12:  # astronomically unlikely; keeps the contract total
            g = self.gaussians(n)
            norm = float(np.linalg.norm(g))
        return g / norm

    def haar_orthogonal(self, n: int) -> np.ndarray:
        """Haar-distributed orthogonal matrix: QR of a Gaussian matrix with the
        sign convention fixed by the R diagonal."""
        n = _require_size(n, 0)
        g = self.gaussians(n * n).reshape(n, n)
        q, r = np.linalg.qr(g)
        signs = np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
        return q * signs
