"""Round-robin Jacobi kernels for stacks of matrices.

One sweep visits every pivot pair (p, q), p < q, once, in the round-robin
("chess tournament") ordering of Brent & Luk (1985): n - 1 rounds of n/2
disjoint pairs (an odd n sits one index out per round). The disjoint
rotations of a round commute, so a round is applied to the whole stack at
once. Every pair's rotation comes from the one tangent formula of
`_rotation`.

`jacobi_sweeps` is the two-sided eigensolver: a round is the orthogonal
similarity J^T A J with one block rotation J per matrix, and every sweep
rotates every nonzero pivot (a skipped pivot would still pay for its round's
matrix products, so there is no threshold schedule). `hestenes_sweeps` is the
one-sided (Hestenes 1958) SVD: it rotates pairs of rows until they are
orthogonal, so the row norms become the singular values, and it skips a pair
that is already orthogonal to working accuracy.

Everything is plain numpy on fixed orderings, so each result is a pure
function of its input matrix: a matrix gives the same bits whether it is
solved alone or inside a stack.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The round-robin ordering of the pairs of n indices: per round, the
    arrays (p, q) of its disjoint pairs p < q, sorted by p, and the flat n*n
    offsets of their entries (p,p), then (q,q), (p,q) and (q,p), one block of
    offsets each. There are no rounds for n < 2."""
    m = n + n % 2
    players = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [(players[i], players[m - 1 - i]) for i in range(m // 2)]
        pairs = sorted((min(a, b), max(a, b)) for a, b in pairs if max(a, b) < n)
        if pairs:
            p = np.array([a for a, _ in pairs], dtype=np.intp)
            q = np.array([b for _, b in pairs], dtype=np.intp)
            offsets = np.concatenate([p * n + p, q * n + q, p * n + q, q * n + p])
            # shared by every caller through the cache
            for index in (p, q, offsets):
                index.setflags(write=False)
            rounds.append((p, q, offsets))
        players = [players[0], players[-1]] + players[1:-1]
    return tuple(rounds)


def _rotation(app, aqq, apq):
    """Tangent, cosine and sine of the rotations that annihilate each pivot
    a_pq of the 2x2 symmetric blocks [[a_pp, a_pq], [a_pq, a_qq]].

    The tangent is formed as y / (x + sign(x)*hypot(x, y)) with
    x = a_qq - a_pp and y = 2*a_pq, which stays in [-1, 1] and cannot
    overflow however small the pivot is. Exact zero pivots get the identity
    rotation, which avoids 0/0 when also a_pp == a_qq.
    """
    x = aqq - app
    y = 2.0 * apq
    den = x + np.copysign(np.hypot(x, y), x)
    # A zero pivot divides by infinity, giving t = 0 and so c = 1, s = 0.
    t = y / np.where(apq != 0.0, den, np.inf)
    c = 1.0 / np.hypot(1.0, t)
    return t, c, t * c


def _off_norm(a: np.ndarray) -> np.ndarray:
    """Off-diagonal Frobenius norm of each matrix in the stack, summed
    directly over the off-diagonal entries."""
    n = a.shape[-1]
    return np.sqrt(np.sum(np.square(a[:, ~np.eye(n, dtype=bool)]), axis=1))


def _rotate_round(a, vec, pivots):
    """Apply one round of disjoint rotations to the stacks `a` and `vec`."""
    k, n, _ = a.shape
    pairs = len(pivots) // 4
    entries = a.reshape(k, n * n)[:, pivots[: 3 * pairs]]
    app = entries[:, :pairs]
    aqq = entries[:, pairs : 2 * pairs]
    apq = entries[:, 2 * pairs :]
    t, c, s = _rotation(app, aqq, apq)
    # The identity as a strided unit diagonal: tiling np.eye costs more.
    rot = np.zeros((k, n * n))
    rot[:, :: n + 1] = 1.0
    rot[:, pivots] = np.concatenate([c, c, s, -s], axis=1)
    rot = rot.reshape(k, n, n)
    a = rot.transpose(0, 2, 1) @ a @ rot
    vec = vec @ rot
    # Write the pivot entries the way a single classical rotation does: the
    # annihilated pair is exactly zero and the diagonal moves by -/+ t*a_pq.
    shift = t * apq
    pivot = np.where(t != 0.0, 0.0, apq)
    a.reshape(k, n * n)[:, pivots] = np.concatenate(
        [app - shift, aqq + shift, pivot, pivot], axis=1
    )
    return a, vec


def jacobi_sweeps(a, vec, tol, max_sweeps):
    """Diagonalize each symmetric matrix of the stack `a` (k, n, n) in place,
    accumulating its rotations into the matching slice of `vec`.

    Every sweep rotates every nonzero pivot of every matrix still in the
    stack; a matrix leaves the stack once its off-diagonal norm is at most its
    own `tol[i]` or it has done `max_sweeps` sweeps. Returns (sweeps, off) per
    matrix; the caller decides whether off <= tol counts as convergence.
    """
    k, n, _ = a.shape
    sweeps = np.zeros(k, dtype=np.int64)
    off = _off_norm(a)
    active = np.flatnonzero((off > tol) & (sweeps < max_sweeps))
    rounds = _pairs(n)
    while active.size:
        work_a = a[active]
        work_v = vec[active]
        for _, _, pivots in rounds:
            work_a, work_v = _rotate_round(work_a, work_v, pivots)
        a[active] = work_a
        vec[active] = work_v
        sweeps[active] += 1
        off[active] = _off_norm(work_a)
        active = active[(off[active] > tol[active]) & (sweeps[active] < max_sweeps)]
    return sweeps, off


def _orthogonalize_round(b, p, q, tol):
    """Rotate the row pairs (p, q) of every matrix in the stack `b` in place;
    per matrix and pair, whether it rotated.

    A pair is the 2x2 Gram block a_pp = |b_p|^2, a_qq = |b_q|^2,
    a_pq = b_p . b_q, rotated by `_rotation` as the two-sided kernel rotates
    a pivot, unless |a_pq| <= tol * |b_p| * |b_q| already.
    """
    pairs = len(p)
    rows = b[:, np.concatenate([p, q])]
    bp = rows[:, :pairs]
    bq = rows[:, pairs:]
    sq = np.einsum("kpm,kpm->kp", rows, rows)
    norms = np.sqrt(sq)
    apq = np.einsum("kpm,kpm->kp", bp, bq)
    rotate = np.abs(apq) > tol * norms[:, :pairs] * norms[:, pairs:]
    _, c, s = _rotation(sq[:, :pairs], sq[:, pairs:], np.where(rotate, apq, 0.0))
    c = c[..., None]
    s = s[..., None]
    b[:, p] = c * bp - s * bq
    b[:, q] = s * bp + c * bq
    return rotate


def hestenes_sweeps(b, tol, max_sweeps):
    """Orthogonalize the rows of each matrix of the stack `b` (k, r, m) in
    place by one-sided Jacobi; the row norms are then the singular values.

    A matrix leaves the stack after a whole sweep in which every pair of rows
    had |b_p . b_q| <= tol * |b_p| * |b_q|, or after `max_sweeps` sweeps.
    Returns (sweeps, converged) per matrix; with r < 2 there are no rounds,
    no sweeps, and every matrix counts as converged.
    """
    k = b.shape[0]
    rounds = _pairs(b.shape[1])
    sweeps = np.zeros(k, dtype=np.int64)
    converged = np.full(k, not rounds)
    active = np.flatnonzero(~converged & (sweeps < max_sweeps))
    while active.size:
        work = b[active]
        rotated = np.concatenate(
            [_orthogonalize_round(work, p, q, tol) for p, q, _ in rounds], axis=1
        ).any(axis=1)
        b[active] = work
        sweeps[active] += 1
        converged[active] = ~rotated
        active = active[rotated & (sweeps[active] < max_sweeps)]
    return sweeps, converged
