"""Round-robin Jacobi kernels for stacks of matrices.

One sweep visits every pivot pair (p, q), p < q, once, in the round-robin
("chess tournament") ordering of Brent & Luk (1985): n - 1 rounds of n/2
disjoint pairs (an odd n sits one index out per round). The disjoint
rotations of a round commute, so a round is one block rotation J per matrix,
built by `_block_rotation` from the one tangent formula of `_tangent`.

Both kernels share one rotation policy and one stopping rule. Every sweep
rotates every nonzero pivot (a skipped pivot would still pay for its round's
matrix products, so there is no threshold schedule), and `_sweep`, the one
driver of every stage, runs whole sweeps on a matrix until its "off" measure
is at most its tolerance, checked before the first sweep and after each one,
or until the sweep cap.

`jacobi_sweeps` is the two-sided eigensolver: a round is the orthogonal
similarity J^T A J, and off is the off-diagonal Frobenius norm.
`hestenes_sweeps` is the one-sided (Hestenes 1958) SVD, the same iteration
on the Gram matrix B B^T applied from one side: a round reads its pivots
from the Gram matrix of the current rows and applies J^T B, which keeps
small singular values to high relative accuracy (Demmel & Veselic 1992).
Its off is the largest row cosine |b_p . b_q| / (|b_p| |b_q|), a zero row
counting as orthogonal; at convergence the row norms are the singular values.
`core.singular_values_many` hands it the square R factors of two
norm-pivoted QR factorizations (Drmac & Veselic 2008), whose rows start
closer to orthogonal than those of the matrix they come from.

From n = 16 rows both kernels finish a matrix in the same three stages, run
by `_staged`, each stage per matrix by `_sweep`: sweeps until off <= 0.25
||A||_F (two-sided) or until the largest row cosine is <= 0.25 (one-sided),
then all-pairs steps, then sweeps to the tolerance. A step takes the
`_tangent` of every pair p < q at once from the current diagonal and pivots
of A or of B B^T, and orthonormalizes the identity plus their skew
generator by one QR (Davies & Modi 1986), then applies Q as Q^T A Q or
Q^T B: one QR and a few products where a sweep takes n - 1 rounds. A matrix
keeps stepping while each step leaves off at most 0.9 times what it was,
for 12 steps at most; steps count against the sweep cap. Below n = 16 a
sweep's rounds cost less than the steps that would replace it, so it is
sweeps alone.

Everything is plain numpy and LAPACK on fixed orderings, so each result is
a pure function of its input matrix: a matrix gives the same bits whether
it is solved alone or inside a stack.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# The all-pairs stage of both kernels (see the module docstring).
STEP_MIN_N = 16
STEP_START = 0.25
STEP_CAP = 12
STEP_SHRINK = 0.9


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, ...]:
    """The round-robin ordering of the pairs of n indices: per round, the
    flat n*n offsets of the entries (p,p), then (q,q), (p,q) and (q,p) of its
    disjoint pairs p < q, sorted by p, one block of offsets each. There are
    no rounds for n < 2."""
    m = n + n % 2
    players = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [(players[i], players[m - 1 - i]) for i in range(m // 2)]
        pairs = sorted((min(a, b), max(a, b)) for a, b in pairs if max(a, b) < n)
        if pairs:
            p, q = np.array(pairs, dtype=np.intp).T
            offsets = np.concatenate([p * n + p, q * n + q, p * n + q, q * n + p])
            offsets.setflags(write=False)  # shared by every caller through the cache
            rounds.append(offsets)
        players = [players[0], players[-1]] + players[1:-1]
    return tuple(rounds)


def _tangent(app, aqq, apq):
    """Tangent of the rotation that annihilates each pivot a_pq of the 2x2
    symmetric blocks [[a_pp, a_pq], [a_pq, a_qq]].

    It is formed as y / (x + sign(x)*hypot(x, y)) with x = a_qq - a_pp and
    y = 2*a_pq, which stays in [-1, 1] and cannot overflow however small the
    pivot is. Exact zero pivots get the identity rotation, which avoids 0/0
    when also a_pp == a_qq.
    """
    x = aqq - app
    y = 2.0 * apq
    den = x + np.copysign(np.hypot(x, y), x)
    # A zero pivot divides by infinity, giving t = 0 and so c = 1, s = 0.
    return y / np.where(apq != 0.0, den, np.inf)


def _rotation(app, aqq, apq):
    """Tangent, cosine and sine of the `_tangent` rotations."""
    t = _tangent(app, aqq, apq)
    c = 1.0 / np.hypot(1.0, t)
    return t, c, t * c


def _block_rotation(n, offsets, c, s):
    """The round's matrix J (k, n, n) per matrix: the identity with c, c, s
    and -s at the offsets of (p,p), (q,q), (p,q) and (q,p)."""
    # The identity as a strided unit diagonal: tiling np.eye costs more.
    rot = np.zeros((c.shape[0], n * n))
    rot[:, :: n + 1] = 1.0
    rot[:, offsets] = np.concatenate([c, c, s, -s], axis=1)
    return rot.reshape(-1, n, n)


def _sweep(stacks, one_sweep, off_of, tol, budget, shrink=None, off=None):
    """Run `one_sweep` on the matrices of `stacks` (arrays indexed alike,
    updated in place) while a matrix's off measure `off_of(stacks[0])` is
    above its `tol` and it has done fewer than its `budget` runs; given
    `shrink`, also only while each run left off at most `shrink` times its
    value before. `off`, if given, is the off measure already known. Returns
    (runs, off) per matrix; the caller decides what off > tol means."""
    off = off_of(stacks[0]) if off is None else off
    runs = np.zeros(off.shape, dtype=np.int64)
    if shrink is not None:  # a run that shrinks off too little ends the budget
        budget = np.array(np.broadcast_to(budget, off.shape))
    # A matrix that stopped keeps its off and runs, so it stays stopped.
    while (active := np.flatnonzero((off > tol) & (runs < budget))).size:
        work = one_sweep(*[stack[active] for stack in stacks])
        for stack, done in zip(stacks, work):
            stack[active] = done
        runs[active] += 1
        now = off_of(work[0])
        if shrink is not None:
            stalled = active[now > shrink * off[active]]
            budget[stalled] = runs[stalled]
        off[active] = now
    return runs, off


def _off_diagonal(a: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of each matrix of the stack (k, n, n), as a
    strided view (k, n - 1, n) in row-major order: past the first entry,
    each run of n + 1 entries ends with one diagonal entry."""
    k, n, _ = a.shape
    return a.reshape(k, n * n)[:, 1:].reshape(k, n - 1, n + 1)[:, :, :n]


def _off_norm(a: np.ndarray) -> np.ndarray:
    """Off-diagonal Frobenius norm of each matrix in the stack, summed
    directly over the off-diagonal entries in row-major order."""
    # With the stack index varying fastest, each matrix's squares are added
    # one by one in row-major order (pairwise, when the stack holds one).
    square = np.square(_off_diagonal(a).transpose(1, 2, 0), order="C")
    return np.sqrt(np.sum(square, axis=(0, 1)))


def _two_sided_sweep(a, vec):
    """One sweep of J^T A J rounds on the stack `a`, accumulated into `vec`."""
    k, n, _ = a.shape
    for pivots in _pairs(n):
        pairs = len(pivots) // 4
        entries = a.reshape(k, n * n)[:, pivots[: 3 * pairs]]
        app = entries[:, :pairs]
        aqq = entries[:, pairs : 2 * pairs]
        apq = entries[:, 2 * pairs :]
        t, c, s = _rotation(app, aqq, apq)
        rot = _block_rotation(n, pivots, c, s)
        a = rot.transpose(0, 2, 1) @ a @ rot
        vec = vec @ rot
        # Write the pivot entries the way a single classical rotation does:
        # the annihilated pair is exactly zero, the diagonal moves by -/+ t*a_pq.
        shift = t * apq
        pivot = np.where(t != 0.0, 0.0, apq)
        a.reshape(k, n * n)[:, pivots] = np.concatenate(
            [app - shift, aqq + shift, pivot, pivot], axis=1
        )
    return a, vec


@lru_cache(maxsize=None)
def _all_pairs(n: int) -> np.ndarray:
    """The flat n*n offsets of the entries (p,p), then (q,q) and (p,q) of all
    pairs p < q of n indices, in row-major order of (p, q), one block each."""
    p, q = np.triu_indices(n, 1)
    offsets = np.concatenate([p * (n + 1), q * (n + 1), p * n + q])
    offsets.setflags(write=False)  # shared by every caller through the cache
    return offsets


def _step_rotation(g):
    """The orthogonal Q of one all-pairs step on the symmetric stack `g`: the
    `_tangent` t_pq of every pair p < q gives the skew generator K (K_pq =
    t_pq, K_qp = -t_pq), and Q comes from I + K = QR with R's diagonal
    positive."""
    k, n, _ = g.shape
    offsets = _all_pairs(n)
    pairs = len(offsets) // 3
    entries = np.take(g.reshape(k, n * n), offsets, axis=1)
    upper = np.zeros((k, n * n))
    upper[:, offsets[2 * pairs :]] = _tangent(
        entries[:, :pairs], entries[:, pairs : 2 * pairs], entries[:, 2 * pairs :]
    )
    upper = upper.reshape(k, n, n)
    rot, r = np.linalg.qr(np.eye(n) + upper - upper.transpose(0, 2, 1))
    return rot * np.where(np.diagonal(r, axis1=1, axis2=2) < 0.0, -1.0, 1.0)[:, None, :]


def _all_pairs_step(a, vec):
    """One all-pairs step on the stack `a`, accumulated into `vec`: the Q of
    `_step_rotation` applies as the symmetrized Q^T A Q."""
    q = _step_rotation(a)
    a = q.transpose(0, 2, 1) @ a @ q
    return (a + a.transpose(0, 2, 1)) / 2.0, vec @ q


class Counts(tuple):
    """(sweeps, off) per matrix, as both kernels return them, with the
    all-pairs steps per matrix beside them as `steps`."""

    def __new__(cls, sweeps, off, steps):
        counts = super().__new__(cls, (sweeps, off))
        counts.steps = steps
        return counts


def _staged(stacks, one_sweep, one_step, off_of, tol, start, max_sweeps):
    """The stages of the module docstring, each run per matrix by `_sweep`:
    from n = STEP_MIN_N rows, sweeps until off is at most the larger of
    `tol` and `start(stacks[0])`, then all-pairs steps, then sweeps to `tol`;
    below it, sweeps alone. Sweeps and steps together stop at `max_sweeps`.
    Returns Counts(sweeps, off) with the steps per matrix as `.steps`."""
    if stacks[0].shape[1] < STEP_MIN_N:
        sweeps, off = _sweep(stacks, one_sweep, off_of, tol, max_sweeps)
        return Counts(sweeps, off, np.zeros(sweeps.shape, dtype=np.int64))
    target = np.maximum(tol, start(stacks[0]))
    first, off = _sweep(stacks, one_sweep, off_of, target, max_sweeps)
    budget = np.minimum(STEP_CAP, max_sweeps - first)
    steps, off = _sweep(stacks, one_step, off_of, tol, budget, STEP_SHRINK, off=off)
    rest = max_sweeps - first - steps
    last, off = _sweep(stacks, one_sweep, off_of, tol, rest, off=off)
    return Counts(first + last, off, steps)


def _step_start(a: np.ndarray) -> np.ndarray:
    """Where the two-sided steps start: STEP_START times ||A||_F."""
    return STEP_START * np.sqrt(np.sum(a * a, axis=(1, 2)))


def jacobi_sweeps(a, vec, tol, max_sweeps):
    """Diagonalize each symmetric matrix of the stack `a` (k, n, n) in place,
    accumulating its rotations into the matching slice of `vec`, until its
    off-diagonal norm is at most its own `tol[i]`, in the stages of the
    module docstring; sweeps and steps together stop at `max_sweeps`.
    Returns Counts(sweeps, off) with the steps per matrix as `.steps`."""
    return _staged(
        (a, vec), _two_sided_sweep, _all_pairs_step, _off_norm, tol, _step_start, max_sweeps
    )


def _max_cosine(b: np.ndarray) -> np.ndarray:
    """Largest row cosine |b_p . b_q| / (|b_p| |b_q|), p != q, of each matrix
    in the stack; 0 for a pair with a zero row and with fewer than two rows."""
    gram = b @ b.transpose(0, 2, 1)
    norms = np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
    scale = norms[:, :, None] * norms[:, None, :]
    cos = np.divide(np.abs(gram), scale, out=np.zeros_like(gram), where=scale > 0.0)
    return np.max(_off_diagonal(cos), axis=(1, 2), initial=0.0)


def _one_sided_sweep(b):
    """One sweep of J^T B rounds on the stack `b`, each J read from B B^T."""
    k, r, _ = b.shape
    for pivots in _pairs(r):
        pairs = len(pivots) // 4
        g = (b @ b.transpose(0, 2, 1)).reshape(k, r * r)[:, pivots[: 3 * pairs]]
        _, c, s = _rotation(g[:, :pairs], g[:, pairs : 2 * pairs], g[:, 2 * pairs :])
        b = _block_rotation(r, pivots, c, s).transpose(0, 2, 1) @ b
    return (b,)


def _one_sided_step(b):
    """One all-pairs step on the stack `b`: the Q of `_step_rotation` on the
    Gram matrix B B^T applies as Q^T B."""
    q = _step_rotation(b @ b.transpose(0, 2, 1))
    return (q.transpose(0, 2, 1) @ b,)


def hestenes_sweeps(b, tol, max_sweeps):
    """Orthogonalize the rows of each matrix of the stack `b` (k, r, m) in
    place by one-sided Jacobi, until its largest row cosine is at most `tol`,
    in the stages of the module docstring, the row count r taking the place
    of n; the row norms are then the singular values. Returns Counts(sweeps,
    off) with the steps per matrix as `.steps`."""
    return _staged(
        (b,), _one_sided_sweep, _one_sided_step, _max_cosine, tol, lambda _: STEP_START, max_sweeps
    )
