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
similarity J^T A J, and off is the off-diagonal Frobenius norm. The
eigenvectors are optional: given a stack of them, the kernel accumulates
each rotation into it; given None, it carries A alone. The rotations of A
never read the vectors, so A takes the same bits either way.
`hestenes_sweeps` is the one-sided (Hestenes 1958) SVD, the same iteration
on the Gram matrix G = B B^T applied from one side: it carries G beside B
as the two-sided kernel carries A, reads each rotation from G and applies
it as J^T B, which keeps small singular values to high relative accuracy
(Demmel & Veselic 1992), and forms G once from each new B. Its off is the
largest row cosine |g_pq| / sqrt(g_pp g_qq), a zero row counting as
orthogonal; at convergence the row norms are the singular values. It first
takes two norm-pivoted QR passes (`_qr_pass`; Drmac & Veselic 2008),
outside the sweep cap, which leave a square R with the singular values of
the r x m matrix B (r <= m) and rows closer to orthogonal.

The two-sided kernel from n = 16 first sweeps until off is at most
0.25 ||A||_F; the one-sided kernel, at every r, starts from its passes.
`_finished` then runs all-pairs steps, to the tolerance or 12 steps, and
sweeps finish whatever is left, each stage run per matrix by `_sweep`. A
step takes the `_tangent` of every pair p < q at once from the diagonal and
pivots of A or G, orthonormalizes the identity plus their skew generator by
one Householder QR (Davies & Modi 1986), whatever the signs of R's
diagonal, and applies Q as Q^T A Q or Q^T B: one QR and a few products
where a sweep takes n - 1 rounds. Steps and sweeps count against the cap.
Below n = 16 two-sided sweeps cost less than the stages that would replace
them, so there it sweeps alone.

Everything is plain numpy and LAPACK on fixed orderings, so each result is
a pure function of its input matrix: a matrix gives the same bits whether
it is solved alone or inside a stack. That includes off, whose squares
each matrix sums as one contiguous row.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

# The all-pairs stage (see the module docstring): STEP_CAP binds both
# kernels, STEP_MIN_N and STEP_START the two-sided kernel alone.
STEP_MIN_N = 16
STEP_START = 0.25
STEP_CAP = 12


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
    den[apq == 0.0] = np.inf
    return y / den


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
    rot[:, offsets] = np.concatenate((c, c, s, -s), axis=1)
    return rot.reshape(-1, n, n)


def _sweep(stacks, one_sweep, off_of, tol, budget, off=None):
    """Run `one_sweep` on the matrices of `stacks` (arrays indexed alike,
    updated in place) while a matrix's off measure `off_of(stacks[0])` is
    above its `tol` and it has done fewer than its `budget` runs. `off`, if
    given, is the off measure already known. Returns (runs, off) per matrix;
    the caller decides what off > tol means."""
    off = off_of(stacks[0]) if off is None else off
    runs = np.zeros(off.shape, dtype=np.int64)
    # `work` holds the latest values of the matrices `held`, in order, and is
    # written back to `stacks` when a matrix stops and at the end. A matrix
    # that stopped keeps its off and runs, so it stays stopped.
    held, work = np.arange(off.size), stacks
    while (active := ((off > tol) & (runs < budget)).nonzero()[0]).size:
        if active.size < held.size:
            if work is not stacks:
                for stack, done in zip(stacks, work):
                    stack[held] = done
            held, work = active, tuple(stack[active] for stack in stacks)
        work = one_sweep(*work)
        runs[active] += 1
        off[active] = off_of(work[0])
    if work is not stacks:
        for stack, done in zip(stacks, work):
            stack[held] = done
    return runs, off


def _off_diagonal(a: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of each matrix of the stack (k, n, n), as a
    strided view (k, n - 1, n) in row-major order: past the first entry,
    each run of n + 1 entries ends with one diagonal entry."""
    k, n, _ = a.shape
    return a.reshape(k, n * n)[:, 1:].reshape(k, n - 1, n + 1)[:, :, :n]


def _off_norm(a: np.ndarray) -> np.ndarray:
    """Off-diagonal Frobenius norm of each matrix in the stack, summed over
    its off-diagonal entries in row-major order."""
    # One contiguous row per matrix, which numpy sums pairwise whatever the
    # stack size, so a matrix gets the same bits alone or in a stack.
    k, n, _ = a.shape
    x = _off_diagonal(a).reshape(k, n * (n - 1))
    return np.sqrt((x * x).sum(axis=1))


def _two_sided_sweep(a, vec=None):
    """One sweep of J^T A J rounds on the stack `a`, accumulated into `vec`
    unless it is None; returns (a,) or (a, vec)."""
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
        if vec is not None:
            vec = vec @ rot
        # Write the pivot entries the way a single classical rotation does:
        # the annihilated pair is exactly zero, the diagonal moves by -/+ t*a_pq.
        # `entries` is a copy, so its pivots can be zeroed in place.
        shift = t * apq
        apq[t != 0.0] = 0.0
        a.reshape(k, n * n)[:, pivots] = np.concatenate(
            (app - shift, aqq + shift, apq, apq), axis=1
        )
    return (a,) if vec is None else (a, vec)


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
    t_pq, K_qp = -t_pq), and Q is the Householder Q of I + K = QR, whatever
    the signs of R's diagonal: a +-1 diagonal D commutes with `_tangent`,
    Householder QR and the rounds (the Q of D G D is D Q D), so these signs
    flip only eigenvector columns, which `core.decompositions` signs, or
    rows of B, and move no diagonal, off or count."""
    k, n, _ = g.shape
    offsets = _all_pairs(n)
    pairs = len(offsets) // 3
    entries = np.take(g.reshape(k, n * n), offsets, axis=1)
    upper = np.zeros((k, n * n))
    upper[:, offsets[2 * pairs :]] = _tangent(
        entries[:, :pairs], entries[:, pairs : 2 * pairs], entries[:, 2 * pairs :]
    )
    upper = upper.reshape(k, n, n)
    return np.linalg.qr(np.eye(n) + upper - upper.transpose(0, 2, 1)).Q


def _all_pairs_step(a, vec=None):
    """One all-pairs step on the stack `a`, accumulated into `vec` unless it
    is None: the Q of `_step_rotation` applies as the symmetrized Q^T A Q.
    Returns (a,) or (a, vec)."""
    q = _step_rotation(a)
    a = q.transpose(0, 2, 1) @ a @ q
    a = (a + a.transpose(0, 2, 1)) / 2.0
    return (a,) if vec is None else (a, vec @ q)


class Counts(NamedTuple):
    """Per matrix, as both kernels return them: the sweeps done, the final
    off and the all-pairs steps done."""

    sweeps: np.ndarray
    off: np.ndarray
    steps: np.ndarray


def _finished(stacks, one_step, one_sweep, off_of, tol, budget, off):
    """The last two stages, from the known `off` of `stacks`: all-pairs steps
    to `tol` or STEP_CAP, then sweeps to `tol`, together at most `budget`.
    Returns (steps, sweeps, off)."""
    steps, off = _sweep(stacks, one_step, off_of, tol, np.minimum(STEP_CAP, budget), off)
    sweeps, off = _sweep(stacks, one_sweep, off_of, tol, budget - steps, off)
    return steps, sweeps, off


def jacobi_sweeps(a, vec, tol, max_sweeps):
    """Diagonalize each symmetric matrix of the stack `a` (k, n, n) in place,
    accumulating its rotations into the matching slice of `vec` unless it is
    None, until its off-diagonal norm is at most its own `tol[i]`, in the stages
    of the module docstring; all runs stop at `max_sweeps`. Returns Counts."""
    stacks = (a,) if vec is None else (a, vec)
    if a.shape[1] < STEP_MIN_N:
        sweeps, off = _sweep(stacks, _two_sided_sweep, _off_norm, tol, max_sweeps)
        return Counts(sweeps, off, np.zeros_like(sweeps))
    start = np.maximum(tol, STEP_START * np.sqrt(np.sum(a * a, axis=(1, 2))))
    first, off = _sweep(stacks, _two_sided_sweep, _off_norm, start, max_sweeps)
    steps, last, off = _finished(
        stacks, _all_pairs_step, _two_sided_sweep, _off_norm, tol, max_sweeps - first, off
    )
    return Counts(first + last, off, steps)


def _max_cosine(g: np.ndarray) -> np.ndarray:
    """Largest row cosine |g_pq| / sqrt(g_pp g_qq), p != q, of each Gram matrix
    in the stack `g`; 0 for a pair with a zero row and with fewer than two rows."""
    norms = np.sqrt(np.diagonal(g, axis1=1, axis2=2))
    scale = norms[:, :, None] * norms[:, None, :]
    cos = np.divide(np.abs(g), scale, out=np.zeros_like(g), where=scale > 0.0)
    return np.max(_off_diagonal(cos), axis=(1, 2), initial=0.0)


def _gram(b):
    """(B B^T, B): the stacks every one-sided step and sweep takes and returns."""
    return b @ b.transpose(0, 2, 1), b


def _one_sided_sweep(g, b):
    """One sweep of J^T B rounds on the stacks (G, B), each J read from G."""
    k, r, _ = b.shape
    for pivots in _pairs(r):
        pairs = len(pivots) // 4
        e = g.reshape(k, r * r)[:, pivots[: 3 * pairs]]
        _, c, s = _rotation(e[:, :pairs], e[:, pairs : 2 * pairs], e[:, 2 * pairs :])
        g, b = _gram(_block_rotation(r, pivots, c, s).transpose(0, 2, 1) @ b)
    return g, b


def _one_sided_step(g, b):
    """One all-pairs step on the stacks (G, B): Q^T B, Q from `_step_rotation(G)`."""
    return _gram(_step_rotation(g).transpose(0, 2, 1) @ b)


def _qr_pass(b):
    """One norm-pivoted QR pass on the stack `b` (k, r, m), r <= m: the rows
    of each B, sorted by decreasing norm (a stable sort, so ties keep their
    index order), give B^T P = Q R, and it returns the r x r stack R."""
    order = np.argsort(-np.sum(b * b, axis=-1), axis=1, kind="stable")
    pivoted = np.take_along_axis(b, order[:, :, None], axis=1)
    return np.linalg.qr(pivoted.transpose(0, 2, 1), mode="r")


def hestenes_sweeps(b, tol, max_sweeps):
    """Orthogonalize the rows of each matrix of the stack `b` (k, r, m), r <= m,
    by one-sided Jacobi until its largest row cosine is at most `tol`, at every
    r in the stages of the module docstring: two QR passes, one Gram of their
    R, then steps and sweeps (sweeps alone at STEP_CAP = 0), which stop where
    the steps and sweeps reach `max_sweeps`. Returns the r x r rows and Counts."""
    stacks = _gram(_qr_pass(_qr_pass(b)))
    steps, sweeps, off = _finished(
        stacks, _one_sided_step, _one_sided_sweep, _max_cosine, tol, max_sweeps,
        _max_cosine(stacks[0]),
    )
    return stacks[1], Counts(sweeps, off, steps)
