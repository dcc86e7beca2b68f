"""Core linear algebra: the symmetric container, the eigensolver against an
independent oracle, interval-set arithmetic, and spectral projectors."""

import hashlib
import math
import struct
import warnings

import numpy as np
import pytest

import specangles._jacobi as _jacobi
import specangles.core as core
from hypothesis import given, settings
from hypothesis import strategies as st

from specangles import (
    IntervalSet,
    PortableRng,
    Projector,
    SymmetricMatrix,
    ConvergenceError,
    eigh,
    eigh_many,
    set_distance,
    shift_set,
    singular_values_many,
    spectral_projector,
)
from conftest import random_psd, random_symmetric

COLD_FAMILIES = ("near-repeated", "clusters", "rank-2")


class TestSymmetricMatrix:
    def test_symmetrizes_input(self):
        m = SymmetricMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        assert m.entries[0, 1] == m.entries[1, 0] == 1.0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SymmetricMatrix(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SymmetricMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "entries",
        [
            [[1e308, 0.0], [0.0, 1.0]],
            [[-1.7e308, 0.0], [0.0, 1.7e308]],
            [[0.0, 1.5e308], [1.5e308, 0.0]],
            [[0.0, -1.79e308], [-1.79e308, 0.0]],
        ],
    )
    def test_entries_past_half_the_float_range_are_kept(self, entries):
        # (M + M^T)/2 would overflow to inf on these pairs; eigh then solves
        # them exactly: a diagonal, or +-x for the pair [[0, x], [x, 0]]
        m = SymmetricMatrix(entries)
        assert m.entries.tolist() == entries
        x = abs(np.array(entries)).max()
        expected = sorted(np.diag(entries)) if entries[0][1] == 0.0 else [-x, x]
        assert eigh(m).eigenvalues.tolist() == expected

    def test_an_overflowing_pair_is_halved_before_it_is_added(self):
        # the overflowing pair gets x/2 + y/2; every other pair keeps the
        # bits of (x + y)/2, here three subnormal units each, where halving
        # first would round 1.5 + 1.5 units up to 4
        unit = 5e-324
        m = SymmetricMatrix([[0.0, 1.6e308, 3 * unit], [1.2e308, 1.0, 0.5], [3 * unit, 0.25, 2.0]])
        assert m.entries[0, 1] == m.entries[1, 0] == 1.6e308 / 2.0 + 1.2e308 / 2.0
        assert m.entries[0, 2] == m.entries[2, 0] == 3 * unit
        assert m.entries[1, 2] == m.entries[2, 1] == 0.375
        assert np.all(np.isfinite(m.entries))

    def test_entries_read_only(self):
        m = SymmetricMatrix(np.eye(3))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0

    def test_json_round_trip(self):
        m = random_symmetric(5, 77)
        again = SymmetricMatrix.from_json(m.to_json())
        assert np.array_equal(m.entries, again.entries)

    @pytest.mark.parametrize(
        "text",
        [
            "[1]",
            '{"rows": [[1.0]]}',
            '{"dim": 1}',
            '{"dim": true, "rows": [[1.0]]}',
            '{"dim": 1.0, "rows": [[1.0]]}',
            '{"dim": "1", "rows": [[1.0]]}',
            '{"dim": 2, "rows": [[1.0, 2.0], [3.0]]}',
            '{"dim": 1, "rows": [[{}]]}',
            '{"dim": 1, "rows": [["a"]]}',
            '{"dim": 1, "rows": [[null]]}',
            '{"dim": 2, "rows": [[1.0]]}',
            "{",
        ],
    )
    def test_from_json_refuses_anything_else_with_value_error(self, text):
        with pytest.raises(ValueError):
            SymmetricMatrix.from_json(text)


class TestEigh:
    def test_matches_independent_solver(self):
        for n, seed in ((2, 1), (5, 2), (16, 3), (32, 4)):
            m = random_symmetric(n, seed)
            dec = eigh(m)
            oracle = np.linalg.eigvalsh(m.entries)
            scale = 1.0 + np.abs(oracle).max()
            assert np.abs(dec.eigenvalues - oracle).max() < 1e-12 * scale

    def test_ascending_order(self):
        dec = eigh(random_symmetric(12, 5))
        assert np.all(np.diff(dec.eigenvalues) >= 0.0)

    def test_reconstruction(self):
        m = random_symmetric(10, 6)
        dec = eigh(m)
        q = dec.eigenvectors
        rebuilt = SymmetricMatrix((q * dec.eigenvalues) @ q.T)
        scale = 1.0 + np.abs(m.entries).max()
        assert np.abs(rebuilt.entries - m.entries).max() < 1e-12 * scale

    def test_eigenvector_orthonormality(self):
        dec = eigh(random_symmetric(9, 7))
        q = dec.eigenvectors
        assert np.abs(q.T @ q - np.eye(9)).max() < 1e-12

    def test_sign_convention_fixed(self):
        dec = eigh(random_symmetric(8, 8))
        lead = np.argmax(np.abs(dec.eigenvectors), axis=0)
        for col, row in enumerate(lead):
            assert dec.eigenvectors[row, col] > 0.0

    def test_diagonal_is_exact(self):
        dec = eigh(SymmetricMatrix.diagonal([3.0, -1.0, 2.0]))
        assert np.array_equal(dec.eigenvalues, np.array([-1.0, 2.0, 3.0]))

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_orthogonal_conjugation_invariance(self, seed):
        m = random_symmetric(6, seed)
        q = PortableRng(seed + 1).haar_orthogonal(6)
        rotated = SymmetricMatrix(q @ m.entries @ q.T)
        w1 = eigh(m).eigenvalues
        w2 = eigh(rotated).eigenvalues
        scale = 1.0 + np.abs(w1).max()
        assert np.abs(w1 - w2).max() < 1e-11 * scale


    def test_tiny_pivots_rotate_without_overflow(self):
        # A 1e-300 coupling survives into the sweeps without thresholds,
        # where a tangent formed as (a_qq - a_pp) / (2 a_pq) overflows.
        m = np.zeros((9, 9))
        m[:8, :8] = random_symmetric(8, 9).entries
        m[8, 8] = 5.0
        m[0, 8] = m[8, 0] = 1e-300
        dec = eigh(SymmetricMatrix(m))
        oracle = np.linalg.eigvalsh(m)
        assert np.abs(dec.eigenvalues - oracle).max() < 1e-12 * (1.0 + np.abs(oracle).max())
        assert np.abs(dec.eigenvectors.T @ dec.eigenvectors - np.eye(9)).max() < 1e-12


class TestJacobiKernel:
    def test_small_pivots_rotate_in_the_first_sweep(self):
        # Two 2x2 blocks: every pivot is zero except (0, 1) and (2, 3), which
        # share the last round of a sweep. The 1e-3 coupling is far below
        # the off-diagonal norm, yet one sweep annihilates both exactly.
        a = np.zeros((1, 4, 4))
        a[0, :2, :2] = [[1.0, 1.0], [1.0, 2.0]]
        a[0, 2:, 2:] = [[3.0, 1e-3], [1e-3, 4.0]]
        vec = np.eye(4)[None].copy()
        tol = 1e-13 * (1.0 + np.sqrt(np.sum(a * a, axis=(1, 2))))
        sweeps, off, *_ = _jacobi.jacobi_sweeps(a, vec, tol, 100)
        assert sweeps.tolist() == [1]
        assert off.tolist() == [0.0]

    @pytest.mark.parametrize("n", range(2, 10))
    def test_pairs_cover_every_pair_once_per_sweep(self, n):
        seen = []
        for offsets in _jacobi._pairs(n):
            pairs = len(offsets) // 4
            p = offsets[:pairs] // (n + 1)
            q = offsets[pairs : 2 * pairs] // (n + 1)
            assert np.all(p < q) and np.all(np.diff(p) > 0)
            blocks = [p * n + p, q * n + q, p * n + q, q * n + p]
            assert np.array_equal(offsets, np.concatenate(blocks))
            # the pairs of a round are disjoint
            assert len(set(p.tolist()) | set(q.tolist())) == 2 * pairs
            seen += list(zip(p.tolist(), q.tolist()))
        assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]

    def test_both_kernels_stop_within_tolerance(self):
        g = PortableRng(74).gaussians(4 * 9 * 9).reshape(4, 9, 9)
        a = g + g.transpose(0, 2, 1)
        vec = np.repeat(np.eye(9)[None], 4, axis=0)
        tol = 1e-13 * (1.0 + np.sqrt(np.sum(a * a, axis=(1, 2))))
        sweeps, off, *_ = _jacobi.jacobi_sweeps(a, vec, tol, 100)
        assert np.all(sweeps > 0) and np.all(off <= tol)
        _, (sweeps, off, steps) = _jacobi.hestenes_sweeps(g[:, :5], 1e-13, 100)
        assert np.all(steps + sweeps > 0) and np.all(off <= 1e-13)

    def test_one_sided_off_is_the_largest_row_cosine(self):
        b = PortableRng(75).gaussians(3 * 6 * 11).reshape(3, 6, 11)
        b[1] *= np.logspace(0, -9, 6)[:, None]
        rows, counts = _jacobi.hestenes_sweeps(b, 1e-13, 100)
        for m, value in zip(rows, counts.off, strict=True):
            norms = np.linalg.norm(m, axis=1)
            cosines = np.abs(m @ m.T) / np.outer(norms, norms)
            oracle = cosines[~np.eye(6, dtype=bool)].max()
            assert value == pytest.approx(oracle, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("scale", [2.0**-80, 1.0, 2.0**80])
    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize("n", [1, 2, 5, 10, 16, 48, 64])
    def test_off_norm_matches_the_masked_sum(self, n, k, scale):
        # the strided view must add each matrix's squares as the sum of its
        # own boolean-mask gather of the off-diagonal entries does, to the
        # last bit, whatever the stack size
        a = scale * PortableRng(1000 * n + k).gaussians(k * n * n).reshape(k, n, n)
        off = ~np.eye(n, dtype=bool)
        masked = [np.sqrt(np.sum(np.square(m[off]))) for m in a]
        assert np.array_equal(_jacobi._off_norm(a), masked)

    @pytest.mark.parametrize("n", [2, 5, 7, 16, 24, 48])
    def test_off_norm_is_the_same_alone_or_in_a_stack(self, n):
        a = PortableRng(n).gaussians(6 * n * n).reshape(6, n, n)
        stacked = _jacobi._off_norm(a)
        for i in range(6):
            assert _jacobi._off_norm(a[i : i + 1])[0] == stacked[i]

    def test_zero_row_beside_orthogonal_rows_needs_no_sweep(self):
        b = np.zeros((1, 3, 4))
        b[0, 0] = [3.0, 0.0, 0.0, 1.0]
        b[0, 2] = [0.0, 2.0, 0.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, (sweeps, off, *_) = _jacobi.hestenes_sweeps(b, 1e-13, 100)
        assert sweeps.tolist() == [0] and off.tolist() == [0.0]


class TestEighMany:
    def stack(self):
        return [
            random_symmetric(7, 41),
            SymmetricMatrix.diagonal([3.0, -1.0, 2.0, 2.0, 0.0, -1.0, 5.0]),
            random_psd(7, 42),
            SymmetricMatrix(np.zeros((7, 7))),
            SymmetricMatrix(np.eye(7) + np.outer(np.arange(7.0), np.arange(7.0))),
            SymmetricMatrix(random_symmetric(7, 43).entries * 1e-6),
        ]

    def test_matches_eigh_on_each_matrix(self):
        ms = self.stack()
        for m, dec in zip(ms, eigh_many(ms), strict=True):
            alone = eigh(m)
            assert np.array_equal(dec.eigenvalues, alone.eigenvalues)
            assert np.array_equal(dec.eigenvectors, alone.eigenvectors)

    def test_conventions_hold_per_matrix(self):
        ms = self.stack()
        for m, dec in zip(ms, eigh_many(ms)):
            w, q = dec.eigenvalues, dec.eigenvectors
            assert np.all(np.diff(w) >= 0.0)
            oracle = np.linalg.eigvalsh(m.entries)
            assert np.abs(w - oracle).max() < 1e-12 * (1.0 + np.abs(oracle).max())
            assert np.abs(q.T @ q - np.eye(7)).max() < 1e-12
            lead = np.argmax(np.abs(q), axis=0)
            assert np.all(q[lead, np.arange(7)] > 0.0)
            assert not w.flags.writeable and not q.flags.writeable
        diag = eigh_many(ms)[1]
        assert np.array_equal(diag.eigenvalues, [-1.0, -1.0, 0.0, 2.0, 2.0, 3.0, 5.0])
        # ties keep their original index order
        assert np.array_equal(np.argmax(diag.eigenvectors, axis=0), [1, 5, 4, 2, 3, 0, 6])

    def test_empty_and_mismatched(self, kernel_calls):
        assert eigh_many([]) == []
        with pytest.raises(ValueError, match="same dimension"):
            eigh_many([SymmetricMatrix(np.eye(2)), SymmetricMatrix(np.eye(3))])
        assert kernel_calls == []

    def test_sweep_cap_raises(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_SWEEPS", 0)
        diagonal = SymmetricMatrix.diagonal([1.0, 2.0])
        assert eigh_many([diagonal])[0].eigenvalues.tolist() == [1.0, 2.0]
        with pytest.raises(ConvergenceError):
            eigh_many([diagonal, random_symmetric(2, 3)])

    def test_tiny_matrix_is_solved_to_its_own_scale(self):
        # the stopping rule is relative: an off-diagonal norm far below 1e-13
        # is still rotated away instead of read as converged
        m = SymmetricMatrix([[0.0, 1e-20], [1e-20, 0.0]])
        values = eigh(m).eigenvalues
        assert values.tolist() == pytest.approx([-1e-20, 1e-20], rel=1e-13, abs=0.0)


class TestSolvedDiagonals:
    """`core._solved_diagonals(stack, None)`, the eigenvalues-only solve of a
    (k, n, n) stack that `psd_block_bounds` makes."""

    @staticmethod
    def stack(n):
        basis = PortableRng(900 + n).haar_orthogonal(n)
        repeated = np.repeat([-1.0, 2.0, 2.0, 5.0], n)[:n]
        return [
            random_symmetric(n, 910 + n),
            SymmetricMatrix(random_psd(n, 920 + n).entries * 2.0**80),
            SymmetricMatrix(random_symmetric(n, 930 + n).entries * 2.0**-80),
            SymmetricMatrix(np.zeros((n, n))),
            SymmetricMatrix((basis * repeated) @ basis.T),
            SymmetricMatrix.diagonal(repeated),
        ]

    @staticmethod
    def solved(ms):
        return core._solved_diagonals(np.array([m.entries for m in ms]), None)

    @pytest.mark.parametrize("n", [1, 2, 7, 15, 16, 24])
    def test_sorted_diagonals_are_eigh_many_eigenvalues_bit_for_bit(self, n):
        # from n = 16 the kernel takes all-pairs steps; bytes also tell -0.0
        # from 0.0
        ms = self.stack(n)
        stacked = self.solved(ms)
        assert stacked.shape == (len(ms), n)
        for i, (m, dec) in enumerate(zip(ms, eigh_many(ms), strict=True)):
            assert np.sort(stacked[i], kind="stable").tobytes() == dec.eigenvalues.tobytes()
            alone = self.solved([m])[0]
            assert np.sort(alone, kind="stable").tobytes() == dec.eigenvalues.tobytes()

    def test_the_kernel_carries_no_vectors(self, monkeypatch):
        seen = []
        kernel = core.jacobi_sweeps

        def spy(a, vec, *args):
            seen.append(vec)
            return kernel(a, vec, *args)

        monkeypatch.setattr(core, "jacobi_sweeps", spy)
        self.solved(self.stack(7))
        assert seen == [None]

    def test_sweep_cap_raises(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_SWEEPS", 0)
        # a diagonal needs no sweep and keeps its index order
        diagonal = SymmetricMatrix.diagonal([2.0, 1.0])
        assert self.solved([diagonal]).tolist() == [[2.0, 1.0]]
        with pytest.raises(ConvergenceError):
            self.solved([diagonal, random_symmetric(2, 3)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_refused_before_the_kernel(self, kernel_calls, bad):
        good = np.array([m.entries for m in self.stack(7)])
        for i, j, k in ((0, 0, 0), (2, 3, 5), (5, 6, 6)):
            stack = good.copy()
            stack[i, j, k] = bad
            with pytest.raises(ValueError, match="entries must be finite"):
                core._solved_diagonals(stack, None)
            with pytest.raises(ValueError, match="entries must be finite"):
                core._solved_diagonals(stack, np.repeat(np.eye(7)[None], len(stack), axis=0))
        assert kernel_calls == []


class TestSingularValuesMany:
    def stack(self, shape, count, seed):
        g = PortableRng(seed).gaussians(count * shape[0] * shape[1])
        return list(g.reshape(count, *shape))

    @pytest.mark.parametrize(
        "shape", [(6, 6), (4, 9), (9, 4), (2, 5), (17, 12), (24, 24), (20, 33), (40, 16)]
    )
    def test_stack_gives_the_bits_of_each_matrix_alone(self, shape):
        ms = self.stack(shape, 5, 71)
        for m, values in zip(ms, singular_values_many(ms), strict=True):
            assert np.array_equal(values, singular_values_many([m])[0])

    @staticmethod
    def cold(family, r, count):
        """`count` cold r x r matrices: singular values 1 + 1e-6 k, or four
        equal ones each of 1, 2, ..., r/4, between Haar bases; or rank 2."""
        rng = PortableRng(r)
        if family == "rank-2":
            g = rng.gaussians(count * 4 * r).reshape(count, 2, 2, r)
            return list(g[:, 0].transpose(0, 2, 1) @ g[:, 1])
        if family == "near-repeated":
            d = 1.0 + 1e-6 * np.arange(r)
        else:
            d = np.repeat(np.arange(1.0, r // 4 + 1), 4)
        return [(rng.haar_orthogonal(r) * d) @ rng.haar_orthogonal(r).T for _ in range(count)]

    @pytest.mark.parametrize(
        "family, shape",
        [
            pytest.param("gaussian", shape, id=f"shape{i}")
            for i, shape in enumerate([(8, 8), (5, 11), (11, 5), (32, 32), (3, 1)])
        ]
        + [
            pytest.param(family, (r, r), id=f"{family}-{r}")
            for family in COLD_FAMILIES
            for r in (16, 24, 32)
        ],
    )
    def test_matches_numpy_svd(self, kernel_calls, family, shape):
        # cold stacks, where the two QR passes leave the steps the most to do,
        # must also keep every value to relative accuracy (rank 2 past its
        # zeros) within the step cap
        if family == "gaussian":
            ms = self.stack(shape, 6, 72)
        else:
            ms = self.cold(family, shape[0], 6)
        for m, values in zip(ms, singular_values_many(ms)):
            oracle = np.linalg.svd(m, compute_uv=False)
            assert values.shape == oracle.shape
            assert np.all(np.diff(values) <= 0.0)
            assert np.abs(values - oracle).max() <= 1e-13 * oracle[0]
            if family != "gaussian":
                kept = oracle > 1e-12 * oracle[0]
                assert np.max(np.abs(values - oracle)[kept] / oracle[kept]) <= 1e-14
        assert kernel_calls.counts[0].steps.max() <= _jacobi.STEP_CAP

    @pytest.mark.parametrize("scale", [1.0, 2.0**80, 2.0**-80])
    @pytest.mark.parametrize("shape", [(6, 6), (5, 9), (9, 5), (1, 7), (12, 12)])
    def test_graded_singular_values_to_full_relative_accuracy(self, shape, scale):
        # B = diag(d) H, with H orthonormal rows of a Haar matrix, has the
        # singular values d; d runs from 1 down to 1e-150 in shuffled order,
        # so the QR pivots and the one-sided rotations must both keep the
        # smallest ones to relative accuracy
        k, n = min(shape), max(shape)
        rng = PortableRng(78 + n)
        d = np.logspace(0.0, -150.0, k)[np.argsort(rng.uniforms(k))]
        b = d[:, None] * rng.haar_orthogonal(n)[:k]
        m = scale * (b if shape[0] <= shape[1] else b.T)
        values = singular_values_many([m])[0]
        expected = scale * np.sort(d)[::-1]
        assert np.max(np.abs(values - expected) / expected) <= 1e-14

    @pytest.mark.parametrize("scale", [1.0, 2.0**80, 2.0**-80])
    @pytest.mark.parametrize("r", [12, 16, 24, 32])
    def test_graded_rows_keep_their_values_through_the_steps(
        self, monkeypatch, kernel_calls, r, scale
    ):
        # B = diag(d) X with Gaussian X and d graded from 1 down to 1e-100 in
        # groups of four equal entries, shuffled. Two QR passes separate the
        # groups but leave the rows within a group far from orthogonal (the
        # diag(d) H rows above leave them orthogonal), so the kernel
        # rotates, and every matrix steps. Its values must be those of two
        # passes and sweeps alone (a step cap of 0) to the relative accuracy
        # one-sided Jacobi gives graded rows
        rng = PortableRng(180 + r)
        ms = []
        for _ in range(10):
            d = np.repeat(np.logspace(0.0, -100.0, r // 4), 4)[np.argsort(rng.uniforms(r))]
            ms.append(scale * d[:, None] * rng.gaussians(r * r).reshape(r, r))
        stepped = singular_values_many(ms)
        monkeypatch.setattr(_jacobi, "STEP_CAP", 0)
        swept = singular_values_many(ms)
        steps = [found.steps for found in kernel_calls.counts]
        assert np.all(steps[0] > 0) and steps[1].tolist() == [0] * 10
        for values, alone in zip(stepped, swept, strict=True):
            assert np.all(alone > 0.0)
            assert np.max(np.abs(values - alone) / alone) <= 1e-14

    def test_one_row_has_no_rounds(self):
        assert _jacobi._pairs(1) == ()
        b = np.array([[[3.0, 4.0]], [[0.0, 0.0]]])
        _, (sweeps, off, *_) = _jacobi.hestenes_sweeps(b, 1e-13, 100)
        assert sweeps.tolist() == [0, 0] and off.tolist() == [0.0, 0.0]
        assert [v.tolist() for v in singular_values_many(list(b))] == [[5.0], [0.0]]
        assert singular_values_many([np.array([[3.0], [4.0]])])[0].tolist() == [5.0]

    def test_zero_matrix_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = singular_values_many([np.zeros((3, 4))])
        assert values[0].tolist() == [0.0, 0.0, 0.0]

    def test_sweep_cap_raises(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_SWEEPS", 0)
        # the stopping rule is checked before the first sweep: orthogonal rows
        # need none, a random 2x3 matrix needs one
        orthogonal = np.array([[3.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        assert singular_values_many([orthogonal])[0].tolist() == [3.0, 2.0]
        with pytest.raises(ConvergenceError):
            singular_values_many([orthogonal, *self.stack((2, 3), 1, 73)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_refused_before_the_kernel(self, kernel_calls, bad):
        m = np.array([[bad, 1.0], [0.0, 1.0]])
        good = self.stack((2, 2), 2, 74)
        for ms in ([m], [good[0], m, good[1]], [m.T, *good]):
            with pytest.raises(ValueError, match="entries must be finite"):
                singular_values_many(ms)
        assert kernel_calls == []

    def test_empty_and_mismatched(self):
        assert singular_values_many([]) == []
        with pytest.raises(ValueError):
            singular_values_many([np.zeros((2, 3)), np.zeros((3, 2))])

    def test_zero_rows_at_24_rows_give_exact_zeros(self, kernel_calls):
        # 24 x 30 matrices with four zero rows, one with a fifth, and their
        # transposes: the QR passes keep a zero row exactly zero, and so do
        # the steps, whose rotations leave a zero row alone
        g = PortableRng(79).gaussians(3 * 24 * 30).reshape(3, 24, 30)
        g[:, [3, 10, 17, 23]] = 0.0
        g[1, 5] = 0.0
        for ms in (list(g), list(g.transpose(0, 2, 1))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                solved = singular_values_many(ms)
            for m, values, zeros in zip(ms, solved, (4, 5, 4), strict=True):
                oracle = np.linalg.svd(m, compute_uv=False)
                assert values[-zeros:].tolist() == [0.0] * zeros and values[-zeros - 1] > 0.1
                assert np.abs(values - oracle).max() <= 1e-13 * oracle[0]
        counts = kernel_calls.counts
        assert len(counts) == 2 and all(np.all(found.steps > 0) for found in counts)


class TestPinnedSteppedKernels:
    # at 24 rows both kernels step, through LAPACK's QR, and the one-sided
    # kernel takes two QR passes to its steps: pinned for PINNED_BUILD and
    # PINNED_CORE, so that a change of their bits shows
    def test_singular_values_of_a_24_row_stack(self, pinned_build):
        g = PortableRng(81).gaussians(4 * 24 * 30).reshape(4, 24, 30)
        g[1] *= np.logspace(0, -12, 24)[:, None]
        digest = hashlib.sha256()
        for values in singular_values_many(list(g)):
            digest.update(values.tobytes())
        assert digest.hexdigest() == (
            "7915859f82ae4cb1a218d593ffe571c959b55bd12550508ac508f13892865963"
        )

    def test_eigenpairs_of_an_n_24_stack(self, pinned_build):
        small = SymmetricMatrix(random_symmetric(24, 84).entries * 1e-6)
        ms = [random_symmetric(24, 82), random_psd(24, 83), small]
        digest = hashlib.sha256()
        for dec in eigh_many(ms):
            digest.update(dec.eigenvalues.tobytes())
            digest.update(dec.eigenvectors.tobytes())
        assert digest.hexdigest() == (
            "fd1bde0524216435c14d1a6e1f90df10e6f1139dc81b493bb6596fab6094cc07"
        )


class TestPowerOfTwoScaling:
    # both kernels work on each matrix divided by a power of two, so values
    # near overflow or underflow keep their relative accuracy
    @staticmethod
    def quietly(fn, *args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return fn(*args)

    def test_eigh_near_overflow(self):
        m = SymmetricMatrix([[0.0, 1e200], [1e200, 0.0]])
        values = self.quietly(eigh, m).eigenvalues
        assert values.tolist() == pytest.approx([-1e200, 1e200], rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "m", [np.diag([3e-170, 4e-170]), np.array([[1e200, 1e200], [0.0, 1e200]])]
    )
    def test_singular_values_at_extreme_scales(self, m):
        values = self.quietly(singular_values_many, [m])[0]
        oracle = np.linalg.svd(m, compute_uv=False)
        assert values.tolist() == pytest.approx(oracle.tolist(), rel=1e-13, abs=0.0)

    def test_subnormal_entries_without_warnings(self):
        # subnormal entries scale up to [1/2, 1) and back down exactly
        m = np.diag([5e-324, 1e-323])
        values = self.quietly(eigh, SymmetricMatrix(m)).eigenvalues
        assert values.tolist() == [5e-324, 1e-323]
        assert self.quietly(singular_values_many, [m])[0].tolist() == [1e-323, 5e-324]

    @pytest.mark.parametrize("k", [-60, -7, 1, 60])
    def test_kernels_commute_with_powers_of_two(self, k):
        # 2^k * M with the tolerance times 2^k runs the same rotations and
        # ends at exactly 2^k times the result; the one-sided tolerance is a
        # cosine, which has no scale. So the scaling in core moves no bit.
        g = PortableRng(76).gaussians(3 * 7 * 7).reshape(3, 7, 7)
        a = g + g.transpose(0, 2, 1)
        tol = 1e-13 * (1.0 + np.sqrt(np.sum(a * a, axis=(1, 2))))
        runs = []
        for factor in (1.0, 2.0**k):
            sym, rows = a * factor, g[:, :4] * factor
            vec = np.repeat(np.eye(7)[None], 3, axis=0)
            two = _jacobi.jacobi_sweeps(sym, vec, tol * factor, 100)
            rows, one = _jacobi.hestenes_sweeps(rows, 1e-13, 100)
            runs.append((sym, vec, rows, two, one))
        (sym, vec, rows, two, one), (sym_k, vec_k, rows_k, two_k, one_k) = runs
        assert np.array_equal(sym_k, sym * 2.0**k) and np.array_equal(vec_k, vec)
        assert np.array_equal(rows_k, rows * 2.0**k)
        assert np.array_equal(two_k[0], two[0])
        assert np.array_equal(two_k[1], two[1] * 2.0**k)
        assert np.array_equal(one_k[0], one[0]) and np.array_equal(one_k[1], one[1])

    def test_both_kernels_report_one_scale_free_residual(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_SWEEPS", 0)
        m = random_symmetric(4, 77)
        messages = set()
        for factor in (1.0, 2.0**-80, 2.0**80):
            with pytest.raises(ConvergenceError) as err:
                eigh(SymmetricMatrix(m.entries * factor))
            messages.add(str(err.value))
        (message,) = messages
        assert message.startswith("no convergence in 0 sweeps: residual ")
        assert message.endswith(" above tolerance 1e-13")
        with pytest.raises(ConvergenceError, match=r"^no convergence in 0 sweeps: residual "):
            singular_values_many([m.entries[:2]])


class TestNormAndPsd:
    # the spectral norm is eigh(m).norm; the PSD test is core.require_psd
    def test_operator_norm_diag(self):
        assert eigh(SymmetricMatrix.diagonal([-4.0, 3.0])).norm == 4.0

    @given(st.integers(min_value=0, max_value=10**6), st.floats(-3.0, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_operator_norm_scaling(self, seed, factor):
        m = random_symmetric(5, seed)
        base = eigh(m).norm
        assert eigh(SymmetricMatrix(m.entries * factor)).norm == pytest.approx(
            abs(factor) * base, abs=1e-12 * (1.0 + base)
        )

    def test_is_psd(self):
        assert eigh(random_psd(6, 11)).eigenvalues[0] >= -1e-10
        assert eigh(SymmetricMatrix.diagonal([1.0, -0.5])).eigenvalues[0] < -1e-10

    @pytest.mark.parametrize("factor", [1e-30, 1.0, 1e30])
    def test_psd_test_and_membership_scale_with_the_matrix(self, factor):
        core.require_psd(factor * np.array([-1e-11, 0.0, 1.0]))
        core.require_psd(np.zeros(3))
        with pytest.raises(ValueError, match="positive semidefinite"):
            core.require_psd(factor * np.array([-1e-9, 0.0, 1.0]))
        assert core.membership_tol(-factor) == core.membership_tol(factor) == 1e-8 * factor
        assert core.membership_tol(0.0) == 0.0


class TestIntervalSet:
    def test_merge_overlapping(self):
        s = IntervalSet(((0.0, 1.0), (0.5, 2.0), (3.0, 4.0)))
        assert s.intervals == ((0.0, 2.0), (3.0, 4.0))

    def test_merge_touching(self):
        s = IntervalSet(((0.0, 1.0), (1.0, 2.0)))
        assert s.intervals == ((0.0, 2.0),)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            IntervalSet(((1.0, 0.0),))

    def test_from_points(self):
        s = IntervalSet.from_points([2.0, -1.0, 2.0])
        assert s.intervals == ((-1.0, -1.0), (2.0, 2.0))

    def test_inf_sup_hull(self):
        s = IntervalSet(((-1.0, 0.0), (2.0, 3.0)))
        assert s.inf == -1.0
        assert s.sup == 3.0
        assert s.hull().intervals == ((-1.0, 3.0),)

    def test_empty_set_guards(self):
        empty = IntervalSet(())
        assert empty.is_empty
        with pytest.raises(ValueError):
            _ = empty.inf

    def test_distance_and_margin(self):
        s = IntervalSet(((0.0, 1.0), (3.0, 3.0)))
        assert s.distance_to_point(0.5) == 0.0
        assert s.distance_to_point(2.0) == 1.0
        assert s.signed_margin(0.25) == 0.25
        assert s.signed_margin(2.0) == -1.0


class TestSetOperations:
    def test_shift_is_one_sided(self):
        s = IntervalSet(((0.0, 1.0),))
        assert shift_set(s, 0.5).intervals == ((0.0, 1.5),)
        with pytest.raises(ValueError):
            shift_set(s, -0.1)

    def test_shift_can_merge_components(self):
        s = IntervalSet(((0.0, 1.0), (1.5, 2.0)))
        assert shift_set(s, 0.5).intervals == ((0.0, 2.5),)

    @given(
        st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=6),
        st.floats(0.0, 10.0),
        st.floats(0.0, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_shift_composes(self, points, a, b):
        # compare as point sets, not representations: merges at exactly
        # touching endpoints may differ between the two routes by one ulp
        s = IntervalSet.from_points(points)
        left = shift_set(shift_set(s, a), b)
        right = shift_set(s, a + b)
        probes = [x for lo, hi in left.intervals + right.intervals for x in (lo, hi)]
        for probe in probes:
            gap = abs(left.distance_to_point(probe) - right.distance_to_point(probe))
            assert gap <= 1e-9 * (1.0 + abs(probe))

    def test_set_distance_symmetric_and_zero_on_overlap(self):
        s1 = IntervalSet(((0.0, 1.0),))
        s2 = IntervalSet(((3.0, 4.0),))
        assert set_distance(s1, s2) == set_distance(s2, s1) == 2.0
        assert set_distance(s1, IntervalSet(((0.5, 2.0),))) == 0.0

    @given(
        st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=5),
        st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=5),
        st.floats(0.0, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_sided_shift_shrinks_distance_boundedly(self, p1, p2, t):
        # enlarging one set can reduce the distance by at most t
        s1 = IntervalSet.from_points(p1)
        s2 = IntervalSet.from_points(p2)
        before = set_distance(s1, s2)
        after = set_distance(shift_set(s1, t), s2)
        assert after <= before + 1e-12
        assert after >= before - t - 1e-12


def loop_distance(s1, s2):
    """set_distance as a double loop over all pairs of intervals."""
    best = math.inf
    for lo1, hi1 in s1.intervals:
        for lo2, hi2 in s2.intervals:
            best = min(best, max(lo2 - hi1, lo1 - hi2, 0.0))
    return best


class TestSetDistanceMerge:
    def random_set(self, rng, count, width):
        lo = rng.uniforms(count) * 40.0 - 20.0
        return IntervalSet(tuple(zip(lo, lo + width * rng.uniforms(count))))

    @pytest.mark.parametrize("width", [0.0, 0.3, 3.0])
    def test_matches_the_loop_bit_for_bit(self, width):
        rng = PortableRng(77)
        for _ in range(300):
            counts = 1 + (rng.uniforms(2) * 12).astype(int)
            s1, s2 = (self.random_set(rng, c, width) for c in counts)
            for a, b in ((s1, s2), (s2, s1)):
                expected = loop_distance(a, b)
                assert struct.pack("<d", set_distance(a, b)) == struct.pack("<d", expected)

    @pytest.mark.parametrize(
        "s1, s2",
        [
            (((0.0, 1.0), (3.0, 4.0)), ((1.0, 2.0),)),  # touching
            (((0.0, 1.0), (5.0, 6.0)), ((0.5, 5.5),)),  # one spans a gap
            (((0.0, 0.0), (2.0, 2.0)), ((1.0, 1.0), (2.0, 3.0))),  # points
            (((0.0, 10.0),), ((2.0, 3.0), (4.0, 5.0))),  # nested
            (((-2.0, -1.0), (7.0, 8.0)), ((1.5, 2.0), (3.0, 6.5), (9.0, 9.5))),
            (((-1.0, 0.0),), ((-0.0, 1.0), (-3.0, -2.0))),  # a distance of -0.0
        ],
    )
    def test_touching_overlapping_and_nested(self, s1, s2):
        a, b = IntervalSet(s1), IntervalSet(s2)
        for x, y in ((a, b), (b, a)):
            got, expected = set_distance(x, y), loop_distance(x, y)
            assert struct.pack("<d", got) == struct.pack("<d", expected)

    def test_empty_set_raises(self):
        empty, one = IntervalSet(()), IntervalSet(((0.0, 1.0),))
        for a, b in ((empty, one), (one, empty)):
            with pytest.raises(ValueError, match="empty"):
                set_distance(a, b)


class TestProjectors:
    def test_validation(self):
        with pytest.raises(ValueError):
            Projector(SymmetricMatrix(np.eye(2)), rank=1)
        with pytest.raises(ValueError):
            Projector(SymmetricMatrix(np.full((2, 2), 0.7)), rank=1)

    def test_spectral_projector_by_indices(self):
        dec = eigh(random_symmetric(7, 21))
        p = spectral_projector(dec, (0, 3))
        assert p.rank == 2
        resid = p.matrix.entries @ p.matrix.entries - p.matrix.entries
        assert np.abs(resid).max() < 1e-12

    def test_duplicate_indices_rejected(self):
        dec = eigh(SymmetricMatrix(np.eye(3)))
        with pytest.raises(ValueError):
            spectral_projector(dec, (1, 1))

    @pytest.mark.parametrize("indices", [[0.7], [1.5, 2.7], [True], [np.float64(0.0)]])
    def test_non_integer_indices_refused(self, indices):
        dec = eigh(random_symmetric(4, 22))
        with pytest.raises(TypeError, match="integer"):
            spectral_projector(dec, indices)
        assert spectral_projector(dec, [np.int64(1)]).rank == 1

    @pytest.mark.parametrize("rank", [1.0, True, np.float64(1.0)])
    def test_non_integer_rank_refused(self, rank):
        m = SymmetricMatrix.diagonal([1.0, 0.0])
        with pytest.raises(TypeError, match="integer"):
            Projector(m, rank=rank)
        assert Projector(m, rank=np.int64(1)).rank == 1

    def test_commutes_with_matrix(self):
        m = random_symmetric(8, 31)
        dec = eigh(m)
        p = spectral_projector(dec, (0, 1, 2)).matrix.entries
        comm = p @ m.entries - m.entries @ p
        assert np.abs(comm).max() < 1e-11 * (1.0 + np.abs(m.entries).max())
