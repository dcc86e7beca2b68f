"""Subspace angles and the PSD block-norm inequalities."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specangles import (
    PortableRng,
    Projector,
    SymmetricMatrix,
    angle_report,
    angle_reports,
    block_split,
    eigh,
    eigh_many,
    psd_block_bounds,
)
from conftest import random_psd


def line_projector(phi: float) -> Projector:
    u = np.array([math.cos(phi), math.sin(phi)])
    return Projector(SymmetricMatrix(np.outer(u, u)), rank=1)


def haar_projector(n: int, rank: int, seed: int) -> Projector:
    q = PortableRng(seed).haar_orthogonal(n)
    cols = q[:, :rank]
    return Projector(SymmetricMatrix(cols @ cols.T), rank=rank)


class TestAngleReport:
    def test_rotated_line(self):
        phi = 0.3
        report = angle_report(line_projector(0.0), line_projector(phi))
        assert report.max_angle == pytest.approx(phi, abs=1e-12)
        assert report.sines[0] == pytest.approx(math.sin(phi), abs=1e-12)
        assert report.sin2_norm == pytest.approx(math.sin(2 * phi), abs=1e-12)

    def test_sines_sorted_descending_in_unit_interval(self):
        p = haar_projector(8, 3, 1)
        q = haar_projector(8, 3, 2)
        report = angle_report(p, q)
        assert np.all(np.diff(report.sines) <= 0.0)
        assert report.sines[0] <= 1.0
        assert report.sines[-1] >= 0.0

    def test_identical_projectors(self):
        p = haar_projector(6, 2, 3)
        report = angle_report(p, p)
        assert report.max_angle == 0.0
        assert report.sin2_norm == 0.0

    def test_orthogonal_ranges_hit_right_angle(self):
        p = Projector(SymmetricMatrix.diagonal([1.0, 0.0]), rank=1)
        q = Projector(SymmetricMatrix.diagonal([0.0, 1.0]), rank=1)
        report = angle_report(p, q)
        assert report.max_angle == pytest.approx(math.pi / 2, abs=1e-15)
        assert report.sin2_norm == pytest.approx(0.0, abs=1e-12)

    def test_one_singular_value_call_and_no_eigensolve(self, kernel_calls):
        p, q = haar_projector(6, 2, 10), haar_projector(6, 3, 11)
        angle_report(p, q)
        assert kernel_calls == [("one-sided", (2, 6, 6))]
        kernel_calls.clear()
        assert angle_report(p, p).sines.tolist() == [0.0] * 6
        assert kernel_calls == []

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            angle_report(haar_projector(4, 2, 4), haar_projector(5, 2, 5))

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_symmetry(self, seed):
        p = haar_projector(6, 2, seed)
        q = haar_projector(6, 4, seed + 1)
        a = angle_report(p, q)
        b = angle_report(q, p)
        assert np.abs(a.sines - b.sines).max() < 1e-12


def range_bases(p: Projector):
    vectors = np.linalg.eigh(p.matrix.entries)[1]
    return vectors[:, p.dim - p.rank :], vectors[:, : p.dim - p.rank]


def tiny_angle_pair(seed: int):
    """Bases of two planes in R^6 at canonical angles 1.2 and 1e-9, the
    second plane's basis rotated inside the plane so no column is a
    principal vector."""
    h = PortableRng(seed).haar_orthogonal(6)
    c, s = np.cos([1.2, 1e-9]), np.sin([1.2, 1e-9])
    u_q = (h[:, :2] * c + h[:, 2:4] * s) @ PortableRng(seed + 1).haar_orthogonal(2)
    perp_q = np.hstack([h[:, 2:4] * c - h[:, :2] * s, h[:, 4:]])
    return (h[:, :2], h[:, 2:]), (u_q, perp_q)


class TestAngleReportsFromBases:
    @pytest.mark.parametrize("ranks", [(3, 3), (2, 5), (5, 2), (1, 6), (0, 4)])
    def test_sines_are_the_spectrum_of_the_difference(self, ranks):
        # projectors of any ranks go through angle_report; bases only at equal
        # ranks, so they are checked with p drawn again at q's rank
        for seed in range(5):
            q = haar_projector(7, ranks[1], 200 + seed)
            for p in (haar_projector(7, r, 100 + seed) for r in set(ranks)):
                diff = p.matrix.entries - q.matrix.entries
                expected = np.sort(np.abs(np.linalg.eigvalsh(diff)))[::-1]
                if p.rank == q.rank:
                    report = angle_reports([(range_bases(p), range_bases(q))])[0]
                    assert np.abs(report.sines - expected).max() < 1e-14
                assert np.abs(angle_report(p, q).sines - expected).max() < 1e-14

    def test_small_angle_keeps_relative_accuracy(self):
        p, q = tiny_angle_pair(0)
        report = angle_reports([(p, q)])[0]
        assert report.sines[:2] == pytest.approx([math.sin(1.2)] * 2, abs=1e-14)
        assert report.sines[2:4] == pytest.approx([math.sin(1e-9)] * 2, rel=1e-6, abs=0.0)
        assert report.sines[4:].tolist() == [0.0, 0.0]
        # the shortcuts the one-sided kernel avoids lose the small angle: the
        # cosines round to 1 and S^T S squares it below rounding noise
        cosines = np.linalg.svd(p[0].T @ q[0], compute_uv=False)
        via_cosines = np.sqrt(np.clip(1.0 - cosines**2, 0.0, None)).min()
        s = p[1].T @ q[0]
        via_gram = np.sqrt(np.linalg.eigvalsh(s.T @ s).clip(0.0)).min()
        for shortcut in (via_cosines, via_gram):
            assert abs(shortcut / math.sin(1e-9) - 1.0) > 0.5
        # the projector route keeps it too: the products (I - P)Q and P(I - Q)
        # carry the small sine to the one-sided kernel without a cancellation
        p_proj, q_proj = (
            Projector(SymmetricMatrix(u @ u.T), rank=2) for u in (p[0], q[0])
        )
        sines = angle_report(p_proj, q_proj).sines
        assert sines[2:4] == pytest.approx([math.sin(1e-9)] * 2, rel=1e-6, abs=0.0)

    def test_same_span_different_bases_has_zero_product(self):
        # the bases differ, but S = U_perp_s^T U_t is exactly zero
        c, s = math.cos(0.4), math.sin(0.4)
        eye = np.eye(4)
        first = (eye[:, :2], eye[:, 2:])
        second = (eye[:, :2] @ np.array([[c, -s], [s, c]]), eye[:, 2:])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = angle_reports([(first, second)])[0]
        assert report.max_angle == 0.0
        assert report.sin2_norm == 0.0
        assert report.sines.tolist() == [0.0] * 4

    def test_one_kernel_call_per_stack(self, kernel_calls):
        # three 5 x 4 products reach the kernel oriented 4 x 5
        planes = [range_bases(haar_projector(9, 4, seed)) for seed in range(4)]
        angle_reports(list(zip(planes, planes[1:])))
        assert kernel_calls == [("one-sided", (3, 4, 5))]

    def test_bit_identical_pairs_make_no_kernel_call(self, kernel_calls):
        planes = [range_bases(haar_projector(6, 3, seed)) for seed in range(3)]
        reports = angle_reports([(plane, plane) for plane in planes])
        assert kernel_calls == []
        assert [report.sines.tolist() for report in reports] == [[0.0] * 6] * 3

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_k_distinct_pairs_make_one_call_of_stack_k(self, kernel_calls, k):
        # distinct pairs between identical ones: only the distinct form 5 x 3
        # products, which reach the kernel oriented 3 x 5, in pair order
        planes = [range_bases(haar_projector(8, 3, 400 + seed)) for seed in range(k + 1)]
        pairs = []
        for s, t in zip(planes, planes[1:]):
            pairs += [(s, s), (s, t)]
        reports = angle_reports(pairs)
        assert kernel_calls == [("one-sided", (k, 3, 5))]
        for pair, report in zip(pairs, reports, strict=True):
            assert np.array_equal(report.sines, angle_reports([pair])[0].sines)

    def test_rejects_unequal_ranks(self):
        low, high = (range_bases(haar_projector(7, r, 300 + r)) for r in (2, 5))
        for pairs in ([(low, high)], [(high, low)], [(low, low), (high, high)]):
            with pytest.raises(ValueError, match="dimension mismatch"):
                angle_reports(pairs)

    def test_rejects_mixed_n_across_pairs(self):
        small, large = (range_bases(haar_projector(n, 2, n)) for n in (5, 6))
        with pytest.raises(ValueError, match="dimension mismatch"):
            angle_reports([(small, small), (large, large)])

    @pytest.mark.parametrize("r", [0, 4])
    def test_rejects_trivial_rank(self, r):
        eye = np.eye(4)
        side = (eye[:, :r], eye[:, r:])
        with pytest.raises(ValueError, match="dimension mismatch"):
            angle_reports([(side, side)])

    def test_rejects_inconsistent_bases(self):
        p = range_bases(haar_projector(5, 2, 1))
        with pytest.raises(ValueError, match="dimension"):
            angle_reports([(p, range_bases(haar_projector(6, 2, 2)))])
        with pytest.raises(ValueError, match="dimension"):
            angle_reports([(p, (p[0], p[1][:, 1:]))])


class TestBlockSplit:
    def test_coordinate_projector_reads_off_blocks(self):
        v = random_psd(5, 31)
        q = Projector(SymmetricMatrix.diagonal([1.0, 1.0, 0.0, 0.0, 0.0]), rank=2)
        split = block_split(v, q)
        assert np.abs(split.v0.entries - v.entries[:2, :2]).max() < 1e-12
        assert np.abs(split.v1.entries - v.entries[2:, 2:]).max() < 1e-12
        assert np.abs(np.abs(split.w) - np.abs(v.entries[:2, 2:])).max() < 1e-12

    def test_reassemble_round_trip(self):
        v = random_psd(7, 32)
        q = haar_projector(7, 3, 33)
        split = block_split(v, q)
        r = q.rank
        block = np.zeros((7, 7))
        block[:r, :r] = split.v0.entries
        block[:r, r:] = split.w
        block[r:, :r] = split.w.T
        block[r:, r:] = split.v1.entries
        rebuilt = SymmetricMatrix(split.basis @ block @ split.basis.T)
        scale = 1.0 + np.abs(v.entries).max()
        assert np.abs(rebuilt.entries - v.entries).max() < 1e-10 * scale

    def test_basis_and_norms_match_block_lemma(self):
        # criterion 09's draws: the split's bases span Ran Q and its
        # complement, and its block norms are the block lemma's triple
        for trial in range(300):
            n = 2 + trial % 9
            rng = PortableRng(7000 + trial)
            g = rng.gaussians(n * n).reshape(n, n)
            v = SymmetricMatrix(g @ g.T)
            cols = rng.haar_orthogonal(n)[:, : 1 + trial % (n - 1)]
            q = Projector(SymmetricMatrix(cols @ cols.T), rank=cols.shape[1])
            split = block_split(v, q)
            b0, b1 = split.basis[:, : q.rank], split.basis[:, q.rank :]
            assert np.abs(q.matrix.entries @ b0 - b0).max() <= 1e-12
            assert np.abs(q.matrix.entries @ b1).max() <= 1e-12
            lower, middle, upper = psd_block_bounds(v, q)
            scale = 1.0 + middle
            w_norm = np.linalg.norm(split.w, 2)
            diag_norm = max(
                np.linalg.norm(split.v0.entries, 2), np.linalg.norm(split.v1.entries, 2)
            )
            assert abs(2.0 * w_norm - lower) <= 1e-12 * scale
            assert abs(2.0 * diag_norm - upper) <= 1e-12 * scale

    def test_rank_extremes_rejected(self):
        v = random_psd(4, 34)
        with pytest.raises(ValueError):
            block_split(v, Projector(SymmetricMatrix(np.zeros((4, 4))), rank=0))
        with pytest.raises(ValueError):
            block_split(v, Projector(SymmetricMatrix(np.eye(4)), rank=4))


class TestPsdBlockBounds:
    def test_ordering_on_random_psd(self):
        for seed in range(40, 60):
            n = 3 + seed % 6
            v = random_psd(n, seed)
            q = haar_projector(n, 1 + seed % (n - 1), seed + 1000)
            lower, middle, upper = psd_block_bounds(v, q)
            assert lower <= middle + 1e-10
            assert middle <= upper + 1e-10

    def test_matches_explicit_blocks(self):
        # criterion 09's draws; the blocks are taken in the Haar basis whose
        # leading columns span Ran Q, and normed by numpy's SVD
        for trial in range(300):
            n = 2 + trial % 9
            rng = PortableRng(7000 + trial)
            g = rng.gaussians(n * n).reshape(n, n)
            v = SymmetricMatrix(g @ g.T)
            basis = rng.haar_orthogonal(n)
            rank = 1 + trial % (n - 1)
            b0, b1 = basis[:, :rank], basis[:, rank:]
            q = Projector(SymmetricMatrix(b0 @ b0.T), rank=rank)
            m = v.entries
            expected = (
                2.0 * np.linalg.norm(b0.T @ m @ b1, 2),
                np.linalg.norm(m, 2),
                2.0 * max(np.linalg.norm(b0.T @ m @ b0, 2), np.linalg.norm(b1.T @ m @ b1, 2)),
            )
            got = psd_block_bounds(v, q)
            scale = 1.0 + expected[1]
            assert np.abs(np.subtract(got, expected)).max() <= 1e-12 * scale

    def test_criterion_09_draws_keep_the_bits_of_full_decompositions(self):
        # the eigenvalues-only solve against the norms of eigh_many's
        # decompositions of the same three matrices
        for trial in range(1000):
            n = 2 + trial % 9
            rng = PortableRng(7000 + trial)
            g = rng.gaussians(n * n).reshape(n, n)
            v = SymmetricMatrix(g @ g.T)
            cols = rng.haar_orthogonal(n)[:, : 1 + trial % (n - 1)]
            q = Projector(SymmetricMatrix(cols @ cols.T), rank=cols.shape[1])
            k = 2.0 * q.matrix.entries - np.eye(n)
            kvk = k @ v.entries @ k
            dec_v, dec_off, dec_diag = eigh_many(
                [v, SymmetricMatrix(v.entries - kvk), SymmetricMatrix(v.entries + kvk)]
            )
            expected = (dec_off.norm, dec_v.norm, dec_diag.norm)
            got = psd_block_bounds(v, q)
            assert np.array(got).tobytes() == np.array(expected).tobytes()

    def test_one_kernel_call_per_triple(self, kernel_calls):
        v = random_psd(6, 61)
        psd_block_bounds(v, haar_projector(6, 2, 62))
        assert kernel_calls == [("two-sided", (3, 6, 6))]

    def test_rejects_indefinite(self):
        v = SymmetricMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        q = Projector(SymmetricMatrix.diagonal([1.0, 0.0]), rank=1)
        with pytest.raises(ValueError, match="positive semidefinite"):
            psd_block_bounds(v, q)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            psd_block_bounds(random_psd(4, 63), haar_projector(5, 2, 64))

    @pytest.mark.parametrize("s", [1e-14, 1e8])
    def test_triple_scales_with_v(self, s):
        # the PSD test is relative to ||V||, and so is the solve
        u = PortableRng(0).unit_vector(5)
        q = haar_projector(5, 2, 66)
        unit = psd_block_bounds(SymmetricMatrix(np.outer(u, u)), q)
        scaled = psd_block_bounds(SymmetricMatrix(s * np.outer(u, u)), q)
        assert list(scaled) == pytest.approx([s * x for x in unit], rel=1e-13, abs=0.0)

    def test_rejects_tiny_indefinite(self):
        v = SymmetricMatrix(1e-12 * np.diag([1.0, -1.0, 0.5]))
        q = Projector(SymmetricMatrix.diagonal([1.0, 0.0, 0.0]), rank=1)
        with pytest.raises(ValueError, match="positive semidefinite"):
            psd_block_bounds(v, q)

    def test_tiny_v_gets_its_exact_triple(self):
        v = SymmetricMatrix(1e-20 * np.array([[2.0, 1.0], [1.0, 2.0]]))
        q = Projector(SymmetricMatrix.diagonal([1.0, 0.0]), rank=1)
        triple = psd_block_bounds(v, q)
        assert list(triple) == pytest.approx([2e-20, 3e-20, 4e-20], rel=1e-13, abs=0.0)

    def test_rejects_rank_extremes(self):
        v = random_psd(4, 65)
        for q in (
            Projector(SymmetricMatrix(np.zeros((4, 4))), rank=0),
            Projector(SymmetricMatrix(np.eye(4)), rank=4),
        ):
            with pytest.raises(ValueError, match="nontrivial rank"):
                psd_block_bounds(v, q)

    def test_indefinite_breaks_lower_inequality(self):
        # the same matrix split by hand: 2||W|| = 2 exceeds ||V|| = 1, so the
        # lower inequality genuinely needs positive semidefiniteness
        v = SymmetricMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        q = Projector(SymmetricMatrix.diagonal([1.0, 0.0]), rank=1)
        split = block_split(v, q)
        w_norm = float(np.abs(split.w).max())
        assert 2.0 * w_norm == pytest.approx(2.0, abs=1e-12)
        assert operator_norm_of(v) == pytest.approx(1.0, abs=1e-12)


def operator_norm_of(m: SymmetricMatrix) -> float:
    w = eigh(m).eigenvalues
    return max(abs(float(w[0])), abs(float(w[-1])))
