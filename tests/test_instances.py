"""Instance construction: plans, exact families, and seeded ensembles."""

import hashlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from specangles import (
    IntervalSet,
    PerturbationInstance,
    SpectralDecomposition,
    SymmetricMatrix,
    block_example,
    convex_plan,
    eigh,
    interleaved_plan,
    omega_component,
    psd_block_bounds,
    random_instance,
    rank_one_instance,
    sharpness_pair,
    spectral_projector,
)
from specangles import campaign
from specangles.campaign import CampaignConfig, run_campaign
from specangles.instances import DOUBLY_INTERLEAVED, SpecPlan


CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "verify500.json"

# sha256 of the bytes of A, and separately of V, of the first 15 verify500
# trials, which cover every plan of that config. haar_orthogonal calls LAPACK's
# QR, and both A and V are built on a Haar basis, so the bytes hold for
# conftest's PINNED_BUILD only. V is drawn after A from the same stream, so
# A's bytes do not depend on how V is drawn.
FIRST_TRIALS_A_SHA256 = "eca350f6989d7a228c67e9f6eccc4114a16ef39c0033a5ca1326b07b58b41dbe"
FIRST_TRIALS_V_SHA256 = "5e3d5927b3482c9a4aa0c7c31f2f134b87ce7887d51bb83f07bae71f273e50b7"

GENERATORS = {
    "convex": lambda n, seed: random_instance(n, convex_plan(n), 0.65, seed),
    "interleaved": lambda n, seed: random_instance(n, interleaved_plan(n), 0.65, seed),
    "rank-one": lambda n, seed: rank_one_instance(n, convex_plan(n), 0.65, seed),
}


def endpoint_report(inst):
    """The angle report of the tracked subspace between t = 0 and t = 1."""
    _, (report,) = campaign.walk_path(inst, [(0.0, 1.0)])
    return report


class TestSpecPlan:
    def test_convex_plan_shape(self):
        plan = convex_plan(8)
        assert plan.n == 8
        assert plan.counts == (4, 4)
        assert plan.d_target == 1.0
        assert plan.geometry == "convex-separated"

    def test_convex_plan_scales_with_gap(self):
        plan = convex_plan(5, d_target=2.0)
        assert plan.sigma_locs.intervals == ((-2.0, -0.5),)
        assert plan.big_sigma_locs.intervals == ((1.5, 3.0),)
        assert plan.counts == (2, 3)

    def test_interleaved_plan_shape(self):
        plan = interleaved_plan(9)
        assert plan.counts == (4, 5)
        assert plan.d_target == 2.0
        assert plan.geometry == DOUBLY_INTERLEAVED
        assert plan.geometry == "doubly-interleaved"

    def test_size_floors(self):
        with pytest.raises(ValueError):
            convex_plan(1)
        with pytest.raises(ValueError):
            interleaved_plan(3)
        with pytest.raises(ValueError):
            convex_plan(4, d_target=0.0)

    def test_gap_must_match_declared_target(self):
        with pytest.raises(ValueError):
            SpecPlan(
                geometry="convex-separated",
                sigma_locs=IntervalSet(((0.0, 1.0),)),
                big_sigma_locs=IntervalSet(((2.0, 3.0),)),
                counts=(1, 1),
                d_target=0.5,
            )

    def test_geometry_label_must_match_sets(self):
        with pytest.raises(ValueError):
            SpecPlan(
                geometry=DOUBLY_INTERLEAVED,
                sigma_locs=IntervalSet(((0.0, 1.0),)),
                big_sigma_locs=IntervalSet(((2.0, 3.0),)),
                counts=(1, 1),
                d_target=1.0,
            )

    def test_gap_is_matched_relative_to_the_target(self):
        # clusters 5e-13 apart lie within 1e-12 of d_target = 1e-20, but do
        # not realize it
        with pytest.raises(ValueError, match="does not realize"):
            SpecPlan(
                geometry="convex-separated",
                sigma_locs=IntervalSet(((-1e-20, 0.0),)),
                big_sigma_locs=IntervalSet(((5e-13, 1e-12),)),
                counts=(4, 4),
                d_target=1e-20,
            )
        assert convex_plan(8, 1e-20).d_target == 1e-20

    def test_unknown_geometry_rejected(self):
        with pytest.raises(ValueError):
            SpecPlan(
                geometry="diagonal",
                sigma_locs=IntervalSet(((0.0, 1.0),)),
                big_sigma_locs=IntervalSet(((2.0, 3.0),)),
                counts=(1, 1),
                d_target=1.0,
            )


class TestSharpnessPair:
    def test_exact_spectra(self):
        v = 0.6
        inst = sharpness_pair(v)
        assert inst.d == 1.0
        assert inst.geometry == "convex-separated"
        assert inst.v_norm == pytest.approx(v, abs=1e-14)
        spec_v = eigh(inst.v).eigenvalues
        assert spec_v[0] == pytest.approx(0.0, abs=1e-15)
        assert spec_v[1] == pytest.approx(v, abs=1e-15)
        root = math.sqrt(1.0 - v * v)
        spec_avm = eigh(SymmetricMatrix(inst.a.entries + inst.v.entries)).eigenvalues
        assert spec_avm[0] == pytest.approx((v - root) / 2.0, abs=1e-15)
        assert spec_avm[1] == pytest.approx((v + root) / 2.0, abs=1e-15)

    def test_rotation_angle_attains_bound(self):
        for v in (0.05, 0.45, 0.85):
            inst = sharpness_pair(v)
            theta = endpoint_report(inst).max_angle
            assert theta == pytest.approx(0.5 * math.asin(v), abs=1e-12)

    def test_label_and_domain(self):
        assert sharpness_pair(0.25).label == "sharpness-v0.25"
        with pytest.raises(ValueError):
            sharpness_pair(1.0)
        with pytest.raises(ValueError):
            sharpness_pair(-0.1)

    def test_zero_perturbation_degenerates_cleanly(self):
        inst = sharpness_pair(0.0)
        assert inst.v_norm == 0.0
        assert not np.any(inst.v.entries)


class TestBlockExample:
    def test_dyadic_norm_triple_is_exact(self):
        v, q = block_example(1.0, 0.75)
        lower, middle, upper = psd_block_bounds(v, q)
        assert (lower, middle, upper) == (1.0, 1.0, 1.5)

    def test_degenerate_corner(self):
        v, q = block_example(1.0, 0.5)
        assert psd_block_bounds(v, q) == (1.0, 1.0, 1.0)

    def test_spectrum(self):
        v, _ = block_example(0.5, 0.5)
        w = eigh(v).eigenvalues
        assert w == pytest.approx([0.0, 0.5, 0.5, 0.5], abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            block_example(0.0, 0.0)
        with pytest.raises(ValueError):
            block_example(1.0, 0.4)
        with pytest.raises(ValueError):
            block_example(1.0, 1.1)


class TestRandomInstance:
    def test_convex_instance_realizes_plan(self):
        plan = convex_plan(8)
        inst = random_instance(8, plan, 0.3, seed=7)
        assert inst.d == pytest.approx(1.0, abs=1e-10)
        assert inst.v_norm == pytest.approx(0.3, abs=1e-10)
        assert inst.geometry == "convex-separated"
        assert len(inst.sigma_indices) == plan.counts[0]
        assert inst.label == "convex-separated-n8-v0.3-s7"

    def test_sampled_spectrum_stays_in_clusters(self):
        plan = convex_plan(10)
        inst = random_instance(10, plan, 0.1, seed=3)
        w = inst.dec_a.eigenvalues
        for k in range(10):
            locs = plan.sigma_locs if k in inst.sigma_indices else plan.big_sigma_locs
            assert locs.distance_to_point(float(w[k])) < 1e-10

    def test_interleaved_instance(self):
        plan = interleaved_plan(9)
        inst = random_instance(9, plan, 0.4, seed=11)
        assert inst.d == pytest.approx(2.0, abs=1e-10)
        assert inst.geometry == "interleaved"
        assert inst.v_norm == pytest.approx(0.8, abs=1e-10)

    def test_zero_ratio_gives_zero_perturbation(self):
        inst = random_instance(6, convex_plan(6), 0.0, seed=1)
        assert inst.v_norm == 0.0
        assert not np.any(inst.v.entries)

    def test_seed_determinism(self):
        a = random_instance(6, convex_plan(6), 0.5, seed=9)
        b = random_instance(6, convex_plan(6), 0.5, seed=9)
        c = random_instance(6, convex_plan(6), 0.5, seed=10)
        assert np.array_equal(a.a.entries, b.a.entries)
        assert np.array_equal(a.v.entries, b.v.entries)
        assert not np.array_equal(a.a.entries, c.a.entries)

    def test_validation(self):
        plan = convex_plan(6)
        with pytest.raises(ValueError):
            random_instance(5, plan, 0.5, seed=0)
        with pytest.raises(ValueError):
            random_instance(6, plan, 1.0, seed=0)
        with pytest.raises(ValueError):
            random_instance(6, plan, -0.2, seed=0)

    def test_component_tracking_end_to_end(self):
        inst = random_instance(8, interleaved_plan(8), 0.6, seed=21)
        comp = omega_component(inst, 1.0)
        assert len(comp.omega_indices) == len(inst.sigma_indices)


class TestRankOneInstance:
    def test_perturbation_is_a_spike(self):
        plan = convex_plan(7)
        inst = rank_one_instance(7, plan, 0.35, seed=5)
        w = eigh(inst.v).eigenvalues
        assert w[-1] == pytest.approx(0.35, abs=1e-12)
        assert np.abs(w[:-1]).max() < 1e-12
        assert inst.v_norm == pytest.approx(0.35, abs=1e-12)
        assert inst.label == "rank-one-convex-separated-n7-v0.35-s5"

    def test_projector_motion_bounded_by_ratio(self):
        inst = rank_one_instance(8, convex_plan(8), 0.55, seed=14)
        assert endpoint_report(inst).sines[0] <= inst.v_norm / inst.d + 1e-8

    def test_axis_aligned_spike_matches_plane_trigonometry(self):
        # A diagonal and u mixing exactly one tracked with one untracked
        # coordinate: the problem decouples into a 2x2 block where the
        # projector rotation angle is (1/2)*atan(v/(c-a)) by hand.
        a = SymmetricMatrix.diagonal([0.0, 3.0, 10.0, 13.0])
        v_norm = 0.8
        u = np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2.0)
        v = SymmetricMatrix(v_norm * np.outer(u, u))
        inst = PerturbationInstance.build(a, v, (0, 1))
        phi = 0.5 * math.atan2(v_norm, 10.0)
        assert endpoint_report(inst).sines[0] == pytest.approx(
            math.sin(phi), abs=1e-12
        )


class TestGeneratedDecomposition:
    """Generators hand assemble() the spectrum and basis they build A from;
    that decomposition must be the one eigh would give, up to rounding."""

    @pytest.mark.parametrize("n", [8, 48])
    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_matches_a_solve_of_a(self, kind, n):
        inst = GENERATORS[kind](n, 31)
        w, q = inst.dec_a.eigenvalues, inst.dec_a.eigenvectors
        assert np.all(np.diff(w) >= 0.0)
        lead = np.argmax(np.abs(q), axis=0)
        assert np.all(q[lead, np.arange(n)] > 0.0)
        solved = eigh(inst.a)
        scale = 1e-12 * (1.0 + solved.norm)
        assert np.abs(w - solved.eigenvalues).max() <= scale
        ours = spectral_projector(inst.dec_a, inst.sigma_indices).matrix.entries
        theirs = spectral_projector(solved, inst.sigma_indices).matrix.entries
        assert np.abs(ours - theirs).max() <= scale

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_v_norm_matches_a_solve_of_v(self, kind):
        inst = GENERATORS[kind](8, 5)
        assert inst.v_norm == pytest.approx(eigh(inst.v).norm, abs=1e-12)

    @pytest.mark.parametrize("v_ratio", [0.05, 0.65, 0.95])
    @pytest.mark.parametrize("plan", [convex_plan, interleaved_plan])
    @pytest.mark.parametrize("n", [4, 9, 48])
    def test_sampled_v_spectrum_matches_a_solve_of_v(self, monkeypatch, plan, n, v_ratio):
        # V's spectrum is sampled, not solved; it must agree with a solve of
        # V within 1e-13 * ||V||_F, ascend, and end at v_ratio * d exactly
        given = []
        assemble = PerturbationInstance.assemble.__func__

        def record(cls, a, v, sigma_indices, dec_a, v_eigenvalues, label=""):
            given.append(v_eigenvalues)
            return assemble(cls, a, v, sigma_indices, dec_a, v_eigenvalues, label)

        monkeypatch.setattr(PerturbationInstance, "assemble", classmethod(record))
        p = plan(n)
        inst = random_instance(n, p, v_ratio, 32)
        (v_eigenvalues,) = given
        oracle = eigh(inst.v).eigenvalues
        assert np.abs(v_eigenvalues - oracle).max() <= 1e-13 * np.linalg.norm(inst.v.entries)
        assert np.all(np.diff(v_eigenvalues) >= 0.0)
        assert v_eigenvalues[0] >= 0.0
        assert v_eigenvalues[-1] == v_ratio * p.d_target
        assert inst.v_norm == v_ratio * p.d_target

    @pytest.mark.parametrize("plan", [convex_plan, interleaved_plan])
    def test_zero_ratio_gives_exactly_zero(self, plan):
        inst = random_instance(9, plan(9), 0.0, seed=32)
        assert inst.v_norm == 0.0
        assert np.array_equal(inst.v.entries, np.zeros((9, 9)))
        assert not np.any(np.signbit(inst.v.entries))

    def test_random_instance_solves_nothing(self, kernel_calls):
        for v_ratio in (0.0, 0.05, 0.5, 0.95):
            random_instance(8, interleaved_plan(8), v_ratio, seed=3)
            random_instance(8, convex_plan(8), v_ratio, seed=3)
        assert kernel_calls == []

    def test_rank_one_instance_solves_nothing(self, kernel_calls):
        rank_one_instance(8, convex_plan(8), 0.5, seed=3)
        assert kernel_calls == []


class TestAssemble:
    def test_rejects_a_permuted_eigenvector_column(self):
        inst = random_instance(8, convex_plan(8), 0.5, seed=4)
        q = inst.dec_a.eigenvectors[:, [7, 1, 2, 3, 4, 5, 6, 0]]
        swapped = SpectralDecomposition(inst.dec_a.eigenvalues, q)
        v_w = eigh(inst.v).eigenvalues
        with pytest.raises(ValueError, match="dec_a"):
            PerturbationInstance.assemble(inst.a, inst.v, inst.sigma_indices, swapped, v_w)

    def test_rejects_a_scaled_v_spectrum(self):
        inst = random_instance(8, convex_plan(8), 0.5, seed=4)
        v_w = eigh(inst.v).eigenvalues
        PerturbationInstance.assemble(inst.a, inst.v, inst.sigma_indices, inst.dec_a, v_w)
        with pytest.raises(ValueError, match="v_eigenvalues"):
            PerturbationInstance.assemble(
                inst.a, inst.v, inst.sigma_indices, inst.dec_a, 1.01 * v_w
            )

    def test_checks_scale_with_the_instance(self):
        # at d = 1e-20 an absolute tolerance would accept any decomposition
        inst = random_instance(8, convex_plan(8, 1e-20), 0.5, seed=4)
        q = inst.dec_a.eigenvectors[:, [7, 1, 2, 3, 4, 5, 6, 0]]
        swapped = SpectralDecomposition(inst.dec_a.eigenvalues, q)
        v_w = eigh(inst.v).eigenvalues
        PerturbationInstance.assemble(inst.a, inst.v, inst.sigma_indices, inst.dec_a, v_w)
        with pytest.raises(ValueError, match="dec_a"):
            PerturbationInstance.assemble(inst.a, inst.v, inst.sigma_indices, swapped, v_w)
        with pytest.raises(ValueError, match="v_eigenvalues"):
            PerturbationInstance.assemble(
                inst.a, inst.v, inst.sigma_indices, inst.dec_a, 1.01 * v_w
            )

    GIANT = 2.0**600  # squares of entries this large overflow

    @pytest.mark.parametrize("generator", [random_instance, rank_one_instance])
    def test_builds_near_overflow_as_at_unit_scale(self, generator):
        pairs = [(0.0, 0.5), (0.5, 1.0), (0.0, 1.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unit = generator(8, convex_plan(8), 0.65, 3)
            giant = generator(8, convex_plan(8, self.GIANT), 0.65, 3)
            _, unit_reports = campaign.walk_path(unit, pairs)
            _, giant_reports = campaign.walk_path(giant, pairs)
        assert giant.d == self.GIANT * unit.d
        for u, g in zip(unit_reports, giant_reports, strict=True):
            assert g.sines.tobytes() == u.sines.tobytes()

    @pytest.mark.parametrize("scale", [1.0, GIANT])
    @pytest.mark.parametrize("generator", [random_instance, rank_one_instance])
    def test_refuses_a_wrong_spectrum_at_every_scale(self, generator, scale):
        inst = generator(8, convex_plan(8, scale), 0.65, 3)
        w, q = inst.dec_a.eigenvalues, inst.dec_a.eigenvectors
        v_w = eigh(inst.v).eigenvalues
        args = (inst.a, inst.v, inst.sigma_indices)
        PerturbationInstance.assemble(*args, inst.dec_a, v_w)
        with pytest.raises(ValueError, match="dec_a"):
            PerturbationInstance.assemble(*args, SpectralDecomposition(1.1 * w, q), v_w)
        with pytest.raises(ValueError, match="v_eigenvalues"):
            PerturbationInstance.assemble(*args, inst.dec_a, 1.5 * v_w)


class TestPinnedInstances:
    def test_first_verify500_instances_keep_their_bytes(self, monkeypatch, pinned_build):
        built = []
        original = campaign.build_instance

        def build(*args):
            built.append(original(*args))
            return built[-1]

        monkeypatch.setattr(campaign, "build_instance", build)
        list(run_campaign(CampaignConfig.from_json_file(str(CONFIG_PATH), trials=15)))
        assert len(built) == 15
        a_digest, v_digest = hashlib.sha256(), hashlib.sha256()
        for inst in built:
            a_digest.update(inst.a.entries.tobytes())
            v_digest.update(inst.v.entries.tobytes())
        assert a_digest.hexdigest() == FIRST_TRIALS_A_SHA256
        assert v_digest.hexdigest() == FIRST_TRIALS_V_SHA256
