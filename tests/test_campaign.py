"""Campaign configs, trial measurement rows, and report serialization."""

import csv
import io
import json
import math
import time
import warnings

import numpy as np
import pytest

import specangles._jacobi as _jacobi
from specangles import (
    campaign,
    core,
    CONVEX_SEPARATED,
    PerturbationInstance,
    angle_bounds,
    convex_plan,
    random_instance,
    rank_one_instance,
    angle_reports,
    eigh,
    omega_component,
    BoundRow,
    CampaignConfig,
    ConvergenceError,
    PortableRng,
    SymmetricMatrix,
    eigh_many,
    ConfigError,
    ROW_FIELDS,
    TrialReport,
    build_instance,
    rows_jsonl,
    rows_of,
    run_campaign,
)


def small_config(**overrides) -> CampaignConfig:
    raw = {
        "trials": 8,
        "n": [4, 6],
        "plans": ["convex-separated", "doubly-interleaved", "sharpness", "rank-one"],
        "v_ratios": [0.3, 0.6],
        "seed_base": 100,
        "tolerances": {"default": 1e-8},
    }
    raw.update(overrides)
    return CampaignConfig.from_dict(raw)


class TestConfig:
    def test_defaults(self):
        cfg = CampaignConfig.from_dict({"trials": 2})
        assert cfg.ns == (8,)
        assert cfg.plans == ("convex-separated",)
        assert cfg.v_ratios == (0.5,)
        assert cfg.seeds == (1, 2)
        assert cfg.tolerances == {}

    def test_scalar_n_promoted(self):
        assert CampaignConfig.from_dict({"trials": 1, "n": 16}).ns == (16,)

    def test_explicit_seeds(self):
        cfg = CampaignConfig.from_dict({"trials": 3, "seeds": [9, 7, 8]})
        assert cfg.seeds == (9, 7, 8)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="trails"):
            CampaignConfig.from_dict({"trials": 1, "trails": 2})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict({"trials": -1})
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict({"trials": 1, "n": 1})
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict({"trials": 1, "plans": ["spiral"]})
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict({"trials": 1, "v_ratios": [1.0]})
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict({"trials": 2, "seeds": [1]})
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict({"trials": 1, "seeds": [1], "seed_base": 4})
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict({"trials": 1, "tolerances": {"spectral": 1e-8}})
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict({"trials": 1, "tolerances": {"default": -1e-8}})

    def test_non_finite_tolerances_rejected(self):
        for value in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="finite"):
                CampaignConfig.from_dict({"trials": 1, "tolerances": {"default": value}})

    def test_booleans_are_not_integers(self):
        with pytest.raises(ConfigError, match="trials"):
            CampaignConfig.from_dict({"trials": True})
        with pytest.raises(ConfigError, match="seeds"):
            CampaignConfig.from_dict({"trials": 1, "seeds": [True]})
        with pytest.raises(ConfigError, match="seed_base"):
            CampaignConfig.from_dict({"trials": 1, "seed_base": True})

    def test_booleans_and_strings_are_not_numbers(self):
        for value in (True, False, "1e-8"):
            with pytest.raises(ConfigError, match="tolerance 'default'"):
                CampaignConfig.from_dict({"trials": 1, "tolerances": {"default": value}})
        for ratios in ([False, 0.5], ["0.5"], [True]):
            with pytest.raises(ConfigError, match="v_ratios"):
                CampaignConfig.from_dict({"trials": 1, "v_ratios": ratios})
        cfg = CampaignConfig.from_dict({"trials": 1, "v_ratios": [0, 0.5]})
        assert cfg.v_ratios == (0.0, 0.5)
        assert all(type(v) is float for v in cfg.v_ratios)

    def test_scalars_for_lists_rejected(self):
        for key, value in (("v_ratios", 0.5), ("seeds", 5), ("plans", 3), ("plans", None)):
            with pytest.raises(ConfigError, match=key):
                CampaignConfig.from_dict({"trials": 1, key: value})

    def test_overrides_apply_after_own_checks(self):
        raw = {"trials": 4, "seeds": [5, 6, 7, 8], "tolerances": {"log": 1e-3}}
        assert CampaignConfig.from_dict(raw, trials=2).seeds == (5, 6)
        assert CampaignConfig.from_dict(raw, seed_base=50).seeds == (50, 51, 52, 53)
        cfg = CampaignConfig.from_dict(raw, seed_base=50, trials=6, tol=1e-6)
        assert cfg.trials == 6 and cfg.seeds == tuple(range(50, 56))
        assert cfg.tolerances == {"log": 1e-3, "default": 1e-6}
        assert CampaignConfig.from_dict({"trials": 2, "seed_base": 9}, trials=3).seeds == (9, 10, 11)
        with pytest.raises(ConfigError, match="seeds must"):
            CampaignConfig.from_dict(raw, trials=5)
        with pytest.raises(ConfigError, match="trials must"):
            CampaignConfig.from_dict(raw, trials=-1)
        # the config is checked before an override replaces what it gives
        with pytest.raises(ConfigError, match="seeds must"):
            CampaignConfig.from_dict({"trials": 1, "seeds": 5}, trials=1)
        with pytest.raises(ConfigError, match="seeds must"):
            CampaignConfig.from_dict({"trials": 1, "seeds": 5}, seed_base=3)
        with pytest.raises(ConfigError, match="mapping"):
            CampaignConfig.from_dict({"trials": 1, "tolerances": [1]}, tol=1e-8)
        with pytest.raises(ConfigError, match="finite"):
            CampaignConfig.from_dict({"trials": 1}, tol=math.inf)

    def test_tolerance_precedence(self):
        cfg = CampaignConfig.from_dict(
            {"trials": 1, "tolerances": {"default": 1e-6, "generic": 1e-3}}
        )
        assert cfg.tol_for("generic") == 1e-3
        assert cfg.tol_for("log") == 1e-6
        assert CampaignConfig.from_dict({"trials": 1}).tol_for("log") == 1e-8

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"trials": 2, "seed_base": 5}')
        assert CampaignConfig.from_json_file(str(path)).seeds == (5, 6)

    def test_corrupt_json_reports_path_and_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"trials": 2,\n  "n": }')
        with pytest.raises(ConfigError, match=r"bad\.json:2"):
            CampaignConfig.from_json_file(str(path))

    def test_non_object_json_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            CampaignConfig.from_json_file(str(path))

    def test_sizes_a_plan_cannot_build_are_refused_at_parse(self):
        raw = {"trials": 6, "n": [8, 3], "plans": ["doubly-interleaved"]}
        with pytest.raises(ConfigError, match=r"n = 3 does not fit plan 'doubly-interleaved'"):
            CampaignConfig.from_dict(raw)
        # only the sizes the trial schedule reaches are checked
        assert [n for _, _, n, _ in CampaignConfig.from_dict(raw, trials=1).schedule] == [8]
        mixed = {"trials": 4, "n": 3, "plans": ["convex-separated", "sharpness", "rank-one"]}
        assert CampaignConfig.from_dict(mixed).trials == 4

    def test_verify_refuses_such_a_config_before_any_trial(self, tmp_path, monkeypatch, capsys):
        from specangles.cli import main

        ran = []
        monkeypatch.setattr(campaign, "_measure_trial", lambda *args: ran.append(args))
        path = tmp_path / "cfg.json"
        path.write_text('{"trials": 6, "n": [8, 3], "plans": ["doubly-interleaved"]}')
        assert main(["verify", str(path)]) == 2
        assert "error: n = 3 does not fit plan 'doubly-interleaved'" in capsys.readouterr().err
        assert ran == []

    def test_schedule_cycles_plans_then_v_ratios_then_n_in_seed_order(self):
        cfg = CampaignConfig.from_dict(
            {"trials": 5, "n": [4, 6], "plans": ["rank-one", "convex-separated"],
             "v_ratios": [0.1, 0.2], "seeds": [9, 3, 7, 1, 5]}
        )
        assert cfg.schedule == [
            (1, "convex-separated", 4, 0.2),
            (3, "convex-separated", 4, 0.1),
            (5, "rank-one", 6, 0.1),
            (7, "rank-one", 4, 0.2),
            (9, "rank-one", 4, 0.1),
        ]


@pytest.fixture(scope="module")
def reports():
    return list(run_campaign(small_config()))


@pytest.fixture(scope="module")
def rank_one_reports():
    cfg = CampaignConfig.from_dict(
        {"trials": 2, "n": 4, "plans": ["rank-one"], "seed_base": 3}
    )
    return list(run_campaign(cfg))


class TestRunCampaign:
    def test_trial_axes_cycle(self, reports):
        assert [r.seed for r in reports] == list(range(100, 108))
        # plans cycle fastest, then v_ratio advances per full plan cycle
        geoms = [r.geometry for r in reports]
        assert geoms[0] == "convex-separated"
        assert geoms[1] == "interleaved"
        assert geoms[2] == "convex-separated"  # sharpness pair
        assert reports[2].n == 2
        assert reports[0].v_norm == pytest.approx(0.3, abs=1e-10)
        assert reports[4].v_norm == pytest.approx(0.6, abs=1e-10)

    def test_everything_passes(self, reports):
        assert all(r.passed for r in reports)
        for row in rows_of(reports):
            assert row.margin >= -1e-8

    def test_row_schema(self, reports):
        for row in rows_of(reports):
            mapping = row.to_mapping()
            assert tuple(mapping) == ROW_FIELDS

    def test_theta_constant_within_trial(self, reports):
        for report in reports:
            assert {row.theta for row in report.rows} == {report.theta}

    def test_enclosure_covers_the_t_grid(self, reports):
        for report in reports:
            ts = [row.t for row in report.rows if row.bound_name == "enclosure"]
            assert ts == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_rows_sorted_by_name_then_t(self, reports):
        for report in reports:
            keys = [(row.bound_name, row.t) for row in report.rows]
            assert keys == sorted(keys)

    def test_bound_names_are_every_row_name(self):
        # a row name missing from BOUND_NAMES would get no configurable tolerance
        config = small_config(trials=4, v_ratios=[0.3])
        names = {row.bound_name for row in rows_of(run_campaign(config))}
        assert names == set(campaign.BOUND_NAMES)
        tolerances = dict.fromkeys(("default", *campaign.BOUND_NAMES), 1e-6)
        raw = {"trials": 1, "tolerances": tolerances}
        assert CampaignConfig.from_dict(raw).tolerances == tolerances

    def test_geometry_controls_bound_selection(self, reports):
        by_plan = {}
        for k, report in enumerate(reports):
            names = {row.bound_name for row in report.rows}
            by_plan[k % 4] = names
        assert "favorable" in by_plan[0]
        assert "favorable" not in by_plan[1]  # doubly interleaved
        assert "rank-one" in by_plan[3]
        assert all("rank-one" not in by_plan[k] for k in (0, 1, 2))

    def test_sharpness_trial_attains_its_bound(self, reports):
        sharp = reports[2]
        assert sharp.theta == pytest.approx(0.5 * math.asin(0.3), abs=1e-12)
        favorable = [r for r in sharp.rows if r.bound_name == "favorable"]
        assert favorable[0].margin == pytest.approx(0.0, abs=1e-12)

    def test_timing_absent_from_rows(self, reports):
        assert all(r.elapsed_s > 0 for r in reports)
        for row in rows_of(reports):
            assert "elapsed" not in row.to_mapping()

    def test_reports_are_reproducible(self, reports):
        again = rows_jsonl(run_campaign(small_config()))
        assert rows_jsonl(reports) == again

    def test_elapsed_includes_instance_build(self, reports, monkeypatch):
        build = campaign.build_instance

        def slow_build(*args):
            time.sleep(0.05)
            return build(*args)

        monkeypatch.setattr(campaign, "build_instance", slow_build)
        slow = list(run_campaign(small_config()))
        assert all(r.elapsed_s >= 0.05 for r in slow)
        assert rows_jsonl(slow) == rows_jsonl(reports)

    def test_each_trial_is_rebuilt_from_its_schedule_entry(self, monkeypatch):
        # build_instance turns a schedule entry into the instance its trial
        # measured: the report's id and the A and V bytes, for every plan at
        # two sizes, so a check outside the run can rebuild any trial
        built = []

        def record(*args):
            built.append(build_instance(*args))
            return built[-1]

        monkeypatch.setattr(campaign, "build_instance", record)
        plans = list(campaign.PLAN_NAMES)
        config = CampaignConfig.from_dict(
            {"trials": 16, "n": [6, 16], "plans": plans, "v_ratios": [0.5, 0.9]}
        )
        reports = list(run_campaign(config))
        found = {(plan, n) for _, plan, n, _ in config.schedule}
        assert found == {(plan, n) for plan in plans for n in (6, 16)}
        for entry, report, inst in zip(config.schedule, reports, built, strict=True):
            seed, plan, n, v_ratio = entry
            again = build_instance(plan, n, v_ratio, seed)
            assert again.label == report.instance_id == inst.label
            assert again.a.entries.tobytes() == inst.a.entries.tobytes()
            assert again.v.entries.tobytes() == inst.v.entries.tobytes()

    def test_kernel_calls_per_trial(self, kernel_calls):
        # every plan: the path in the one two-sided call and the ten 2 x 2
        # basis products of the angles in one one-sided call; the generators
        # sample A's and V's spectra and bases, so nothing else is solved
        cfg = small_config(plans=["convex-separated", "doubly-interleaved", "rank-one"], trials=6)
        calls = []
        for _ in run_campaign(cfg):
            calls.append(list(kernel_calls))
            kernel_calls.clear()
        path, angles = ("two-sided", (4, 4, 4)), ("one-sided", (10, 2, 2))
        assert calls == [[path, angles]] * 6

    def test_no_projector_is_built(self, monkeypatch):
        # the angles come from n x r bases: no n x n projector, no P_s - P_t
        def refuse(self):
            raise AssertionError("a Projector was built on the campaign path")

        monkeypatch.setattr(core.Projector, "__post_init__", refuse)
        reports = list(run_campaign(small_config()))
        assert all(report.passed for report in reports)


class TestWalkPath:
    @pytest.mark.parametrize("n", [8, 48])
    @pytest.mark.parametrize("plan", campaign.PLAN_NAMES)
    def test_omega_keeps_sigma_indices(self, plan, n):
        # Weyl's interlacing keeps omega_t at sigma's indices; the old
        # classification against the two enlarged sets must agree with it,
        # also on the doubly-interleaved plan's exact eigenvalue clusters
        inst = campaign.build_instance(plan, n, 0.95, 400 + n)
        decs, _ = campaign.walk_path(inst, list(zip(campaign.T_GRID, campaign.T_GRID[1:])))
        assert list(decs) == list(campaign.T_GRID)
        for t, dec in decs.items():
            comp = omega_component(inst, t, dec=dec)
            assert comp.omega_indices == inst.sigma_indices
            shift = t * inst.v_norm
            w = inst.dec_a.eigenvalues
            in_sigma = np.isin(np.arange(w.size), inst.sigma_indices)
            lower = core.shift_set(core.IntervalSet.from_points(w[in_sigma]), shift)
            upper = core.shift_set(core.IntervalSet.from_points(w[~in_sigma]), shift)
            tol = core.membership_tol(dec.norm)
            for k, lam in enumerate(dec.eigenvalues):
                inside, other = (lower, upper) if k in inst.sigma_indices else (upper, lower)
                assert inside.distance_to_point(float(lam)) <= tol
                assert other.distance_to_point(float(lam)) > tol

    def test_one_path_call_for_distinct_times(self, kernel_calls):
        inst = campaign.build_instance("convex-separated", 6, 0.5, 3)
        kernel_calls.clear()
        campaign.walk_path(inst, [(0.0, 0.5), (0.5, 1.0), (0.0, 1.0)])
        assert kernel_calls == [("two-sided", (2, 6, 6)), ("one-sided", (3, 3, 3))]


class TestSpectra:
    # from n = 16 the warm solve finishes with all-pairs steps, so n = 24
    # checks the stacked bits through them too
    @pytest.mark.parametrize("n, ratio, seed", [(8, 0.65, 77), (24, 0.95, 3)])
    @pytest.mark.parametrize("plan", campaign.PLAN_NAMES)
    def test_one_t_alone_has_the_bits_it_has_in_a_set(self, plan, n, ratio, seed):
        inst = campaign.build_instance(plan, n, ratio, seed)
        pairs = [(0.0, 0.5), (0.5, 1.0), (0.25, 0.25), (0.0, 1.0)]
        decs, reports = campaign.walk_path(inst, pairs)
        assert list(decs) == [0.0, 0.5, 1.0, 0.25]
        assert decs[0.0] is inst.dec_a
        for t, dec in list(decs.items())[1:]:
            alone = inst.spectra([t])[t]
            assert np.array_equal(dec.eigenvalues, alone.eigenvalues)
            assert np.array_equal(dec.eigenvectors, alone.eigenvectors)
        for (s, t), report in zip(pairs, reports, strict=True):
            pair = (omega_component(inst, s).bases, omega_component(inst, t).bases)
            assert np.array_equal(report.sines, angle_reports([pair])[0].sines)
        assert reports[2].sines.tolist() == [0.0] * inst.a.dim

    def test_repeated_t_is_solved_once(self, kernel_calls):
        inst = campaign.build_instance("convex-separated", 6, 0.5, 3)
        kernel_calls.clear()
        decs = inst.spectra([0.5, 0.0, 1.0, 0.5, 0.25, 1.0, 0.0])
        assert list(decs) == [0.5, 0.0, 1.0, 0.25]
        assert decs[0.0] is inst.dec_a
        assert kernel_calls == [("two-sided", (3, 6, 6))]

    @pytest.mark.parametrize("bad", [-0.25, 1.5, math.nan])
    def test_t_is_checked_before_any_solve(self, kernel_calls, bad):
        inst = campaign.build_instance("convex-separated", 8, 0.5, 3)
        kernel_calls.clear()
        with pytest.raises(ValueError, match="t must lie in"):
            inst.spectra([0.5, bad])
        with pytest.raises(ValueError, match="t must lie in"):
            campaign.walk_path(inst, [(0.0, bad)])
        assert kernel_calls == []


GENERATED_PLANS = ("convex-separated", "doubly-interleaved", "rank-one")


def path_matrix(inst, t: float) -> SymmetricMatrix:
    """The stored A + tV itself, solved cold."""
    return SymmetricMatrix(inst.a.entries + t * inst.v.entries)


def residual_and_defect(m: np.ndarray, dec) -> tuple[float, float]:
    """||M U - U Lambda||_F / ||M||_F and max |U^T U - I| of one decomposition."""
    u = dec.eigenvectors
    residual = np.linalg.norm(m @ u - u * dec.eigenvalues) / np.linalg.norm(m)
    return residual, np.max(np.abs(u.T @ u - np.eye(u.shape[0])))


class TestWarmPath:
    # the path is solved as M_t = Q^T A Q + t Q^T V Q and lifted back by Q;
    # these check that the lifted pairs belong to the stored A + tV
    @pytest.mark.parametrize("ratio", [0.05, 0.65, 0.95])
    @pytest.mark.parametrize("n", [8, 48])
    @pytest.mark.parametrize("plan", GENERATED_PLANS)
    def test_lifted_pairs_solve_the_stored_matrix(self, plan, n, ratio):
        inst = campaign.build_instance(plan, n, ratio, 500 + n)
        times = campaign.T_GRID[1:]
        cold = core.eigh_many([path_matrix(inst, t) for t in times])
        warm = inst.spectra(times)
        for t, reference in zip(times, cold):
            m = path_matrix(inst, t).entries
            dec = warm[t]
            residual, defect = residual_and_defect(m, dec)
            assert residual <= 1e-12
            assert defect <= 1e-13
            gap = np.max(np.abs(dec.eigenvalues - reference.eigenvalues))
            assert gap <= 1e-13 * np.linalg.norm(m)

    def test_formed_product_absorbs_an_inexact_basis(self):
        # assemble accepts a dec_a rotated by 1e-10 in one plane (its residual
        # is far inside 1e-8 * ||A||_F); forming Q^T A Q keeps the lifted pairs
        # exact for the stored A + tV, where diag(lambda) + t Q^T V Q misses
        # them by the rotation
        base = rank_one_instance(8, convex_plan(8), 0.65, 5)
        q = base.dec_a.eigenvectors.copy()
        c, s = math.cos(1e-10), math.sin(1e-10)
        q[:, [0, 7]] = q[:, [0, 7]] @ np.array([[c, s], [-s, c]])
        dec_a = core.decompositions(base.dec_a.eigenvalues[None], q[None])[0]
        inst = PerturbationInstance.assemble(
            base.a, base.v, base.sigma_indices, dec_a, eigh(base.v).eigenvalues
        )
        w = core.SymmetricMatrix(q.T @ inst.v.entries @ q)
        for t, dec in inst.spectra(campaign.T_GRID[1:]).items():
            m = path_matrix(inst, t).entries
            assert residual_and_defect(m, dec)[0] <= 1e-12
            x = eigh(SymmetricMatrix(np.diag(dec_a.eigenvalues) + t * w.entries))
            lifted = core.SpectralDecomposition(x.eigenvalues, q @ x.eigenvectors)
            assert residual_and_defect(m, lifted)[0] > 1e-12

    def test_warm_start_saves_sweeps(self, kernel_calls):
        # sweeps and steps are pure functions of the input matrix. At n = 48
        # a path matrix starts with off <= 0.25 ||M||_F, so all-pairs steps
        # take it from the start; a cold matrix needs two or three sweeps
        # first. A matrix sweeps after its steps only when they hit the cap
        # of 12 before the tolerance: 4 of these 72 warm matrices do, once.
        times = campaign.T_GRID[1:]
        for plan in GENERATED_PLANS:
            for ratio in (0.25, 0.65, 0.95):
                for seed in (9, 10):
                    inst = campaign.build_instance(plan, 48, ratio, seed)
                    campaign.walk_path(inst, [(0.0, t) for t in times])
                    core.eigh_many([path_matrix(inst, t) for t in times])
        # per instance, the warm path solve and then the cold one
        solves = kernel_calls.of("two-sided")
        (warm_sweeps, warm_steps), (cold_sweeps, cold_steps) = (
            [np.concatenate([getattr(c, field) for c in side]) for field in ("sweeps", "steps")]
            for side in (solves[0::2], solves[1::2])
        )
        assert warm_sweeps.size == 72
        assert warm_sweeps.max() <= 1 and np.sum(warm_sweeps == 0) >= 68
        assert cold_sweeps.min() >= 2
        assert np.all(warm_sweeps < cold_sweeps)
        assert warm_steps.mean() <= 9.0 and cold_steps.mean() <= 10.0
        assert max(warm_steps.max(), cold_steps.max()) <= _jacobi.STEP_CAP
        assert cold_sweeps.mean() - warm_sweeps.mean() >= 2.0

    def test_preconditioning_saves_one_sided_sweeps(self, monkeypatch, kernel_calls):
        # the angle stacks of the instances above, ten 24 x 24 products each:
        # two QR passes bring their rows near orthogonal, so every kernel call
        # steps first, and the steps finish every one of these 180 matrices
        # within the step cap, so none sweeps
        runs = {}

        def logged(name):
            run = getattr(_jacobi, name)

            def spy(*stacks):
                runs.setdefault(len(kernel_calls), []).append(name)
                return run(*stacks)

            monkeypatch.setattr(_jacobi, name, spy)

        for name in ("_qr_pass", "_one_sided_step", "_one_sided_sweep"):
            logged(name)
        pairs = [(s, t) for i, s in enumerate(campaign.T_GRID) for t in campaign.T_GRID[i + 1 :]]
        for plan in GENERATED_PLANS:
            for ratio in (0.25, 0.65, 0.95):
                for seed in (9, 10):
                    inst = campaign.build_instance(plan, 48, ratio, seed)
                    campaign.walk_path(inst, pairs)
        one_sided = [i for i, (kernel, _) in enumerate(kernel_calls, 1) if kernel == "one-sided"]
        assert len(one_sided) == 18 and sorted(runs) == one_sided
        for call in runs.values():
            assert call.count("_qr_pass") == 2
            assert call[:3] == ["_qr_pass", "_qr_pass", "_one_sided_step"]
        sweeps, _, steps = (np.concatenate(found) for found in zip(*kernel_calls.of("one-sided")))
        assert sweeps.size == 180 and sweeps.tolist() == [0] * 180
        assert steps.max() <= _jacobi.STEP_CAP


class TestAllPairsSteps:
    # from n = 16 the two-sided kernel finishes near-diagonal matrices with
    # all-pairs steps, which pass through LAPACK's QR; the n = 7 and 8 bit
    # tests of test_core never reach them
    N = 24

    def stack(self):
        n = self.N
        inst = campaign.build_instance("convex-separated", n, 0.65, 7)
        q = inst.dec_a.eigenvectors
        g = PortableRng(n).gaussians(n * 3).reshape(n, 3)
        sym = PortableRng(43).gaussians(n * n).reshape(n, n)
        qaq, qvq = (SymmetricMatrix(q.T @ m.entries @ q).entries for m in (inst.a, inst.v))
        return [
            # the path matrix M_1 = Q^T A Q + Q^T V Q that spectra solves
            SymmetricMatrix(qaq + qvq),
            path_matrix(inst, 1.0),
            SymmetricMatrix(g @ g.T),
            SymmetricMatrix(np.zeros((n, n))),
            SymmetricMatrix.diagonal(np.resize([3.0, -1.0, 2.0, 0.0], n)),
            SymmetricMatrix((sym + sym.T) * 1e-6),
        ]

    def test_stack_gives_the_bits_of_each_matrix_alone(self, kernel_calls):
        ms = self.stack()
        kernel_calls.clear()
        for m, dec in zip(ms, eigh_many(ms), strict=True):
            alone = eigh(m)
            assert np.array_equal(dec.eigenvalues, alone.eigenvalues)
            assert np.array_equal(dec.eigenvectors, alone.eigenvectors)
        # the warm, cold and PSD matrices step; zero and the diagonal need nothing
        steps = kernel_calls.of("two-sided")[0].steps
        assert np.all(steps[:3] > 0) and steps[3:5].tolist() == [0, 0]

    @pytest.mark.parametrize("scale", [1.0, 2.0**80, 2.0**-80])
    def test_degenerate_inputs_meet_the_warm_path_bounds(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in self.stack():
                m = SymmetricMatrix(m.entries * scale)
                dec = eigh(m)
                if np.any(m.entries):
                    assert residual_and_defect(m.entries, dec)[0] <= 1e-12
                u = dec.eigenvectors
                assert np.max(np.abs(u.T @ u - np.eye(self.N))) <= 1e-13

    def test_sweep_cap_raises(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_SWEEPS", 0)
        # the stopping rule is checked first, so a diagonal needs no sweep;
        # the warm, cold and PSD matrices each need steps and raise
        ms = self.stack()
        repeats = ms[4]
        assert np.array_equal(eigh(repeats).eigenvalues, np.sort(np.diag(repeats.entries)))
        for m in ms[:3]:
            with pytest.raises(ConvergenceError):
                eigh_many([repeats, m])

    def test_below_16_there_are_no_steps(self):
        g = PortableRng(15).gaussians(2 * 15 * 15).reshape(2, 15, 15)
        a = g + g.transpose(0, 2, 1)
        tol = 1e-13 * np.sqrt(np.sum(a * a, axis=(1, 2)))
        counts = _jacobi.jacobi_sweeps(a, np.repeat(np.eye(15)[None], 2, axis=0), tol, 100)
        assert np.all(counts[0] > 0) and counts.steps.tolist() == [0, 0]

    @pytest.mark.parametrize("r", [15, 16])
    def test_one_sided_kernel_steps_at_every_row_count(self, monkeypatch, r):
        # the one-sided kernel has no size rule and returns the same Counts
        # (sweeps, off, steps) with its r x r rows: square and wide stacks on
        # both sides of the two-sided kernel's 16 take two QR passes per
        # call, then steps, and need fewer sweeps than two passes and sweeps
        # alone (a step cap of 0) take
        passes = []
        qr_pass = _jacobi._qr_pass
        monkeypatch.setattr(_jacobi, "_qr_pass", lambda b: (passes.append(b.shape), qr_pass(b))[1])
        for m in (r, r + 9):
            b = PortableRng(100 + m).gaussians(2 * r * m).reshape(2, r, m)
            rows, counts = _jacobi.hestenes_sweeps(b, 1e-13, 100)
            sweeps, off, steps = counts
            assert isinstance(counts, _jacobi.Counts) and counts[0] is counts.sweeps is sweeps
            assert rows.shape == (2, r, r) and np.all(off <= 1e-13)
            assert steps.dtype == sweeps.dtype == np.int64
            assert np.all(steps > 0) and steps.max() <= _jacobi.STEP_CAP
            with monkeypatch.context() as patch:
                patch.setattr(_jacobi, "STEP_CAP", 0)
                _, alone = _jacobi.hestenes_sweeps(b, 1e-13, 100)
            assert alone.steps.tolist() == [0, 0]
            assert passes == [(2, r, m), (2, r, r)] * 2
            passes.clear()
            assert np.all(sweeps < alone.sweeps)

    @pytest.mark.parametrize("case", ["two-sided-16", "two-sided-24", "gram-24"])
    def test_step_commutes_with_sign_flips(self, case):
        # without a sign pass on R, Q is the Householder Q of I + K: flipping
        # the signs of rows and columns of the input by a diagonal D of +-1
        # flips those of Q alike, to the last bit
        n = int(case[-2:])
        g = PortableRng(n).gaussians(3 * n * (n + 6)).reshape(3, n, n + 6)
        sym = g[:, :, :n] + g.transpose(0, 2, 1)[:, :n, :]
        g = g @ g.transpose(0, 2, 1) if case == "gram-24" else sym
        q = _jacobi._step_rotation(g)
        for seed in (1, 2, 3):
            d = np.where(PortableRng(seed).uniforms(3 * n).reshape(3, n) < 0.5, -1.0, 1.0)
            flipped = _jacobi._step_rotation(d[:, :, None] * g * d[:, None, :])
            assert np.any(d < 0.0)
            assert np.array_equal(flipped, d[:, :, None] * q * d[:, None, :])

    def test_one_sided_runs_return_the_gram_of_their_rows(self):
        # a step and a sweep each return (G, B) with G = B B^T to the last
        # bit, so no stage forms the Gram matrix of its input again
        b = PortableRng(24).gaussians(3 * 24 * 30).reshape(3, 24, 30)
        b[1] *= np.logspace(0, -12, 24)[:, None]
        stacks = _jacobi._gram(_jacobi._qr_pass(b))
        for run in (_jacobi._one_sided_step, _jacobi._one_sided_sweep) * 2:
            g, rows = stacks = run(*stacks)
            assert np.array_equal(g, rows @ rows.transpose(0, 2, 1))
            assert rows.shape == (3, 24, 24)

    def test_one_sided_kernel_forms_one_gram_before_its_steps(self, monkeypatch):
        # the QR passes return R alone, so a call forms the Gram matrix of
        # its rows once, from the second pass, before the first step
        runs = []
        for name in ("_gram", "_qr_pass", "_one_sided_step"):
            run = getattr(_jacobi, name)
            spy = lambda *stacks, name=name, run=run: (runs.append(name), run(*stacks))[1]
            monkeypatch.setattr(_jacobi, name, spy)
        b = PortableRng(24).gaussians(2 * 24 * 30).reshape(2, 24, 30)
        _, counts = _jacobi.hestenes_sweeps(b, 1e-13, 100)
        assert np.all(counts.steps > 0)
        assert runs[: runs.index("_one_sided_step")] == ["_qr_pass", "_qr_pass", "_gram"]


def path_angle(inst) -> float:
    _, (report,) = campaign.walk_path(inst, [(0.0, 1.0)])
    return report.max_angle


class TestScaleInvariance:
    # the bounds depend on ||V||/d alone, and every tolerance scales with the
    # quantity it tests, so scaling A and V together keeps angle and verdicts
    def test_tiny_gap_plan_gives_the_unit_gap_angle(self):
        tiny = random_instance(8, convex_plan(8, 1e-20), 0.65, 3)
        unit = random_instance(8, convex_plan(8), 0.65, 3)
        assert tiny.d == 1e-20
        assert path_angle(tiny) == pytest.approx(path_angle(unit), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("s", [1e-14, 1e-6, 1e8])
    def test_scaled_instance_keeps_angle_and_hypotheses(self, s):
        base = rank_one_instance(8, convex_plan(8), 0.65, 11)
        unit, scaled = (
            PerturbationInstance.build(
                SymmetricMatrix(base.a.entries * f), SymmetricMatrix(base.v.entries * f),
                base.sigma_indices,
            )
            for f in (1.0, s)
        )
        assert scaled.geometry == unit.geometry == CONVEX_SEPARATED
        assert scaled.d / s == pytest.approx(unit.d, rel=1e-13, abs=0.0)
        assert scaled.v_norm / s == pytest.approx(unit.v_norm, rel=1e-13, abs=0.0)
        assert path_angle(scaled) == pytest.approx(path_angle(unit), rel=1e-13, abs=0.0)
        hypotheses = [angle_bounds(i.v_norm, i.d, convex=True).keys() for i in (unit, scaled)]
        assert hypotheses[0] == hypotheses[1]


class TestSerialization:
    def test_jsonl_parses_to_row_mappings(self, rank_one_reports):
        lines = rows_jsonl(rank_one_reports).splitlines()
        rows = list(rows_of(rank_one_reports))
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            payload = json.loads(line)
            assert payload == row.to_mapping()
            assert isinstance(payload["pass"], bool)

    def test_csv_mirrors_jsonl_exactly(self, rank_one_reports):
        text = campaign.csv_text(campaign.rows_table(rank_one_reports))
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == list(ROW_FIELDS)
        rows = list(rows_of(rank_one_reports))
        assert len(parsed) == len(rows) + 1
        for cells, row in zip(parsed[1:], rows):
            assert cells[0] == row.instance_id
            assert float(cells[1]) == row.t
            assert float(cells[2]) == row.theta
            assert cells[3] == row.bound_name
            assert float(cells[4]) == row.bound_value
            assert float(cells[5]) == row.margin
            assert cells[6] == ("true" if row.passed else "false")

    def test_empty_reports_serialize_empty(self):
        assert rows_jsonl([]) == ""
        assert campaign.csv_text(campaign.rows_table([])) == ",".join(ROW_FIELDS) + "\n"

    def test_failed_row_fails_trial(self):
        row = BoundRow(
            instance_id="x", t=1.0, theta=0.5, bound_name="generic",
            bound_value=0.4, margin=-0.1, passed=False,
        )
        report = TrialReport(
            seed=0, instance_id="x", n=4, geometry="convex-separated",
            d=1.0, v_norm=0.5, theta=0.5, rows=(row,), elapsed_s=0.01,
        )
        assert not report.passed
