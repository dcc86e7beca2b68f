"""Command-line contract: subcommands, formats, tolerances, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import specangles
from specangles import angle_bounds, cli
from specangles.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstants:
    def test_pretty_shows_truncated_digits(self, capsys):
        code, out, _ = run(capsys, "constants")
        assert code == 0
        assert "0.4548399" in out
        assert "0.9096799" in out
        assert "0.86466" in out
        assert "0.4098623" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "constants", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"c_crit", "c_crit_sem", "log_threshold", "kappa"}
        assert payload["c_crit"]["value"] == pytest.approx(0.4548399611327061)
        assert payload["c_crit"]["printed"] == "0.4548399"
        lo, hi = payload["kappa"]["interval"]
        assert lo < payload["kappa"]["value"] < hi

    def test_csv_table(self, capsys):
        code, out, _ = run(capsys, "constants", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "name,value,printed"
        assert len(lines) == 5

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        _, stdout_text, _ = run(capsys, "constants", "--format", "json")
        path = tmp_path / "constants.json"
        code, out, _ = run(capsys, "constants", "--format", "json", "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text() == stdout_text


class TestKappa:
    def test_root_check_passes(self, capsys):
        code, out, _ = run(capsys, "kappa", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["residual"] <= 1e-12
        assert payload["inside_interval"] is True
        assert payload["kappa"] == pytest.approx(0.4098623087698866, abs=1e-13)


class TestScan:
    def test_cells_empty_outside_hypotheses(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--x-min", "0.0", "--x-max", "0.95",
            "--steps", "20", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 20
        last = rows[-1]
        assert last["x"] == pytest.approx(0.95)
        assert last["generic"] is None
        assert last["corollary"] is None
        assert last["favorable"] is not None
        assert last["log"] is not None
        first = rows[0]
        assert first["favorable"] == 0.0
        assert first["generic"] == 0.0

    def test_cells_are_angle_bounds(self, capsys):
        code, out, _ = run(capsys, "scan", "--steps", "41", "--format", "json")
        assert code == 0
        names = ["favorable", "corollary", "generic", "log"]
        for row in json.loads(out):
            found = angle_bounds(row["x"], 1.0, True)
            assert list(row) == ["x", *names]
            assert [row[name] for name in names] == [found.get(name) for name in names]

    def test_csv_blank_cells(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--x-min", "0.7", "--x-max", "0.95",
            "--steps", "2", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,favorable,corollary,generic,log"
        # 0.7 > 2/pi: corollary column empty in both rows
        assert lines[1].split(",")[2] == ""
        assert lines[2].split(",")[3] == ""

    def test_invalid_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "scan", "--x-min", "0.5", "--x-max", "0.2")
        assert code == 2
        assert err.startswith("error:")


class TestSharpness:
    def test_default_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "sharpness", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["worst_abs_margin"] <= 1e-9
        assert len(payload["rows"]) == 19
        row = payload["rows"][0]
        assert row["theta"] == pytest.approx(0.5 * math.asin(row["v"]), abs=1e-12)

    def test_custom_grid(self, capsys):
        code, out, _ = run(
            capsys, "sharpness", "--grid", "0.1", "0.9", "5", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "v,theta,bound,margin"
        assert len(lines) == 6
        assert float(lines[1].split(",")[0]) == pytest.approx(0.1)

    def test_non_finite_env_tol_is_config_error(self, capsys, monkeypatch):
        # a NaN tolerance would be printed as NaN, which is not JSON
        monkeypatch.setenv("TOOLKIT_TOL", "nan")
        code, out, err = run(capsys, "sharpness", "--format", "json")
        assert code == 2
        assert out == ""
        assert "TOOLKIT_TOL" in err

    def test_bad_grid_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sharpness", "--grid", "0.5", "0.2", "3")
        assert code == 2
        assert "grid" in err

    def test_infinite_grid_count_is_usage_error(self, capsys):
        code, out, err = run(capsys, "sharpness", "--grid", "0.1", "0.5", "inf")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "integer count" in err

    def test_fractional_grid_count_is_usage_error(self, capsys):
        code, out, err = run(capsys, "sharpness", "--grid", "0.1", "0.5", "2.7")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "integer count" in err


class TestOptimize:
    def test_matches_closed_form(self, capsys):
        code, out, _ = run(capsys, "optimize", "0.4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["gap"] <= 1e-4
        assert payload["objective"] == pytest.approx(payload["closed_form"], abs=1e-4)

    def test_restricted_parts_fail_honestly(self, capsys):
        # with only two parts allowed at x = 0.84 the optimizer cannot reach
        # the closed form, and the command must say so via its exit code
        code, out, _ = run(capsys, "optimize", "0.84", "--n-max", "2")
        assert code == 1
        assert "FAIL" in out

    def test_tol_flag_relaxes_the_check(self, capsys):
        code, _, _ = run(capsys, "optimize", "0.84", "--n-max", "2", "--tol", "0.05")
        assert code == 0

    def test_env_tol_is_fallback_not_override(self, capsys, monkeypatch):
        monkeypatch.setenv("TOOLKIT_TOL", "0.05")
        code, _, _ = run(capsys, "optimize", "0.84", "--n-max", "2")
        assert code == 0
        code, _, _ = run(
            capsys, "optimize", "0.84", "--n-max", "2", "--tol", "1e-4"
        )
        assert code == 1

    def test_invalid_env_tol_is_config_error(self, capsys, monkeypatch):
        monkeypatch.setenv("TOOLKIT_TOL", "plenty")
        code, _, err = run(capsys, "optimize", "0.84", "--n-max", "2")
        assert code == 2
        assert "TOOLKIT_TOL" in err

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "optimize", "0.95")
        assert code == 2
        assert err.startswith("error:")


def write_config(tmp_path, payload) -> str:
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(payload))
    return str(path)


BASE_CONFIG = {
    "trials": 4,
    "n": 4,
    "plans": ["convex-separated", "rank-one"],
    "v_ratios": [0.3],
    "seed_base": 7,
    "tolerances": {"default": 1e-8},
}


class TestVerify:
    def test_jsonl_rows(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "verify", write_config(tmp_path, BASE_CONFIG),
            "--format", "json",
        )
        assert code == 0
        lines = out.splitlines()
        rows = [json.loads(line) for line in lines]
        assert all(row["pass"] is True for row in rows)
        assert {row["bound_name"] for row in rows} >= {"enclosure", "generic"}

    def test_pretty_summary(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", write_config(tmp_path, BASE_CONFIG))
        assert code == 0
        assert out.splitlines()[-1] == "4 trials, 0 failures"

    def test_csv_header(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "verify", write_config(tmp_path, BASE_CONFIG),
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == (
            "instance_id,t,theta,bound_name,bound_value,margin,pass"
        )

    @pytest.mark.parametrize(
        "fmt, expected",
        [
            ("json", ""),
            ("csv", "instance_id,t,theta,bound_name,bound_value,margin,pass\n"),
            ("pretty", "0 trials, 0 failures\n"),
        ],
    )
    def test_zero_trials(self, capsys, tmp_path, fmt, expected):
        # an empty JSON Lines report has no lines, not one blank line that a
        # line-by-line reader would fail to parse
        argv = ["verify", write_config(tmp_path, BASE_CONFIG), "--trials", "0", "--format", fmt]
        assert run(capsys, *argv) == (0, expected, "")
        path = tmp_path / "report"
        assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
        assert path.read_text() == expected

    @pytest.mark.parametrize(
        "fmt, unused",
        [("json", ["rows_table"]), ("csv", ["rows_jsonl"]), ("pretty", ["rows_jsonl", "rows_table"])],
    )
    def test_renders_only_the_format_asked_for(self, capsys, tmp_path, monkeypatch, fmt, unused):
        def refuse(reports):
            raise AssertionError("rendered a format nobody asked for")

        for name in unused:
            monkeypatch.setattr(cli, name, refuse)
        code, out, _ = run(capsys, "verify", write_config(tmp_path, BASE_CONFIG), "--format", fmt)
        assert code == 0 and out

    def test_trials_flag_truncates_explicit_seeds(self, capsys, tmp_path):
        payload = dict(BASE_CONFIG)
        del payload["seed_base"]
        payload["seeds"] = [5, 6, 7, 8]
        code, out, _ = run(
            capsys, "verify", write_config(tmp_path, payload), "--trials", "2"
        )
        assert code == 0
        assert out.splitlines()[-1] == "2 trials, 0 failures"
        assert out.splitlines()[0].lstrip().startswith("5 ")

    def test_seed_base_flag_replaces_seeds(self, capsys, tmp_path):
        payload = dict(BASE_CONFIG)
        del payload["seed_base"]
        payload["seeds"] = [5, 6, 7, 8]
        code, out, _ = run(
            capsys, "verify", write_config(tmp_path, payload), "--seed-base", "50"
        )
        assert code == 0
        assert out.splitlines()[0].lstrip().startswith("50 ")

    def test_tol_flag_sets_default_tolerance(self, capsys, tmp_path):
        payload = dict(BASE_CONFIG)
        del payload["tolerances"]
        code, _, _ = run(
            capsys, "verify", write_config(tmp_path, payload), "--tol", "1e-6"
        )
        assert code == 0

    def test_infinite_tol_flag_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "verify", write_config(tmp_path, BASE_CONFIG), "--tol", "inf"
        )
        assert code == 2
        assert out == ""
        assert "--tol" in err

    def test_nan_config_tolerance_is_usage_error(self, capsys, tmp_path):
        payload = dict(BASE_CONFIG, tolerances={"default": math.nan})
        code, _, err = run(capsys, "verify", write_config(tmp_path, payload))
        assert code == 2
        assert "finite" in err

    @pytest.mark.parametrize(
        "override",
        [
            {"tolerances": {"default": True}},
            {"tolerances": {"default": "1e-8"}},
            {"v_ratios": [False, "0.5"]},
        ],
    )
    def test_non_numeric_config_values_are_usage_errors(self, capsys, tmp_path, override):
        code, out, err = run(
            capsys, "verify", write_config(tmp_path, dict(BASE_CONFIG, **override))
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("key, value", [("v_ratios", 0.5), ("seeds", 5)])
    def test_scalar_for_a_list_is_usage_error(self, capsys, tmp_path, key, value):
        payload = {k: v for k, v in BASE_CONFIG.items() if k != "seed_base"}
        payload.update({"trials": 1, key: value})
        code, out, err = run(capsys, "verify", write_config(tmp_path, payload))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {key} must")

    def test_trials_flag_on_scalar_seeds_is_usage_error(self, capsys, tmp_path):
        payload = {"trials": 1, "seeds": 5}
        code, out, err = run(
            capsys, "verify", write_config(tmp_path, payload), "--trials", "1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: seeds must")

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_default_tol_on_listed_tolerances_is_usage_error(
        self, capsys, tmp_path, monkeypatch, source
    ):
        argv = ["verify", write_config(tmp_path, {"trials": 1, "tolerances": [1]})]
        if source == "flag":
            argv += ["--tol", "1e-8"]
        else:
            monkeypatch.setenv("TOOLKIT_TOL", "1e-8")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: tolerances must")

    def test_directory_as_config_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_rows_independent_of_hash_seed(self, tmp_path):
        # the same config gives the same bytes in separate interpreters,
        # whatever order their string hashing gives sets and dicts
        payload = dict(
            BASE_CONFIG,
            plans=["convex-separated", "doubly-interleaved", "sharpness", "rank-one"],
            n=5,
        )
        config = write_config(tmp_path, payload)
        src = str(Path(specangles.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "TOOLKIT_TOL"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outputs = []
        for hash_seed in ("0", "1"):
            env["PYTHONHASHSEED"] = hash_seed
            done = subprocess.run(
                [sys.executable, "-m", "specangles", "verify", config, "--format", "json"],
                env=env, capture_output=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr.decode()
            outputs.append(done.stdout)
        assert outputs[0]
        assert outputs[0] == outputs[1]

    def test_verdicts_and_bound_values_hold_across_blas_cores(self, openblas_core):
        # bytes hold within one (build, core); on another OpenBLAS core of the
        # same build rows move in the last bits only. 150 trials reach n = 32.
        config = Path(__file__).resolve().parents[1] / "configs" / "verify500.json"
        src = str(Path(specangles.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k not in ("TOOLKIT_TOL", "OPENBLAS_CORETYPE")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "specangles", "verify", str(config), "--trials", "150"]
        outputs = []
        for core in ({}, {"OPENBLAS_CORETYPE": "Haswell"}):
            done = subprocess.run(
                [*argv, "--format", "json"], env={**env, **core}, capture_output=True, timeout=300
            )
            assert done.returncode == 0, done.stderr.decode()
            outputs.append([json.loads(line) for line in done.stdout.splitlines()])
        default, haswell = outputs
        assert len(default) == len(haswell)
        assert any("-n32-" in row["instance_id"] for row in default)
        exact = ("instance_id", "bound_name", "t", "bound_value", "pass")
        for one, other in zip(default, haswell):
            assert [one[k] for k in exact] == [other[k] for k in exact]
            assert abs(one["theta"] - other["theta"]) <= 1e-12
            assert abs(one["margin"] - other["margin"]) <= 1e-12

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "nope.json"))
        assert code == 2
        assert err.startswith("error:")

    def test_corrupt_config_reports_line(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"trials": 1,\n "n": }')
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "broken.json:2" in err

    def test_unknown_config_key(self, capsys, tmp_path):
        payload = dict(BASE_CONFIG)
        payload["mode"] = "fast"
        code, _, err = run(capsys, "verify", write_config(tmp_path, payload))
        assert code == 2
        assert "mode" in err


# sha256 of stdout and the exit code of each subcommand in each format, with
# a failing check among them. sharpness and verify solve through BLAS, their
# angles through LAPACK's QR and verify's instances through it too, so the
# digests hold for conftest's PINNED_BUILD only.
PINNED_ARGS = {
    "constants": [],
    "kappa": [],
    "scan": ["--steps", "11"],
    "sharpness": [],
    "optimize": ["0.7"],
    "optimize-failing": ["0.84", "--n-max", "2"],
    "verify": [],
}
PINNED_OUTPUTS = {
    ("constants", "json"): (0, "6f43287b4539dd4f5a5af037677bbbb3e13ffa8d93211f412146243326aeb2b7"),
    ("constants", "csv"): (0, "39b6acae27cc363d60bed2aa825c86a20a0a437bc69bd830df62f1cbcf6e6c75"),
    ("constants", "pretty"): (0, "3daa7b4a7652f46ad0ec139fb6e39a40d63b4f88f9c4a966e8cc28f471abb91d"),
    ("kappa", "json"): (0, "19194b774b0746b5eb40d60b4143d8c43681f30d5a495b069ef7454b5c31811d"),
    ("kappa", "csv"): (0, "f460ad491f3f309c7618e28cf2c8cdcb2371ee4c230669e22d45ec8bdd5fdf2b"),
    ("kappa", "pretty"): (0, "d76e327c36e731f6dddddd4b2f47ccf395db1b71890e9f568650b14b3b24b723"),
    ("scan", "json"): (0, "cfaf6979cbdc91334613d314f0823ed38851ad34ac84ae7616090ce7b4a71541"),
    ("scan", "csv"): (0, "b53ebafd3cfb7f14ac688b04fc0dfa510cba9753e856e3fd931e32e9abe1d4e2"),
    ("scan", "pretty"): (0, "2cf24bdc2d51781f0590ea9820683a817cdc87c5e6247997ddd07f99927fe958"),
    ("sharpness", "json"): (0, "3cd3a1c1361ac534aad1a50d2671014f3c81b2b76cd4d3747adc6beb00bc1390"),
    ("sharpness", "csv"): (0, "d88e73601052411af92f36c1429b614bea0206261dbd71935176b37fe5857055"),
    ("sharpness", "pretty"): (0, "b78f6b185ef376d751481f9d4a380425f1551ec3269158b5a95b946df2e296ad"),
    ("optimize", "json"): (0, "332d4f77515064784059eff6d9650c5b6bd818af446b72d7ce024ac2bc8ec037"),
    ("optimize", "csv"): (0, "a18aa73ffa0508fe4d2e3cb02ca37d7f1e8e1d479e1d232fe353c32719182925"),
    ("optimize", "pretty"): (0, "35a16505ab37896791e98de3371bc7fc94a7a9c15fdb42e9724f33d1dad50393"),
    ("optimize-failing", "json"): (1, "f7a8c16d78ee60864985891c36af024682524d035713c8f4376c0758df9b920a"),
    ("optimize-failing", "csv"): (1, "1ff5e9c5d2de27c048781797d24e8ff0271eaa068b44a24f01163e827f515551"),
    ("optimize-failing", "pretty"): (1, "69f92fb9f1351fda20a6000602b7086974934c4756d7305c1a18bcca77cca55a"),
    ("verify", "json"): (0, "197a1462e91b4ce8662d2e8a1e5b5e8195eb16239c0b992cd8021296555ab3b7"),
    ("verify", "csv"): (0, "13dad319d05c9d579db44a24b2e2f9e51d56067f589f9cb621c1634136c0556d"),
    ("verify", "pretty"): (0, "33a6a67353980b8c15ce5579190aa631ff2deb604d8f916b2ac6e9b9d4762b71"),
}


# Cases whose digests also hold on one OpenBLAS core only: the verify rows'
# full-precision floats come from n x n BLAS products, whose summation order
# differs between cores. Under OPENBLAS_CORETYPE=Haswell only these two move.
CORE_PINNED = {("verify", "json"), ("verify", "csv")}


class TestPinnedOutputs:
    @pytest.mark.parametrize("case", sorted(PINNED_OUTPUTS))
    def test_stdout_and_out_file_keep_their_bytes(self, capsys, tmp_path, request, case):
        request.getfixturevalue("pinned_build" if case in CORE_PINNED else "pinned_build_any_core")
        command, fmt = case
        argv = [command.removesuffix("-failing"), *PINNED_ARGS[command], "--format", fmt]
        if command == "verify":
            argv.insert(1, write_config(tmp_path, BASE_CONFIG))
        code, out, _ = run(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINNED_OUTPUTS[case]
        path = tmp_path / "out.txt"
        assert run(capsys, *argv, "--out", str(path)) == (code, "", "")
        assert path.read_bytes() == out.encode()


class TestParser:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_format_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--format", "xml"])
        assert exc.value.code == 2
