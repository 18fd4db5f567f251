"""End-to-end tests for the command-line interface."""

import json

import pytest

from polyorbit import cli


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_canonical(self, capsys):
        code, out, _ = run(capsys, [
            "classify", "--m", "1", "--r0", "1", "--v0", "1", "--alpha0", "60",
        ])
        assert code == cli.EXIT_OK
        data = json.loads(out)
        assert data["class"] == "ellipse"
        assert data["e"] == pytest.approx(0.5, abs=1e-12)
        assert data["periapsis"] == pytest.approx(0.5, abs=1e-12)
        assert data["apoapsis"] == pytest.approx(1.5, abs=1e-12)

    def test_key_order(self, capsys):
        _, out, _ = run(capsys, [
            "classify", "--m", "1", "--r0", "1", "--v0", "1", "--alpha0", "60",
        ])
        assert list(json.loads(out)) == [
            "class", "e", "ell", "aO", "periapsis", "apoapsis",
            "semi_major", "semi_minor", "period", "C", "Q", "m",
        ]

    def test_hyperbola(self, capsys):
        code, out, _ = run(capsys, [
            "classify", "--m", "1", "--r0", "1", "--v0", "2", "--alpha0", "45",
        ])
        assert code == cli.EXIT_OK
        data = json.loads(out)
        assert data["class"] == "hyperbola"
        assert data["apoapsis"] is None
        assert data["period"] is None

    def test_config_file_defaults(self, capsys, tmp_path):
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps({"m": 1, "r0": 1, "v0": 1, "alpha0": 60}))
        code, out, _ = run(capsys, ["classify", "--config", str(conf)])
        assert code == cli.EXIT_OK
        assert json.loads(out)["e"] == pytest.approx(0.5, abs=1e-12)

    def test_flag_overrides_config(self, capsys, tmp_path):
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps({"m": 1, "r0": 1, "v0": 1, "alpha0": 60}))
        _, out, _ = run(capsys, [
            "classify", "--config", str(conf), "--alpha0", "90",
        ])
        assert json.loads(out)["class"] == "circle"

    def test_missing_flags_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["classify", "--m", "1"])
        assert exc_info.value.code == cli.EXIT_USAGE

    def test_bad_angle_numeric_error(self, capsys):
        code, _, err = run(capsys, [
            "classify", "--m", "1", "--r0", "1", "--v0", "1", "--alpha0", "200",
        ])
        assert code == cli.EXIT_NUMERIC
        assert "error:" in err

    def test_non_finite_result_numeric_error(self, capsys):
        # the period overflows to inf, which standard JSON cannot hold
        code, out, err = run(capsys, [
            "classify", "--m", "1e150", "--r0", "1e300", "--v0", "1e-300", "--alpha0", "60",
        ])
        assert code == cli.EXIT_NUMERIC
        assert out == ""
        assert "not finite" in err

    def test_degenerate_orbit_numeric_error(self, capsys):
        # alpha0 = 0 / 180 would be radial motion with Q = 0
        code, _, err = run(capsys, [
            "classify", "--m", "1", "--r0", "1", "--v0", "1", "--alpha0", "180",
        ])
        assert code == cli.EXIT_NUMERIC


class TestSimulate:
    def _args(self, out_path, extra=()):
        return [
            "simulate", "--m", "1", "--r0", "1", "--v0", "1", "--alpha0", "60",
            "--dt", "1e-3", "--steps", "2000", "--out", str(out_path), *extra,
        ]

    def test_writes_csv_and_diagnostics(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, out, _ = run(capsys, self._args(out_path))
        assert code == cli.EXIT_OK
        diag = json.loads(out)
        assert diag["Q_drift"] < 1e-12
        lines = out_path.read_text().splitlines()
        assert lines[0] == "t,x,y,vx,vy,r,v,alpha"
        assert len(lines) == 2002

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, self._args(a))
        run(capsys, self._args(b))
        assert a.read_bytes() == b.read_bytes()

    def test_decimation(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, out, _ = run(capsys, self._args(out_path, ["--decimate", "100"]))
        assert code == cli.EXIT_OK
        assert json.loads(out)["max_swept_area_deviation"] is None
        assert len(out_path.read_text().splitlines()) == 22

    def test_decimate_zero_numeric_error(self, capsys, tmp_path):
        # 0 is not read as "no decimation"; SimConfig rejects it like -3
        out_path = tmp_path / "traj.csv"
        code, _, err = run(capsys, self._args(out_path, ["--decimate", "0"]))
        assert code == cli.EXIT_NUMERIC
        assert "record_every" in err

    def test_config_supplies_every_key(self, capsys, tmp_path):
        conf = tmp_path / "run.json"
        out_path = tmp_path / "traj.csv"
        conf.write_text(json.dumps({
            "m": 1, "r0": 1.0, "v0": 1, "alpha0": 60, "dt": 1e-3,
            "steps": 20, "decimate": 2, "out": str(out_path),
        }))
        code, _, _ = run(capsys, ["simulate", "--config", str(conf)])
        assert code == cli.EXIT_OK
        assert len(out_path.read_text().splitlines()) == 12

    @pytest.mark.parametrize("out", ["missing-dir/x.csv", ""], ids=["missing-dir", "empty"])
    def test_unwritable_out_usage_error(self, capsys, tmp_path, out):
        out_path = tmp_path / out if out else out
        with pytest.raises(SystemExit) as exc_info:
            cli.main(self._args(out_path))
        assert exc_info.value.code == cli.EXIT_USAGE
        assert "--out" in capsys.readouterr().err

    def test_collision_numeric_error(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        # starting inside the collision radius trips the guard immediately
        code, _, err = run(capsys, [
            "simulate", "--m", "1", "--r0", "1e-10", "--v0", "1",
            "--alpha0", "90", "--dt", "1e-3", "--steps", "100",
            "--out", str(out_path),
        ])
        assert code == cli.EXIT_NUMERIC
        assert "error:" in err


class TestConfigValidation:
    BASE = {"m": 1, "r0": 1, "v0": 1, "alpha0": 60, "dt": 1e-3, "steps": 20}

    @pytest.mark.parametrize("key, value", [
        ("steps", 10.5),
        ("steps", True),
        ("steps", "20"),
        ("decimate", 2.0),
        ("decimate", False),
        ("m", "1"),
        ("m", True),
        ("m", None),
        ("dt", [1e-3]),
        ("alpha0", 10**400),
        ("out", 3),
    ], ids=["steps-float", "steps-bool", "steps-str", "decimate-float", "decimate-bool",
            "m-str", "m-bool", "m-null", "dt-list", "alpha0-huge-int", "out-int"])
    def test_bad_value_usage_error(self, capsys, tmp_path, key, value):
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps({**self.BASE, "out": str(tmp_path / "t.csv"),
                                    key: value}))
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["simulate", "--config", str(conf)])
        assert exc_info.value.code == cli.EXIT_USAGE
        assert f"--config: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, "{not json", "[1, 2]", b"\xff\xfe"],
                             ids=["missing", "not-json", "not-object", "not-utf8"])
    def test_bad_file_usage_error(self, capsys, tmp_path, content):
        conf = tmp_path / "run.json"
        if isinstance(content, bytes):
            conf.write_bytes(content)
        elif content is not None:
            conf.write_text(content)
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["classify", "--config", str(conf)])
        assert exc_info.value.code == cli.EXIT_USAGE
        assert "--config" in capsys.readouterr().err


class TestKepler3:
    def test_small_scan_passes(self, capsys):
        code, out, _ = run(capsys, ["kepler3", "--m", "1", "--count", "3"])
        assert code == cli.EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "X,T_formula,T_simulated"
        assert len(lines) == 5  # header + 3 rows + slope
        label, value = lines[-1].split(",")
        assert label == "slope"
        assert float(value) == pytest.approx(1.5, abs=5e-3)

    def test_count_guard(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["kepler3", "--m", "1", "--count", "1"])
        assert exc_info.value.code == cli.EXIT_USAGE


class TestShellCheck:
    def test_passes_far_field(self, capsys):
        code, out, _ = run(capsys, [
            "shell-check", "--a", "1", "--mass", "1", "--g", "1",
            "--d", "2", "--rings", "10000",
        ])
        assert code == cli.EXIT_OK
        data = json.loads(out)
        assert data["exact"] == 0.25
        assert data["rel_error"] < 1e-6

    def test_fails_with_tight_tolerance(self, capsys):
        code, out, _ = run(capsys, [
            "shell-check", "--a", "1", "--mass", "1", "--g", "1",
            "--d", "2", "--rings", "10", "--tol", "1e-9",
        ])
        assert code == cli.EXIT_CHECK_FAILED

    def test_near_surface_flagged_not_failed(self, capsys):
        code, out, _ = run(capsys, [
            "shell-check", "--a", "1", "--mass", "1", "--g", "1",
            "--d", "1.01", "--rings", "100", "--tol", "1e-6",
        ])
        assert code == cli.EXIT_OK
        assert json.loads(out)["near_surface"] is True

    def test_inside_numeric_error(self, capsys):
        code, _, err = run(capsys, [
            "shell-check", "--a", "1", "--mass", "1", "--g", "1",
            "--d", "0.5", "--rings", "100",
        ])
        assert code == cli.EXIT_NUMERIC


class TestMoonCheck:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, ["moon-check"])
        assert code == cli.EXIT_OK
        data = json.loads(out)
        assert data["pass"] is True
        assert data["v"] == pytest.approx(1025.0, rel=0.01)
        assert data["a"] == pytest.approx(0.0027, rel=0.03)
        assert all(data["checks"].values())


class TestGeometryCheck:
    @pytest.mark.parametrize("e", ["0.5", "1.0", "2.0"])
    def test_passes(self, capsys, e):
        code, out, _ = run(capsys, [
            "geometry-check", "--e", e, "--ell", "1.0", "--samples", "100",
        ])
        assert code == cli.EXIT_OK
        data = json.loads(out)
        assert data["max_residual"] < 1e-9

    def test_impossible_tolerance_fails(self, capsys):
        code, _, _ = run(capsys, [
            "geometry-check", "--e", "0.5", "--ell", "1.0",
            "--samples", "100", "--tol", "0",
        ])
        assert code == cli.EXIT_CHECK_FAILED

    def test_non_finite_geometry_numeric_error(self, capsys):
        code, out, _ = run(capsys, [
            "geometry-check", "--e", "0.5", "--ell", "1e300", "--samples", "100",
        ])
        assert code == cli.EXIT_NUMERIC
        assert "NaN" not in out and "Infinity" not in out

    def test_bad_shape_numeric_error(self, capsys):
        code, _, err = run(capsys, [
            "geometry-check", "--e", "-1", "--ell", "1.0", "--samples", "100",
        ])
        assert code == cli.EXIT_NUMERIC


class TestParser:
    def test_no_command_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            cli.main([])
        assert exc_info.value.code == cli.EXIT_USAGE

    def test_unknown_command_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["frobnicate"])
        assert exc_info.value.code == cli.EXIT_USAGE
