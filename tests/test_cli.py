"""End-to-end tests for the command-line interface."""

import hashlib
import io
import json
import locale
import math
import os
import stat
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyorbit import _propagate_py, cli, geometry, shell, simulator


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The exit code and stdout of each command, pinned as the first 16 hex digits
# of the stdout's sha256, as printed with Python 3.11.7 and NumPy 2.4.6 by
# either kernel and by the C or NumPy ring and residual loops.  Another NumPy may round a sin, cos or hypot differently: CI
# prints the versions before the tests run.
GOLDEN_STDOUT = [
    ("classify --m 1 --r0 1 --v0 1 --alpha0 60.0", 0, "0afb703e29cedfb3"),
    ("geometry-check --e 0.5 --ell 0.75 --samples 50000", 0, "098a99303fa209c3"),
    ("geometry-check --e 1 --ell 0.75 --samples 50000", 0, "15340902f23c7f5b"),
    ("geometry-check --e 1.5 --ell 0.75 --samples 50000", 0, "f1bbee9c1b69aa11"),
    ("shell-check --a 1 --mass 1 --g 1 --d 2.0 --rings 1000000", 0, "e4102e584f4afcaa"),
    ("shell-check --a 1 --mass 1 --g 1 --d 2 --rings 3", 1, "db6a193b8e246b0d"),
    ("kepler3 --m 1.0 --count 6", 0, "47967a238eb4c80a"),
]

# The same for a 200k-step simulate, and the sha256 of the CSV it writes.
GOLDEN_SIMULATE = ("simulate --m 1 --r0 1 --v0 1 --alpha0 60.0 --dt 1e-4 --steps 200000",
                   "c5bd2c0451c90c0e",
                   "959b3218397ca2939ef5e624f10d0797d6ea8a8f495fa6d60321356f3fcfe224")

# The commands that run the ring sum or the residual loop.
GOLDEN_RING_AND_RESIDUAL = [case for case in GOLDEN_STDOUT
                            if case[0].startswith(("shell-check", "geometry-check"))]


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestGoldenBytes:
    @pytest.mark.parametrize("argv, code, digest", GOLDEN_STDOUT,
                             ids=[argv for argv, _, _ in GOLDEN_STDOUT])
    def test_stdout(self, capsys, argv, code, digest):
        got_code, out, _ = run(capsys, argv.split())
        assert (got_code, _digest(out)) == (code, digest)

    def test_simulate_stdout_and_csv(self, capsys, tmp_path):
        argv, digest, csv_digest = GOLDEN_SIMULATE
        out_path = tmp_path / "traj.csv"
        code, out, _ = run(capsys, [*argv.split(), "--out", str(out_path)])
        assert (code, _digest(out)) == (cli.EXIT_OK, digest)
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == csv_digest

    # The commands that run a kernel, on the Python kernel: the tests above
    # run the C kernel wherever a compiler is present.
    def test_kepler3_on_the_python_kernel(self, capsys, monkeypatch):
        monkeypatch.setattr(simulator, "_kernel", _propagate_py)
        argv, code, digest = next(case for case in GOLDEN_STDOUT if case[0].startswith("kepler3"))
        self.test_stdout(capsys, argv, code, digest)

    def test_simulate_on_the_python_kernel(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(simulator, "_kernel", _propagate_py)
        self.test_simulate_stdout_and_csv(capsys, tmp_path)

    # The ring sum and residual commands on the NumPy loops.
    @pytest.mark.parametrize("argv, code, digest", GOLDEN_RING_AND_RESIDUAL,
                             ids=[argv for argv, _, _ in GOLDEN_RING_AND_RESIDUAL])
    def test_ring_and_residual_commands_on_the_numpy_loops(self, capsys, monkeypatch, argv,
                                                          code, digest):
        monkeypatch.setattr(simulator, "_kernel", _propagate_py)
        self.test_stdout(capsys, argv, code, digest)

    # printf's decimal point follows LC_NUMERIC, CPython's % does not; the
    # C formatter switches to the "C" locale while it formats.  CI installs
    # the locale; elsewhere the test runs where de_DE.UTF-8 is installed.
    def test_simulate_csv_under_a_comma_decimal_locale(self, capsys, tmp_path):
        previous = locale.setlocale(locale.LC_NUMERIC)
        try:
            locale.setlocale(locale.LC_NUMERIC, "de_DE.UTF-8")
        except locale.Error:
            pytest.skip("the de_DE.UTF-8 locale is not installed")
        try:
            assert locale.localeconv()["decimal_point"] == ","
            self.test_simulate_stdout_and_csv(capsys, tmp_path)
        finally:
            locale.setlocale(locale.LC_NUMERIC, previous)


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

    @pytest.mark.parametrize("argv", [
        # m^2 is inf, and (-C)^1.5 would overflow
        ["--m", "1e300", "--r0", "1", "--v0", "1", "--alpha0", "60"],
        # (-C)^1.5 underflows to 0
        ["--m", "1e-300", "--r0", "1e-5", "--v0", "1e-150", "--alpha0", "1"],
        # m^2 and QC underflow to 0: a "circle" with C = 0, then -m/C
        ["--m", "1e-300", "--r0", "1e150", "--v0", "1e-300", "--alpha0", "1"],
        # m^2 underflows: a "circle" with C > 0, then sqrt(Q / -C)
        ["--m", "1e-300", "--r0", "1e5", "--v0", "1e-150", "--alpha0", "1"],
    ], ids=["period-overflow", "period-underflow", "zero-c-circle", "negative-sqrt"])
    def test_extreme_magnitudes_numeric_error(self, capsys, argv):
        code, out, err = run(capsys, ["classify", *argv])
        assert code == cli.EXIT_NUMERIC
        assert out == ""
        assert err.startswith("error:")

    def test_underflowing_q_is_not_called_radial(self, capsys):
        code, _, err = run(capsys, [
            "classify", "--m", "1e308", "--r0", "1e-308", "--v0", "1", "--alpha0", "60",
        ])
        assert code == cli.EXIT_NUMERIC
        assert "underflows" in err
        assert "radial launch" not in err

    def test_degenerate_orbit_numeric_error(self, capsys):
        # alpha0 = 0 / 180 would be radial motion with Q = 0
        code, _, err = run(capsys, [
            "classify", "--m", "1", "--r0", "1", "--v0", "1", "--alpha0", "180",
        ])
        assert code == cli.EXIT_NUMERIC


class TestLaunchState:
    @pytest.mark.parametrize("command", ["classify", "simulate"])
    @pytest.mark.parametrize("key", ["r0", "v0"])
    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_negative_launch_distance_or_speed_numeric_error(self, capsys, tmp_path, command,
                                                              key, via_config):
        # A negative v0 reverses the launch, as an alpha0 of 240 deg would.
        launch = {"m": 1, "r0": 1, "v0": 1, "alpha0": 60, key: -1}
        out_path = tmp_path / "traj.csv"
        extra = ["--dt", "1e-3", "--steps", "100", "--out", str(out_path)]
        if via_config:
            conf = tmp_path / "run.json"
            conf.write_text(json.dumps(launch))
            argv = [command, "--config", str(conf)]
        else:
            argv = [command, *[a for k, v in launch.items() for a in (f"--{k}", str(v))]]
        code, out, err = run(capsys, argv + extra if command == "simulate" else argv)
        assert code == cli.EXIT_NUMERIC
        assert out == ""
        assert "must be > 0" in err
        assert not out_path.exists()


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

    def test_interval_longer_than_an_orbit_keeps_the_period(self, capsys, tmp_path):
        # With --decimate 100000 one recorded interval spans 16 orbits and
        # holds many turning points; the kernel's windows hold them all.
        periods = []
        for every in ("1000", "100000"):
            code, out, _ = run(capsys, [
                "simulate", "--m", "1", "--r0", "1", "--v0", "1", "--alpha0", "60",
                "--dt", "1e-3", "--steps", "1000000", "--decimate", every,
                "--out", str(tmp_path / "traj.csv"),
            ])
            assert code == cli.EXIT_OK
            periods.append(json.loads(out)["observed_period"])
        assert periods[1] == periods[0] == pytest.approx(6.278, abs=1e-3)

    def test_windows_past_the_sample_cap_numeric_error(self, capsys, monkeypatch, tmp_path):
        # 13 recorded samples and 4 windows of 4 states: 29 samples
        out_path = tmp_path / "traj.csv"
        argv = ["simulate", "--m", "1", "--r0", "1", "--v0", "1", "--alpha0", "60",
                "--dt", "1e-3", "--steps", "12289", "--decimate", "1000", "--out", str(out_path)]
        monkeypatch.setattr(simulator, "MAX_SAMPLES", 29)
        assert run(capsys, argv)[0] == cli.EXIT_OK
        out_path.unlink()
        monkeypatch.setattr(simulator, "MAX_SAMPLES", 28)
        code, out, err = run(capsys, argv)
        assert code == cli.EXIT_NUMERIC
        assert "over 3 turning-point windows" in err and out == ""
        assert not out_path.exists()

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

    @pytest.mark.parametrize("argv, message", [
        # the state stays finite, but v^2 overflows in diagnostics
        (["--m", "1e300", "--r0", "1"], "double range"),
        # the first kick overflows and the state turns to nan
        (["--m", "1e300", "--r0", "1e-5"], "not finite"),
    ], ids=["diagnostics-overflow", "non-finite-state"])
    def test_failed_run_writes_no_file(self, capsys, tmp_path, argv, message):
        out_path = tmp_path / "traj.csv"
        code, out, err = run(capsys, [
            "simulate", *argv, "--v0", "1", "--alpha0", "60", "--dt", "1e-3",
            "--steps", "100", "--out", str(out_path),
        ])
        assert code == cli.EXIT_NUMERIC
        assert out == ""
        assert message in err
        assert os.listdir(tmp_path) == []

    def test_failed_run_leaves_old_file(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        out_path.write_text("old\n")
        code, _, _ = run(capsys, [
            "simulate", "--m", "1e300", "--r0", "1", "--v0", "1", "--alpha0", "60",
            "--dt", "1e-3", "--steps", "100", "--out", str(out_path),
        ])
        assert code == cli.EXIT_NUMERIC
        assert out_path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["traj.csv"]

    def test_export_that_fails_midway_leaves_old_file(self, capsys, monkeypatch, tmp_path):
        out_path = tmp_path / "traj.csv"
        out_path.write_text("old\n")

        def fail_midway(traj, stream):
            stream.write(b"t,x,y")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(simulator.Trajectory, "write_csv", fail_midway)
        with pytest.raises(SystemExit) as exc_info:
            cli.main(self._args(out_path))
        assert exc_info.value.code == cli.EXIT_USAGE
        assert "No space left" in capsys.readouterr().err
        assert out_path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["traj.csv"]

    def test_export_gives_a_new_file_the_usual_mode(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, _, _ = run(capsys, self._args(out_path))
        assert code == cli.EXIT_OK
        umask = os.umask(0)
        os.umask(umask)
        assert out_path.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_export_replaces_old_file_and_keeps_its_mode(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        out_path.write_text("old\n")
        out_path.chmod(0o640)
        code, _, _ = run(capsys, self._args(out_path))
        assert code == cli.EXIT_OK
        assert out_path.read_text().startswith("t,x,y,vx,vy,r,v,alpha\n")
        assert os.listdir(tmp_path) == ["traj.csv"]  # no temporary file is left
        assert out_path.stat().st_mode & 0o777 == 0o640

    def test_export_through_symlink_keeps_the_link(self, capsys, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        code, _, _ = run(capsys, self._args(link))
        assert code == cli.EXIT_OK
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text().startswith("t,x,y,vx,vy,r,v,alpha\n")
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "target.csv"]

    def test_export_keeps_hard_links(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        out_path.write_text("old\n")
        twin = tmp_path / "twin.csv"
        os.link(out_path, twin)
        code, _, _ = run(capsys, self._args(out_path))
        assert code == cli.EXIT_OK
        assert os.path.samefile(out_path, twin)
        assert twin.read_text().startswith("t,x,y,vx,vy,r,v,alpha\n")

    def test_export_to_devnull_writes_through_it(self, capsys, monkeypatch):
        # No rename may land on the device; a stub stands in for os.replace so
        # that a regression fails here instead of replacing the device.
        def no_replace(src, dst):
            raise AssertionError(f"renamed {src!r} over {dst!r}")

        monkeypatch.setattr(cli.os, "replace", no_replace)
        code, out, _ = run(capsys, self._args(os.devnull))
        assert code == cli.EXIT_OK
        assert json.loads(out)["Q_drift"] < 1e-12

    def test_export_to_fifo_writes_through_it(self, capsys, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        code, _, _ = run(capsys, self._args(fifo))
        reader.join(timeout=30)
        assert code == cli.EXIT_OK
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert received[0].startswith("t,x,y,vx,vy,r,v,alpha\n")
        assert len(received[0].splitlines()) == 2002

    def test_underflowing_q_is_not_called_radial(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, _, err = run(capsys, [
            "simulate", "--m", "1", "--r0", "1", "--v0", "1", "--alpha0", "1e-320",
            "--dt", "1e-3", "--steps", "100", "--out", str(out_path),
        ])
        assert code == cli.EXIT_NUMERIC
        assert "underflows" in err
        assert "radial trajectory" not in err
        assert not out_path.exists()

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

    @pytest.mark.parametrize("m", ["1", "0.7", "1.9"])
    def test_sparse_record_prints_full_record_periods(self, capsys, monkeypatch, m):
        # kepler3 records every KEPLER3_RECORD_EVERY-th step; the reference
        # records every step and takes its periods from full-record diagnostics.
        argv = ["kepler3", "--m", m, "--count", "3"]
        assert cli.KEPLER3_RECORD_EVERY > 1
        sparse = run(capsys, argv)
        monkeypatch.setattr(cli, "KEPLER3_RECORD_EVERY", 1)
        assert sparse == run(capsys, argv)
        assert sparse[0] == cli.EXIT_OK

    def test_reruns_only_around_turning_points(self, capsys, monkeypatch):
        # One kernel call per orbit: the kernel returns the states around
        # each turning point, so diagnostics re-runs nothing.
        calls = []
        kernel = simulator._kernel.propagate_kernel

        def spy(*args, **kwargs):
            calls.append(args[6])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(simulator._kernel, "propagate_kernel", spy)
        code, _, _ = run(capsys, ["kepler3", "--m", "1", "--count", "6"])
        assert code == cli.EXIT_OK
        assert (len(calls), sum(calls)) == (6, 1_020_000)

    def test_count_guard(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["kepler3", "--m", "1", "--count", "1"])
        assert exc_info.value.code == cli.EXIT_USAGE

    # Counts past the cap are refused before any orbit is set up; 10**20
    # used to build a list of 10**20 semi-major axes.
    @pytest.mark.parametrize("count", [str(cli.KEPLER3_MAX_COUNT + 1), "100000000000000000000"])
    def test_count_cap(self, capsys, count):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["kepler3", "--m", "1", "--count", count])
        assert exc_info.value.code == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "--count" in err

    @pytest.mark.parametrize("m, expected", [
        ("1e300", cli.EXIT_NUMERIC),    # (-C)^1.5 overflows
        ("1.7e308", cli.EXIT_NUMERIC),  # C = -m/X overflows
        ("1e-300", cli.EXIT_NUMERIC),   # (-C)^1.5 underflows to 0
        ("8.807135485608135e-215", cli.EXIT_NUMERIC),  # (-C)^1.5 subnormal: T_simulated nan
        ("5e-324", cli.EXIT_NUMERIC),
        ("0", cli.EXIT_NUMERIC),
        ("1e200", cli.EXIT_OK),
        ("1e-150", cli.EXIT_OK),
    ])
    def test_extreme_field_strength(self, capsys, m, expected):
        code, out, err = run(capsys, ["kepler3", "--m", m, "--count", "2"])
        assert code == expected
        if expected == cli.EXIT_NUMERIC:
            assert out == ""  # rejected before the first orbit is integrated
            assert err.startswith("error:")


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

    @pytest.mark.parametrize("extra", [
        ["--a", "1", "--d", "1e300"],        # gM/d^2 underflows to 0
        ["--a", "1e-200", "--d", "1e-170"],  # a^2 underflows to 0
        ["--a", "1e199", "--d", "1e200"],    # 2ad overflows
        ["--a", "1e-161", "--d", "1e-160"],  # s^2 underflows to 0
        ["--a", "1", "--d", "2", "--g", "1e308", "--mass", "10"],  # the sum overflows
        ["--a", "1", "--d", "nan"],          # used to blame the scales' double range
        ["--a", "1", "--d", "inf"],
    ], ids=["point-mass-underflow", "radius-underflow", "ring-overflow",
            "ring-underflow", "sum-overflow", "d-nan", "d-inf"])
    def test_extreme_scales_numeric_error(self, capsys, extra):
        argv = {"--a": "1", "--mass": "1", "--g": "1", "--rings": "100"}
        argv.update(zip(extra[::2], extra[1::2]))
        code, out, err = run(capsys, ["shell-check", *sum(argv.items(), ())])
        assert code == cli.EXIT_NUMERIC
        assert out == ""
        assert err.startswith("error:")
        if argv["--d"] in ("nan", "inf"):
            assert err == f"error: the distance d must be finite, got {argv['--d']}\n"

    def test_inside_numeric_error(self, capsys):
        code, _, err = run(capsys, [
            "shell-check", "--a", "1", "--mass", "1", "--g", "1",
            "--d", "0.5", "--rings", "100",
        ])
        assert code == cli.EXIT_NUMERIC

    # Counts past the cap are refused before any ring is allocated: 10**13
    # used to end in a MemoryError traceback with exit 1, 10**20 in a
    # ValueError one.
    @pytest.mark.parametrize("rings", [str(shell.MAX_RINGS + 1), "10000000000000",
                                       "100000000000000000000"])
    def test_ring_cap_numeric_error(self, capsys, rings):
        code, out, err = run(capsys, [
            "shell-check", "--a", "1", "--mass", "1", "--g", "1",
            "--d", "2", "--rings", rings,
        ])
        assert code == cli.EXIT_NUMERIC
        assert out == "" and err.startswith("error: the ring count")


# A NaN tolerance used to pass every check (residual > nan is False).
@pytest.mark.parametrize("tol", ["nan", "-1"])
@pytest.mark.parametrize("argv", [
    ["shell-check", "--a", "1", "--mass", "1", "--g", "1", "--d", "2", "--rings", "10"],
    ["geometry-check", "--e", "0.5", "--ell", "1.0", "--samples", "100"],
], ids=["shell-check", "geometry-check"])
def test_tolerance_not_at_least_zero_usage_error(capsys, argv, tol):
    with pytest.raises(SystemExit) as exc_info:
        cli.main([*argv, "--tol", tol])
    assert exc_info.value.code == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and "--tol" in err


# A usage error found by a handler or in a --config file printed the
# top-level usage, not the usage of the subcommand that was run.
@pytest.mark.parametrize("argv, usage", [
    (["shell-check", "--a", "1", "--mass", "1", "--g", "1", "--d", "2", "--rings", "10",
      "--tol", "nan"], "shell-check"),
    (["kepler3", "--m", "1", "--count", "1001"], "kepler3"),
    (["simulate", "--config", "{missing}"], "simulate"),
], ids=["shell-check", "kepler3", "config"])
def test_usage_error_prints_the_subcommand_usage(capsys, tmp_path, argv, usage):
    argv = [arg.format(missing=tmp_path / "missing.json") for arg in argv]
    with pytest.raises(SystemExit) as exc_info:
        cli.main(argv)
    assert exc_info.value.code == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"usage: polyorbit {usage} [-h]")


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

    # r*r in the tangent would be subnormal: this printed max_residual 5.4e-4
    # and exited 1, "check failed"
    def test_tiny_periapsis_numeric_error(self, capsys):
        code, out, err = run(capsys, [
            "geometry-check", "--e", "0.5", "--ell", "1e-160", "--samples", "100",
        ])
        assert code == cli.EXIT_NUMERIC
        assert out == "" and err.startswith("error: ell must give a periapsis")

    def test_bad_shape_numeric_error(self, capsys):
        code, _, err = run(capsys, [
            "geometry-check", "--e", "-1", "--ell", "1.0", "--samples", "100",
        ])
        assert code == cli.EXIT_NUMERIC

    # Counts past the cap are refused before the first block: 10**13 samples
    # used to run 1.5e8 blocks.
    @pytest.mark.parametrize("samples", [str(geometry.MAX_RESIDUAL_SAMPLES + 1),
                                         "10000000000000"])
    def test_sample_cap_numeric_error(self, capsys, samples):
        code, out, err = run(capsys, [
            "geometry-check", "--e", "0.5", "--ell", "1.0", "--samples", samples,
        ])
        assert code == cli.EXIT_NUMERIC
        assert out == "" and err.startswith("error: the sample count")


class TestParser:
    def test_no_command_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            cli.main([])
        assert exc_info.value.code == cli.EXIT_USAGE

    def test_unknown_command_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["frobnicate"])
        assert exc_info.value.code == cli.EXIT_USAGE

    # Commands, help and usage errors, from argparse and from the handlers,
    # alternating.
    SEQUENCE = [
        ["classify", "--m", "1", "--r0", "1", "--v0", "1", "--alpha0", "60"],
        ["kepler3", "--m", "1"],
        ["moon-check"],
        ["classify", "--m", "1"],
        ["geometry-check", "--e", "0.5", "--ell", "0.75", "--samples", "100"],
        ["shell-check", "--a", "1", "--mass", "1", "--g", "1", "--d", "2", "--rings", "10",
         "--tol", "nan"],
        ["--help"],
        ["frobnicate"],
        ["classify", "--help"],
        ["shell-check", "--a", "1", "--mass", "1", "--g", "1", "--d", "2", "--rings", "10"],
        ["classify", "--m", "1", "--r0", "-1", "--v0", "1", "--alpha0", "60"],
    ]

    def test_parser_built_once_prints_what_a_fresh_one_prints(self, monkeypatch, cli_call):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
        fresh = []
        for argv in self.SEQUENCE:
            cli._build_parser.cache_clear()
            fresh.append(cli_call(argv))
        cli._build_parser.cache_clear()
        reused = [cli_call(argv) for argv in self.SEQUENCE * 2]
        assert cli._build_parser.cache_info().misses == 1
        assert reused == fresh * 2
        assert [code for code, _, _ in fresh] == [0, 2, 0, 2, 0, 2, 0, 2, 0, 1, 3]


def _reject_constant(name):
    raise ValueError(f"{name} is not standard JSON")


# Flag values: any float as Python prints it, powers of ten across and past
# the double range, and text argparse may reject.
NUMBER = st.one_of(
    st.floats().map(repr),
    st.integers(-400, 400).map(lambda k: f"1e{k}"),
    st.sampled_from(["0", "-0", "-1", "5e-324", "1.7e308", "nan", "inf", "-inf", "x", ""]),
)


def _flags(names, values):
    # Each flag is present with a drawn value, or missing.
    return st.tuples(*[st.one_of(st.none(), values) for _ in names]).map(
        lambda drawn: [a for name, v in zip(names, drawn) if v is not None
                       for a in (f"--{name}", v)])


# Counts up to 2000, so that a simulate run on the Python kernel stays short,
# and counts past every cap (steps, rings, geometry samples), which must be
# refused before any work or allocation; a decimate past the cap records
# only the initial state.
COUNT = st.one_of(st.integers(-2, 2000).map(str), st.integers(10**8 + 1, 2**1100).map(str),
                  st.sampled_from(["1.5", "x", ""]))


# kepler3 integrates count orbits of about 170k steps each.
KEPLER3_COUNT = st.one_of(st.integers(-2, 3).map(str), st.sampled_from(["1.5", "x", ""]))

# --config values of every JSON type, integers past 2**63 among them; no
# integer from 2001 to 2**63 - 1, so that no drawn steps makes a long run.
JSON_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2000), st.integers(2**63, 2**1100),
    st.integers(-2**1100, -2**63), st.floats(), st.text(max_size=8),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)


def _replaced(base, values, optional=()):
    # Flags with the values of an argv that runs, some of them replaced by
    # drawn values: drawing every flag independently almost never reaches a
    # simulate run, which needs six valid values.
    keys = [*base, *optional]
    return st.dictionaries(st.sampled_from(keys), values).map(
        lambda drawn: [a for name, v in {**base, **drawn}.items() for a in (f"--{name}", v)])


def _strict_json(text):
    json.loads(text, parse_constant=_reject_constant)


def _finite_csv(text):
    # kepler3's table: a header, a row per orbit and the fitted slope
    header, *rows = text.splitlines()
    assert header == "X,T_formula,T_simulated" and rows[-1].startswith("slope,")
    for row in rows:
        assert all(math.isfinite(float(v)) for v in row.removeprefix("slope,").split(","))


class TestFuzz:
    """Any argv exits with a documented code, no traceback and strict JSON
    (kepler3: a table of finite numbers)."""

    @staticmethod
    def check(argv, parse=_strict_json):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED, cli.EXIT_USAGE, cli.EXIT_NUMERIC)
        assert "Traceback" not in err.getvalue()
        if code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED):
            parse(out.getvalue())
        else:
            assert out.getvalue() == ""

    @settings(max_examples=300, deadline=None)
    @given(_flags(["m", "r0", "v0", "alpha0"], NUMBER))
    def test_classify(self, flags):
        self.check(["classify", *flags])

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_flags(["a", "mass", "g", "d", "tol"], NUMBER),
                     _replaced({"a": "1", "mass": "1", "g": "1", "d": "2"}, NUMBER,
                               optional=["tol"])),
           COUNT)
    def test_shell_check(self, flags, rings):
        self.check(["shell-check", *flags, "--rings", rings])

    @settings(max_examples=300, deadline=None)
    @given(_replaced({"e": "0.5", "ell": "0.75", "tol": "1e-9"}, NUMBER),
           _replaced({"samples": "2000"}, COUNT))
    def test_geometry_check(self, flags, samples):
        self.check(["geometry-check", *flags, *samples])

    @settings(max_examples=300, deadline=None)
    @given(_replaced({"m": "1", "r0": "1", "v0": "1", "alpha0": "60", "dt": "1e-3"}, NUMBER),
           _replaced({"steps": "2000"}, COUNT, optional=["decimate"]))
    def test_simulate(self, flags, counts):
        with tempfile.TemporaryDirectory() as tmp:
            self.check(["simulate", *flags, *counts, "--out", os.path.join(tmp, "traj.csv")])

    @settings(max_examples=100, deadline=None)
    @given(_replaced({"m": "1"}, NUMBER), _replaced({"count": "2"}, KEPLER3_COUNT))
    def test_kepler3(self, m, count):
        self.check(["kepler3", *m, *count], parse=_finite_csv)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["classify", "simulate"]),
           st.dictionaries(st.sampled_from(["m", "r0", "v0", "alpha0", "dt", "steps",
                                            "decimate", "out"]), JSON_VALUE))
    def test_config(self, command, drawn):
        # A config that runs, some of its values replaced by drawn ones; out
        # stays inside the temporary directory unless it is not a string.
        with tempfile.TemporaryDirectory() as tmp:
            conf = {"m": 1, "r0": 1, "v0": 1, "alpha0": 60, "dt": 1e-3, "steps": 2000,
                    "out": os.path.join(tmp, "traj.csv")}
            conf.update((key, value) for key, value in drawn.items()
                        if not (key == "out" and isinstance(value, str)))
            path = os.path.join(tmp, "run.json")
            with open(path, "w") as fh:
                json.dump(conf, fh)
            self.check([command, "--config", path])
