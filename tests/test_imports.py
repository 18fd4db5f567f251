"""What importing polyorbit loads, the threads it leaves, and its lazily
resolved exports.

Each test starts a fresh interpreter, since the test process has long since
imported NumPy and every submodule.
"""

import hashlib
import json
import os
import subprocess
import sys

from polyorbit import cli

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# The names `polyorbit` exports, by the submodule that defines them.
EXPORTS = {
    "determination": [
        "CentralField", "ConservedPair", "OrbitSolution", "OrbitState", "apsides",
        "centripetal_accel", "classify_orbit", "conserved_from_state", "csc2_predicted",
        "energy_area", "energy_area_quadrature", "period", "solve_orbit", "speed_at_radius",
        "speed_squared_change",
    ],
    "errors": [
        "CollisionError", "DegenerateOrbitError", "DomainError", "NoSuchPointError",
        "NotAnEllipseError", "OutsideOnlyError", "UnboundedOrbitError",
        "UnreachableRadiusError",
    ],
    "geometry": [
        "ConicClass", "ConicShape", "EllipseAxes", "ResidualReport", "axes_from_focal",
        "classify_eccentricity", "csc2_alpha", "ellipse_area", "focal_from_axes",
        "geometry_residuals", "radius_at_angle", "sample_points",
    ],
    "planar": ["PlanarVector"],
    "shell": [
        "RingDecomposition", "ShellSpec", "point_mass_accel", "ring_area", "shell_accel",
        "sphere_accel",
    ],
    "simulator": [
        "DiagnosticsReport", "SimConfig", "Trajectory", "backend", "diagnostics", "integrate",
        "step", "swept_areas", "uniform_accel_displacement", "uniform_accel_displacement_sum",
    ],
}

# Commands that run without NumPy: the closed-form ones, help and usage
# errors (argparse's own, and one raised by a handler).
NUMPY_FREE_COMMANDS = [
    ["classify", "--m", "1", "--r0", "1", "--v0", "1", "--alpha0", "60.0"],
    ["moon-check"],
    ["--help"],
    ["kepler3", "--m", "1"],
    ["classify", "--m", "1"],
]

# The first 16 hex digits of the sha256 of the two closed-form commands'
# stdout, as printed before the imports were made lazy.
CLOSED_FORM_STDOUT = {
    "classify --m 1 --r0 1 --v0 1 --alpha0 60.0": "0afb703e29cedfb3",
    "moon-check": "126f82b10845db82",
}

_RUN_COMMANDS = """
import contextlib, io, json, sys
from polyorbit import cli

results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue(), "numpy" in sys.modules])
print(json.dumps(results))
"""

_RESOLVE_EXPORTS = """
import importlib, json, sys
import polyorbit

listed = dir(polyorbit)
exports = json.loads(sys.argv[1])
same = {name: getattr(polyorbit, name) is getattr(importlib.import_module(
            "polyorbit." + module), name)
        for module, names in exports.items() for name in names}
try:
    polyorbit.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"dir": listed, "same": same, "all": polyorbit.__all__,
                  "unknown": unknown}))
"""


def fresh_python(*args):
    """stdout of a fresh interpreter that imports polyorbit from src/."""
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    return done.stdout


def test_import_loads_no_numeric_module():
    loaded = json.loads(fresh_python("-c", (
        "import json, sys, polyorbit, polyorbit.cli; "
        "print(json.dumps(sorted(sys.modules)))")))
    for module in ("numpy", "polyorbit.simulator", "polyorbit._propagate_c",
                   "polyorbit.geometry", "polyorbit.determination", "polyorbit.shell",
                   "concurrent.futures"):
        assert module not in loaded


_COUNT_THREADS = """
import contextlib, io, json, sys, threading
import polyorbit, polyorbit.cli

counts = {"import": threading.active_count()}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = polyorbit.cli.main(argv)
    counts[argv[0]] = [code, threading.active_count()]
print(json.dumps(counts))
"""


def test_import_and_commands_leave_one_thread(tmp_path):
    # The ring sum, residual loops and CSV export join their threads before
    # they return; nothing starts a thread at import or keeps a pool.  The
    # export's 40,001 rows are more than two ranges of _MIN_CHUNK rows.
    commands = [
        ["classify", "--m", "1", "--r0", "1", "--v0", "1", "--alpha0", "60.0"],
        ["moon-check"],
        ["shell-check", "--a", "1", "--mass", "1", "--g", "1", "--d", "2", "--rings", "100000"],
        ["geometry-check", "--e", "0.5", "--ell", "0.75", "--samples", "100000"],
        ["simulate", "--m", "1", "--r0", "1", "--v0", "1", "--alpha0", "60", "--dt", "1e-4",
         "--steps", "40000", "--out", str(tmp_path / "traj.csv")],
    ]
    counts = json.loads(fresh_python("-c", _COUNT_THREADS, json.dumps(commands)))
    assert counts == {"import": 1, "classify": [0, 1], "moon-check": [0, 1],
                      "shell-check": [0, 1], "geometry-check": [0, 1], "simulate": [0, 1]}


def test_closed_form_commands_help_and_usage_errors_run_without_numpy(monkeypatch, cli_call):
    # the same bytes as this process prints, which has loaded every module
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    results = json.loads(fresh_python("-c", _RUN_COMMANDS, json.dumps(NUMPY_FREE_COMMANDS)))
    for argv, (code, out, err, numpy_loaded) in zip(NUMPY_FREE_COMMANDS, results):
        assert not numpy_loaded, argv
        assert (code, out, err) == cli_call(argv), argv
        digest = CLOSED_FORM_STDOUT.get(" ".join(argv))
        if digest is not None:
            assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest
    assert [code for code, *_ in results] == [0, 0, 0, cli.EXIT_USAGE, cli.EXIT_USAGE]


def test_exports_resolve_to_their_submodules_names():
    got = json.loads(fresh_python("-c", _RESOLVE_EXPORTS, json.dumps(EXPORTS)))
    names = {name for names in EXPORTS.values() for name in names}
    assert len(names) == 52
    assert got["same"] == dict.fromkeys(got["same"], True) and set(got["same"]) == names
    assert set(got["all"]) == names
    assert names <= set(got["dir"])  # listed before any of them was resolved
    assert got["unknown"] == "module 'polyorbit' has no attribute 'no_such_name'"
