"""Tests for the impulse-polygon simulator and its diagnostics."""

import contextlib
import ctypes
import ctypes.util
import importlib
import inspect
import io
import json
import math
import os
import shlex
import shutil
import struct
import subprocess
import sys
import sysconfig
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import polyorbit
from polyorbit import (
    CentralField,
    CollisionError,
    DegenerateOrbitError,
    DomainError,
    OrbitState,
    PlanarVector,
    SimConfig,
    backend,
    diagnostics,
    integrate,
    solve_orbit,
    swept_areas,
)
from polyorbit import _propagate_py, cli, geometry, simulator
from polyorbit.determination import is_radial
from polyorbit.geometry import csc2_quadratic
from polyorbit.simulator import (
    _DIAGNOSTICS_BLOCK,
    CSV_HEADER,
    MAX_SAMPLES,
    Trajectory,
    _parabolic_vertex,
    _turning_points,
)

UNIT_FIELD = CentralField(1.0)

# Rows per chunk of the CSV export, on either backend.
CSV_CHUNK = _propagate_py._CSV_CHUNK_ROWS


def make_state(r0, v0, alpha_deg):
    a = math.radians(alpha_deg)
    return OrbitState(
        position=PlanarVector(r0, 0.0),
        velocity=PlanarVector(v0 * math.cos(a), v0 * math.sin(a)),
    )


CANONICAL = make_state(1.0, 1.0, 60.0)

# Radii the kernels are given here: integrate passes COLLISION_RADIUS, and the
# last is the smallest whose cube does not underflow.
RADII = [1e-9, 0.05, 0.3, 1.0, math.nextafter(sys.float_info.min ** (1 / 3), math.inf)]

# A launch where a hypot/r*r*r step and the kernel's sqrt(r2)/r2*r step
# differ in the last bit of vx.
ROUNDING_SENSITIVE = OrbitState(
    position=PlanarVector(-0.10255468462619409, 0.28669936474634045),
    velocity=PlanarVector(-0.3122066137899723, -0.2561309219401078),
)


def step(state, field, dt):
    """The state after one impulse-polygon step of integrate."""
    return integrate(state, field, SimConfig(dt=dt, steps=1)).state(1)


class TestStep:
    def test_single_step_hand_oracle(self):
        # kick f = m/r^3*dt = 1e-3 at r = 1, then drift; worked by hand
        out = step(CANONICAL, UNIT_FIELD, 1e-3)
        assert out.velocity.x == pytest.approx(0.499, rel=1e-15)
        assert out.velocity.y == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-15)
        assert out.position.x == pytest.approx(1.000499, rel=1e-15)
        assert out.position.y == pytest.approx(0.0008660254037844386, rel=1e-15)
        assert abs(out.r - 1.0) < 1.2e-3

    def test_zero_field_limit(self):
        tiny = CentralField(1e-300)
        out = step(CANONICAL, tiny, 1e-3)
        expected = CANONICAL.position + 1e-3 * CANONICAL.velocity
        assert out.position.x == pytest.approx(expected.x, rel=1e-14)
        assert out.position.y == pytest.approx(expected.y, rel=1e-14)

    def test_impulse_antiparallel_to_position(self):
        out = step(CANONICAL, UNIT_FIELD, 1e-3)
        dv = out.velocity - CANONICAL.velocity
        assert abs(dv.unit().cross(CANONICAL.position.unit())) < 1e-15
        assert dv.dot(CANONICAL.position) < 0.0

    def test_collision_radius(self):
        close = OrbitState(PlanarVector(1e-12, 0.0), PlanarVector(0.0, 1.0))
        with pytest.raises(CollisionError) as exc_info:
            step(close, UNIT_FIELD, 1e-3)
        assert exc_info.value.step == 1

    @pytest.mark.parametrize("dt", [-1e-3, 0.0], ids=["negative-dt", "zero-dt"])
    def test_bad_inputs_rejected(self, dt):
        with pytest.raises(DomainError):
            step(CANONICAL, UNIT_FIELD, dt)

    @pytest.mark.parametrize(
        "state, m, dt",
        [(CANONICAL, 1.0, 1e-3),
         (ROUNDING_SENSITIVE, 3.3562627079848544, 0.007187745212957374)],
        ids=["canonical", "rounding-sensitive"],
    )
    def test_matches_kernel(self, state, m, dt):
        # the loaded kernel's step has the bits of the Python oracle's
        out = step(state, CentralField(m), dt)
        _, x, y, vx, vy, _, _ = _propagate_py.propagate_kernel(
            state.position.x, state.position.y, state.velocity.x, state.velocity.y, m, dt, 1,
            1, simulator.COLLISION_RADIUS)
        assert (out.position.x, out.position.y, out.velocity.x, out.velocity.y) == (
            x[1], y[1], vx[1], vy[1])


class TestIntegrate:
    def test_canonical_apsides(self):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-4, steps=130000))
        r = traj.r
        assert r.min() == pytest.approx(0.5, rel=1e-4)
        assert r.max() == pytest.approx(1.5, rel=1e-4)

    def test_circular_stays_circular(self):
        steps = int(2 * math.pi / 1e-4)
        traj = integrate(make_state(1, 1, 90), UNIT_FIELD, SimConfig(dt=1e-4, steps=steps))
        assert np.max(np.abs(traj.r - 1.0)) < 1e-4

    def test_hyperbolic_escapes(self):
        # inward launch so the periapsis lies ahead of the start
        c45 = math.sqrt(2.0) / 2.0
        state = OrbitState(PlanarVector(1.0, 0.0), PlanarVector(-2 * c45, 2 * c45))
        traj = integrate(state, UNIT_FIELD, SimConfig(dt=1e-4, steps=100000))
        r = traj.r
        periapsis = (math.sqrt(5.0) - 1.0) / 2.0
        assert r.min() > periapsis - 1e-4
        k = int(np.argmin(r))
        assert np.all(np.diff(r[k:]) > 0.0)

    def test_sample_times_accumulate(self, kernel):
        # 0.1 is inexact in binary, so the running sum drifts from k * dt
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=0.1, steps=30))
        t = 0.0
        running = [t]
        for _ in range(30):
            t = t + 0.1
            running.append(t)
        assert traj.t.tolist() == running
        assert running[-1] != 30 * 0.1

    def test_decimation(self):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-3, steps=100, record_every=10))
        assert len(traj) == 11
        assert traj.is_decimated

    def test_collision_reports_step(self):
        # A head-on fall at speed 1 in a field too weak to bend it, in steps
        # of 2^-32 (2.3e-10), shorter than the 1e-9 disk: step 4092 ends at
        # x = 4 * 2^-32 = 9.3e-10, inside the disk, so step 4093 collides.
        state = OrbitState(PlanarVector(2.0**-20, 0.0), PlanarVector(-1.0, 1e-30))
        with pytest.raises(CollisionError) as exc_info:
            integrate(state, CentralField(1e-40), SimConfig(dt=2.0**-32, steps=2**13))
        assert exc_info.value.radius == simulator.COLLISION_RADIUS
        assert exc_info.value.step == 4093

    def test_non_finite_state_rejected(self):
        # the first kick m/r^3 * dt overflows to inf, and the state turns to nan
        state = make_state(1e-5, 1.0, 60.0)
        with pytest.raises(DomainError, match="not finite"):
            integrate(state, CentralField(1e300), SimConfig(dt=1e-3, steps=100))

    # The first kick f = m/r^3 * dt or its factor m/r^3 is 0 or subnormal:
    # the body would drift in a straight line, or kick with lost bits.
    @pytest.mark.parametrize("m, r0, dt", [
        (1e-300, 1e20, 6.283185307179586e176),  # m/r^3 = 1e-360 rounds to 0
        (1.0, 1.0, 1e-310),                     # f = 1e-310 is subnormal
        (1e-300, 1e4, 1e10),                    # m/r^3 = 1e-312 is subnormal, f = 1e-302 is not
    ], ids=["factor-zero", "kick-subnormal", "factor-subnormal"])
    def test_underflowing_first_kick_rejected(self, kernel, monkeypatch, m, r0, dt):
        calls = []
        monkeypatch.setattr(kernel, "propagate_kernel", lambda *args, **kw: calls.append(args))
        with pytest.raises(DomainError, match="^the first kick m/r\\^3 \\* dt = "):
            integrate(make_state(r0, 1e-160, 60.0), CentralField(m), SimConfig(dt=dt, steps=10))
        assert calls == []

    # The smallest factor and kick that are normal doubles run; so does a
    # launch inside the collision radius, to its collision at step 1.
    def test_smallest_normal_first_kick_runs(self, kernel):
        tiny = sys.float_info.min
        traj = integrate(CANONICAL, CentralField(tiny), SimConfig(dt=1.0, steps=10))
        assert len(traj) == 11
        with pytest.raises(CollisionError) as exc_info:
            integrate(make_state(1e-200, 1.0, 60.0), UNIT_FIELD, SimConfig(dt=1e-3, steps=10))
        assert exc_info.value.step == 1

    def test_step_cap(self):
        with pytest.raises(DomainError):
            SimConfig(dt=1e-3, steps=10**9)

    def test_sample_cap(self):
        # only the config is built: integrate would preallocate 5 x 80 MB
        SimConfig(dt=1e-3, steps=MAX_SAMPLES - 1)
        with pytest.raises(DomainError, match="record_every"):
            SimConfig(dt=1e-3, steps=MAX_SAMPLES)
        with pytest.raises(DomainError):
            SimConfig(dt=1e-3, steps=10**8)
        SimConfig(dt=1e-3, steps=10**8, record_every=20)

    def test_windows_past_the_sample_cap_are_not_held(self, kernel, monkeypatch):
        # COARSE turns every 4.5 steps: 200 000 steps hold 44 444 windows,
        # 3.2 MB, but past a cap of 10 000 samples the kernel keeps 4000.
        monkeypatch.setattr(simulator, "MAX_SAMPLES", 10_000)
        launch = OrbitState(PlanarVector(*COARSE[:2]), PlanarVector(*COARSE[2:4]))
        config = SimConfig(dt=COARSE[5], steps=200_000, record_every=100)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="2001 recorded samples and over 3999 "):
                integrate(launch, CentralField(COARSE[4]), config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024

    def test_windows_count_toward_the_sample_cap(self, kernel, monkeypatch):
        # 13 recorded samples and 4 windows of 2 samples: 21 samples
        config = SimConfig(dt=1e-3, steps=12289, record_every=1000)
        traj = integrate(CANONICAL, UNIT_FIELD, config)
        assert (len(traj), len(traj.windows[0])) == (13, 4)
        monkeypatch.setattr(simulator, "MAX_SAMPLES", 21)
        integrate(CANONICAL, UNIT_FIELD, config)
        monkeypatch.setattr(simulator, "MAX_SAMPLES", 20)
        with pytest.raises(DomainError, match="over 3 turning-point windows"):
            integrate(CANONICAL, UNIT_FIELD, config)


def compiler_present() -> bool:
    cc = sysconfig.get_config_var("CC")
    return bool(cc) and shutil.which(shlex.split(cc)[0]) is not None


# Where a compiler is present the C kernel must load: its tests fail with
# the ImportError rather than skip.
requires_c = pytest.mark.skipif(not compiler_present(),
                                reason="no C compiler (sysconfig CC) to build the C kernel")


def c_kernel():
    return importlib.import_module("polyorbit._propagate_c")


KERNELS = [pytest.param(lambda: _propagate_py, id="python"),
           pytest.param(c_kernel, id="c", marks=requires_c)]


@pytest.fixture(params=KERNELS)
def kernel(request, monkeypatch):
    """Each kernel in turn, installed as the one simulator runs."""
    module = request.param()
    monkeypatch.setattr(simulator, "_kernel", module)
    return module


class TestBackends:
    def test_backend_reported(self):
        backends = simulator._backends
        if compiler_present():
            # where one does not run in C, its reason says why
            assert backends["propagate_kernel"] == backends["write_rows"] == ("c", None), backends
            assert backend() == "c"
        else:
            assert [where for where, _ in backends.values()] == ["python"] * 4
            assert backend() == "python"
        for loop, (where, why) in backends.items():
            assert getattr(simulator._kernel, loop) is getattr(
                c_kernel() if where == "c" else _propagate_py, loop)
            assert (why is None) == (where == "c")

    @requires_c
    def test_concurrent_first_imports_build_one_library(self, tmp_path):
        # Four interpreters import a copy of the package with an empty
        # cache at once: each compiles to its own temporary file and renames
        # it over the same library name.
        shutil.copytree(os.path.dirname(polyorbit.__file__), tmp_path / "polyorbit",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=str(tmp_path))
        probe = "import polyorbit; print(polyorbit.backend())"
        procs = [subprocess.Popen([sys.executable, "-c", probe], env=env, cwd=tmp_path,
                                  stdout=subprocess.PIPE, text=True) for _ in range(4)]
        try:
            outs = [proc.communicate(timeout=120)[0] for proc in procs]
        finally:
            for proc in procs:
                proc.kill()  # a no-op for those that have exited
                proc.wait()
        assert [proc.returncode for proc in procs] == [0] * 4
        assert outs == ["c\n"] * 4
        cached = [p.name for p in (tmp_path / "polyorbit" / "__pycache__").iterdir()
                  if not p.name.endswith(".pyc")]
        assert len(cached) == 1 and cached[0].endswith(".so")

    @requires_c
    def test_ring_and_residual_loops_run_in_c_where_numpy_calls_libm(self):
        # The C ring sum is bound exactly where NumPy's float64 sin and cos
        # give libm's bits, and the C residual loop where its sin, cos and
        # hypot do: on the probe's angles and on drawn angles and pairs.
        compiled = c_kernel()
        libm = ctypes.CDLL(ctypes.util.find_library("m"))
        for name in ("sin", "cos", "hypot"):
            getattr(libm, name).restype = ctypes.c_double
            getattr(libm, name).argtypes = [ctypes.c_double] * (2 if name == "hypot" else 1)
        rng = np.random.default_rng(3)
        angles = np.concatenate(
            [(np.arange(n) + 0.5) * (math.pi / n) for _, _, n in compiled._RING_PROBE]
            + [_propagate_py._sample_thetas(geometry.ConicShape(e, ell), n, 0, n)
               for e, ell, n in compiled._RESIDUAL_PROBE]
            + [rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 10000)])
        pairs = rng.uniform(-1.0, 1.0, (10000, 2)) * 10.0 ** rng.integers(-13, 13, (10000, 2))
        trig_is_libm = (np.sin(angles).tolist() == [libm.sin(x) for x in angles.tolist()]
                        and np.cos(angles).tolist() == [libm.cos(x) for x in angles.tolist()])
        hypot_is_libm = np.hypot(*pairs.T).tolist() == [libm.hypot(x, y)
                                                        for x, y in pairs.tolist()]
        assert (simulator._backends["ring_sum"][0] == "c") == trig_is_libm
        assert ((simulator._backends["conic_residuals"][0] == "c")
                == (trig_is_libm and hypot_is_libm))

    @requires_c
    def test_export_runs_in_c_where_numpy_hypot_is_libm(self):
        # derive_columns in C calls libm's hypot for r and v: the C export is
        # bound exactly where NumPy's float64 hypot gives libm's bits, on the
        # probe's states, its (x, y) and (vx, vy) of the formatter's values,
        # and on drawn pairs.
        libm = ctypes.CDLL(ctypes.util.find_library("m"))
        libm.hypot.restype = ctypes.c_double
        libm.hypot.argtypes = [ctypes.c_double] * 2
        rng = np.random.default_rng(4)
        pairs = np.concatenate([
            np.array(c_kernel()._DERIVE_PROBE).reshape(-1, 2),
            np.reshape(c_kernel()._PROBE_VALUES, (8, 5))[:, 1:].reshape(-1, 2),
            rng.uniform(-1.0, 1.0, (10000, 2)) * 10.0 ** rng.integers(-300, 300, (10000, 2))])
        with np.errstate(over="ignore"):
            numpy_bits = np.hypot(*pairs.T).tobytes()
        libm_bits = np.array([libm.hypot(x, y) for x, y in pairs.tolist()]).tobytes()
        assert (simulator._backends["write_rows"][0] == "c") == (numpy_bits == libm_bits)

    # A compiler that cannot run, one that fails and a cache that cannot be
    # written to move all four loops to Python, with the ImportError's text.
    # A C kernel whose records or windows, or a C formatter, that differ
    # from _propagate_py's on the probe move that loop alone; a NumPy whose
    # sin is not libm's moves the ring and residual loops, and one whose
    # hypot is not moves the export (its derived r and v) and the residual
    # loop.  Every output is the Python loops'.
    @pytest.mark.parametrize("failure", ["no-compiler", "compile-error", "unwritable-cache",
                                         "probe-mismatch", "window-probe-mismatch",
                                         "format-probe-mismatch", "trig-probe-mismatch",
                                         "hypot-probe-mismatch"])
    def test_failed_load_falls_back_to_python(self, request, monkeypatch, failure):
        on_python, why = {
            "no-compiler": (simulator._LOOPS, "/nonexistent/cc"),
            "compile-error": (simulator._LOOPS, "false could not compile"),
            "unwritable-cache": (simulator._LOOPS, "read-only cache"),
            "probe-mismatch": (["propagate_kernel"], "probe mismatch"),
            "window-probe-mismatch": (["propagate_kernel"], "probe mismatch"),
            "format-probe-mismatch": (["write_rows"], "probe mismatch"),
            "trig-probe-mismatch": (["ring_sum", "conic_residuals"], "probe mismatch"),
            "hypot-probe-mismatch": (["write_rows", "conic_residuals"], "probe mismatch"),
        }[failure]
        with monkeypatch.context() as patch:
            cc = {"no-compiler": "/nonexistent/cc", "compile-error": "false",
                  "unwritable-cache": "true"}.get(failure)
            if cc is None:  # the C library is built; one loop's probe fails
                compiled = request.getfixturevalue("c_library")
            else:
                # a fresh import of the C library, built anew for the other compiler
                compiled = None
                patch.delitem(sys.modules, "polyorbit._propagate_c", raising=False)
                patch.delattr(polyorbit, "_propagate_c", raising=False)
                config_var = sysconfig.get_config_var
                patch.setattr(sysconfig, "get_config_var",
                              lambda name: cc if name == "CC" else config_var(name))
            if failure == "unwritable-cache":
                def refuse(*args, **kwargs):
                    raise PermissionError("read-only cache")
                patch.setattr("tempfile.mkstemp", refuse)
            if failure == "probe-mismatch":
                run = compiled.propagate_kernel

                def off_by_one_bit(*args, **kwargs):
                    t, *rest = run(*args, **kwargs)
                    return (np.nextafter(t, np.inf), *rest)
                patch.setattr(compiled, "propagate_kernel", off_by_one_bit)
            if failure == "window-probe-mismatch":
                run = compiled.propagate_kernel

                def window_off_by_one_bit(*args, **kwargs):
                    *rest, (states, last) = run(*args, **kwargs)
                    assert len(states)  # the probe yields a window
                    return (*rest, (np.nextafter(states, np.inf), last))
                patch.setattr(compiled, "propagate_kernel", window_off_by_one_bit)
            if failure == "format-probe-mismatch":
                format_chunk = compiled._format_chunk

                def signed_nan(*args):
                    return bytes(format_chunk(*args)).replace(b"nan", b"-nan")
                patch.setattr(compiled, "_format_chunk", signed_nan)
            if failure == "trig-probe-mismatch":
                sin = np.sin

                def sin_off_by_one_bit(x):
                    return np.nextafter(sin(x), np.inf)
                patch.setattr(np, "sin", sin_off_by_one_bit)
            if failure == "hypot-probe-mismatch":
                hypot = np.hypot

                def hypot_off_by_one_bit(x, y):
                    return np.nextafter(hypot(x, y), np.inf)
                patch.setattr(np, "hypot", hypot_off_by_one_bit)
            loops, backends = simulator._load_kernel()
            for loop in simulator._LOOPS:
                assert getattr(loops, loop) is getattr(
                    _propagate_py if loop in on_python else compiled, loop)
        for loop, (where, reason) in backends.items():
            if loop in on_python:
                assert where == "python" and why in reason
            else:
                assert (where, reason) == ("c", None)
        assert len({reason for _, reason in backends.values()} - {None}) == 1
        monkeypatch.setattr(simulator, "_backends", backends)
        assert backend() == ("python" if "propagate_kernel" in on_python else "c")

        outputs = []
        for kernel in (loops, _propagate_py):
            monkeypatch.setattr(simulator, "_kernel", kernel)
            outputs.append(self.bits_bytes_and_stdout())
        assert outputs[0] == outputs[1]

    @staticmethod
    def bits_bytes_and_stdout():
        # The records and diagnostics of a run, its CSV, and the stdout of
        # shell-check and geometry-check, on the installed loops.
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-3, steps=13000, record_every=7))
        csv = io.BytesIO()
        traj.write_csv(csv)
        printed = []
        for argv in (["shell-check", "--a", "1", "--mass", "1", "--g", "1", "--d", "2.0",
                      "--rings", "100000"],
                     ["geometry-check", "--e", "1.5", "--ell", "0.75", "--samples", "5000"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            printed.append((code, out.getvalue()))
        return ([getattr(traj, name).tobytes() for name in ("t", "x", "y", "vx", "vy")],
                diagnostics(traj), csv.getvalue(), printed)


def assert_same_bits(got, want):
    """The records, the collision step and, where either gives them, the
    windows of two kernel results, bit for bit."""
    assert got[5] == want[5]
    for a, b in zip(got[:5], want[:5]):
        assert a.dtype == b.dtype == np.float64
        assert a.tobytes() == b.tobytes()
    if len(got) > 6 or len(want) > 6:
        (states, last), (want_states, want_last) = got[6], want[6]
        assert states.dtype == want_states.dtype == np.float64
        assert states.shape == want_states.shape
        assert states.shape[1:] == (3, 3)
        assert states.tobytes() == want_states.tobytes()
        assert last.dtype == want_last.dtype == np.float64
        assert last.shape == want_last.shape == (5,)
        assert last.tobytes() == want_last.tobytes()


def without_t(result):
    """A kernel result with every t, recorded or in a window, set to 0."""
    t, x, y, vx, vy, collided, (states, last) = result
    states = states.copy()
    states[..., 0] = 0.0
    return (np.zeros_like(t), x, y, vx, vy, collided, (states, np.r_[0.0, last[1:]]))


def r2_turns(r2):
    """The indices j of the states where r2, their x^2 + y^2, turns: the
    last non-zero change of r2 up to state j and the change from j to j + 1,
    non-zero, have opposite signs."""
    changes = [(j, b - a) for j, (a, b) in enumerate(zip(r2, r2[1:])) if b - a != 0.0]
    return [j for (_, before), (j, after) in zip(changes, changes[1:])
            if before < 0.0 < after or before > 0.0 > after]


def stepwise(x, y, vx, vy, m, dt, steps, record_every, collision_radius):
    """The Python kernel's run rebuilt from one-step runs, each from the state
    the one before it reached, with the time summed here as t + dt: the
    oracle for which states a run records, at which step a collision stops
    it, where r^2 turns (a window at each state j of r2_turns, holding the
    (t, x, y) of the states j - 1 .. j + 1 of the run) and which state it
    reaches last."""
    state = (0.0, x, y, vx, vy)
    run = [state]
    recorded = [state]
    collided = -1
    for k in range(1, steps + 1):
        one = _propagate_py.propagate_kernel(*state[1:], m, dt, 1, 1, collision_radius)
        if one[5] == 1:
            collided = k
            break
        state = (state[0] + dt, *(float(a[1]) for a in one[1:5]))
        run.append(state)
        if k % record_every == 0:
            recorded.append(state)
    states = [[run[i][:3] for i in (j - 1, j, j + 1)]
              for j in r2_turns([x * x + y * y for _, x, y, _, _ in run])]
    windows = (np.array(states, dtype=np.float64).reshape(-1, 3, 3), np.array(run[-1]))
    return (*(np.array(values) for values in zip(*recorded)), collided, windows)


def window_vertices(result, t):
    """The indices in t of the vertices, state 1, of a kernel result's
    windows."""
    return np.searchsorted(t, result[6][0][:, 1, 0]).tolist()


# Run lengths of the grids: the shortest runs, and runs of a few thousand
# steps whose last step falls on, before or after a multiple of 4096.
BLOCK_STEPS = [1, 2, 4095, 4096, 4097, 8193]

# A near-radial fall: r decreases on every step up to about step 20 000, so
# a radius just above r after step K - 1 makes the collision land on step K.
INFALL = (1.0, 0.0, -0.05, 0.02, 1.0, 5e-5)

# Steps on which the grids place a collision.
COLLIDE_AT = [1, 2, 100, 4095, 4096, 4097, 5096, 8193]


# A coarse launch whose r^2 turns at the states j = 3, 11, 18, 21, 24, 26
# and 28: a run of 28 steps ends on the vertex 28, whose window needs state
# 29, and a run of 29 steps ends with that window; r^2 falls from the
# launch, so state 0 is no vertex; the windows at 24 and 26 share a state.
TURNING = (0.7671199842634375, 0.0, 0.29279256832891765, 1.2182445723937887,
           6.77740972197304, 0.08644851775242246)

# Run lengths of the window grids on TURNING.
TURNING_STEPS = [1, 2, 27, 28, 29, 60]

# The CANONICAL launch at a coarse dt, which turns about every 105 steps:
# 3000 steps overflow the C kernel's first window buffer.
MANY_TURNS = (1.0, 0.0, 0.5, math.sqrt(3.0) / 2.0, 1.0, 0.03)


# A bound orbit about 9 steps long, whose r^2 turns about every 4.5
# steps for at least 4 million steps.
COARSE = (1.0, 0.0, -0.02338395238913534, 0.8385802412427391, 1.0, 0.5077498637989705)


def collision_radius_at(collide_at):
    # A radius just above r after step collide_at - 1 of INFALL.
    free = _propagate_py.propagate_kernel(*INFALL, collide_at - 1, 1, 1e-9)
    x, y = free[1][-1], free[2][-1]
    return math.sqrt(x * x + y * y) * (1.0 + 1e-12)


class TestKernelOracle:
    """The Python kernel, the oracle of the C kernel, against its own
    one-step runs; and a restart, the window invariant and bounded memory
    on both kernels."""

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.floats(0.3, 3.0), y=st.floats(-3.0, 3.0),
        vx=st.floats(-2.0, 2.0), vy=st.floats(-2.0, 2.0),
        m=st.floats(0.1, 10.0), dt=st.floats(1e-4, 1e-2),
        steps=st.integers(0, 2000),
        record_every=st.one_of(st.sampled_from([1, 2, 7]), st.integers(1, 10**9)),
        collision_radius=st.sampled_from([1e-9, 0.05, 0.3, 1.0]),
    )
    def test_matches_reference_kernel(self, x, y, vx, vy, m, dt, steps,
                                      record_every, collision_radius):
        args = (x, y, vx, vy, m, dt, steps, record_every, collision_radius)
        assert_same_bits(_propagate_py.propagate_kernel(*args), stepwise(*args))

    @pytest.mark.parametrize("steps", BLOCK_STEPS)
    @pytest.mark.parametrize("record_every", [1, 2, 7, 12288])
    def test_matches_reference_around_block_edges(self, steps, record_every):
        args = (1.0, 0.0, 0.5, math.sqrt(3.0) / 2.0, 1.0, 1e-3, steps, record_every, 1e-9)
        got = _propagate_py.propagate_kernel(*args)
        assert_same_bits(got, stepwise(*args))
        assert len(got[0]) == steps // record_every + 1

    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("collide_at", COLLIDE_AT)
    def test_collision_matches_reference(self, collide_at, record_every):
        args = INFALL + (12288, record_every, collision_radius_at(collide_at))
        got = _propagate_py.propagate_kernel(*args)
        assert got[5] == collide_at
        assert_same_bits(got, stepwise(*args))

    @pytest.mark.parametrize("steps", TURNING_STEPS)
    @pytest.mark.parametrize("record_every", [1, 7])
    def test_windows_match_reference(self, steps, record_every):
        args = TURNING + (steps, record_every, 1e-9)
        got = _propagate_py.propagate_kernel(*args)
        assert_same_bits(got, stepwise(*args))
        every = _propagate_py.propagate_kernel(*TURNING, steps, 1, 1e-9)
        assert window_vertices(got, every[0]) == [
            j for j in (3, 11, 18, 21, 24, 26, 28) if j < steps]

    @pytest.mark.parametrize("max_windows", [0, 3, 5, 6, 7, 8, None])
    def test_windows_past_max_windows_keep_one_more(self, max_windows):
        args = TURNING + (60, 7, 1e-9)
        got = _propagate_py.propagate_kernel(*args, max_windows=max_windows)
        want = stepwise(*args)
        (states, last), kept = want[6], 7 if max_windows is None else max_windows + 1
        assert_same_bits(got, want[:6] + ((states[:kept], last),))

    def test_windows_stop_at_a_collision(self):
        # r after step 28 of TURNING is below r at every step before it, so
        # a radius just above it stops the run on step 29: the vertex at 28
        # has no state 29, and no window.
        free = _propagate_py.propagate_kernel(*TURNING, 28, 1, 1e-9)
        radius = math.hypot(free[1][-1], free[2][-1]) * (1.0 + 1e-12)
        args = TURNING + (60, 1, radius)
        got = _propagate_py.propagate_kernel(*args)
        assert got[5] == 29
        assert window_vertices(got, free[0]) == [3, 11, 18, 21, 24, 26]
        assert_same_bits(got, stepwise(*args))

    @pytest.mark.parametrize("load", KERNELS)
    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(0, 8195), dt=st.floats(1e-4, 1e-2),
           record_every=st.sampled_from([1, 2, 7]))
    def test_restart_from_a_state_continues_the_run(self, load, k, dt, record_every):
        # From the state of step k, the kernel repeats the rest of the run
        # bit for bit: the states, and the windows whose three states are
        # all of step k or later.  Its t is the running sum from 0 again,
        # and is left out of the comparison.
        propagate = load().propagate_kernel
        steps = 8195
        full = propagate(1.0, 0.0, 0.5, 0.8, 1.0, dt, steps, 1, 1e-9)
        x, y, vx, vy = (float(a[k]) for a in full[1:5])
        rest = propagate(x, y, vx, vy, 1.0, dt, steps - k, record_every, 1e-9)
        states, last = full[6]
        later = np.array(window_vertices(full, full[0]), dtype=np.int64) - 1 >= k
        windows = (states[later], last)
        want = tuple(a[k::record_every] for a in full[:5]) + (-1, windows)
        assert_same_bits(without_t(rest), without_t(want))
        assert rest[0].tobytes() == full[0][:steps - k + 1:record_every].tobytes()

    @pytest.mark.parametrize("load", KERNELS)
    @settings(max_examples=100, deadline=None)
    @given(x=st.floats(1e-8, 3.0), y=st.floats(-3.0, 3.0),
           vx=st.floats(-2.0, 2.0), vy=st.floats(0.1, 2.0),
           m=st.one_of(st.floats(0.1, 10.0), st.floats(1e200, 1e308)),
           dt=st.one_of(st.floats(1e-4, 1e-2), st.floats(1e100, 1e308)),
           steps=st.integers(1, 200), record_every=st.integers(1, 7))
    def test_a_state_that_is_not_finite_stays_so(self, load, x, y, vx, vy, m, dt, steps,
                                                 record_every):
        # A huge m at a small r overflows the kick, a huge dt the drift or
        # t.  The last state the run reaches is finite exactly when every
        # state of the run is, recorded or not, and integrate refuses
        # exactly the runs whose last state is not.
        module = load()
        every = module.propagate_kernel(x, y, vx, vy, m, dt, steps, 1, 1e-9)
        got = module.propagate_kernel(x, y, vx, vy, m, dt, steps, record_every, 1e-9)
        last = got[6][1]
        assert last.tobytes() == every[6][1].tobytes()
        state = OrbitState(PlanarVector(x, y), PlanarVector(vx, vy))
        config = SimConfig(dt=dt, steps=steps, record_every=record_every)
        with mock.patch.object(simulator, "_kernel", module):
            if got[5] >= 0:
                with pytest.raises(CollisionError):
                    integrate(state, CentralField(m), config)
                return
            finite = np.isfinite(last).all()
            assert finite == np.isfinite(every[:5]).all()
            if finite:
                integrate(state, CentralField(m), config)
            else:
                with pytest.raises(DomainError, match="left the double range"):
                    integrate(state, CentralField(m), config)

    @pytest.mark.parametrize("load", KERNELS)
    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(0.3, 3.0), vx=st.floats(-2.0, 2.0), vy=st.floats(-2.0, 2.0),
           log_m=st.floats(-1.0, 1.0), log_dt=st.floats(-4.5, -0.5),
           steps=st.integers(50, 4000), record_every=st.sampled_from([1, 7, 10**4]))
    def test_windows_hold_the_extremum_and_its_vertex(self, load, x, vx, vy, log_m, log_dt,
                                                      steps, record_every):
        # On coarse and fine launches: state 1 of every window has the least
        # r^2 of its three states at a periapsis and the greatest at an
        # apoapsis, and every refined vertex lies within half a step of it,
        # up to the rounding of t.
        config = SimConfig(dt=10.0**log_dt, steps=steps, record_every=record_every)
        with mock.patch.object(simulator, "_kernel", load()):
            try:
                state = OrbitState(PlanarVector(x, 0.0), PlanarVector(vx, vy))
                traj = integrate(state, CentralField(10.0**log_m), config)
            except (CollisionError, DomainError):
                assume(False)
        states, _ = traj.windows
        t, x, y = np.moveaxis(states, 2, 0)
        r2 = x * x + y * y
        rising = r2[:, 1] < r2[:, 2]
        assert (r2[rising, 1] <= r2[rising, 0]).all()
        assert (r2[~rising, 1] >= r2[~rising, 0]).all() and (r2[~rising, 1] > r2[~rising, 2]).all()
        peri, apo = (iter(events) for events in _turning_points(traj))
        for (t0, t1, _), is_peri in zip(t.tolist(), rising.tolist()):
            t_star, _ = next(peri if is_peri else apo)
            assert abs(t_star - t1) <= 0.5 * (t1 - t0) + 0.5 * math.ulp(t1)

    def test_decimated_times_use_bounded_memory(self, kernel):
        # 10^5 steps recorded every 10^3: a record of every step would take
        # 5 x 8 x 10^5 bytes = 4 MB, the 101 recorded states 4 kB
        tracemalloc.start()
        try:
            t = kernel.propagate_kernel(1.0, 0.0, 0.5, 0.8, 1.0, 1e-3, 10**5, 10**3, 1e-9)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        running = 0.0
        expected = [running]
        for k in range(1, 10**5 + 1):
            running = running + 1e-3
            if k % 10**3 == 0:
                expected.append(running)
        assert t.tolist() == expected


finite = st.floats(allow_nan=False, allow_infinity=False)


@requires_c
class TestCKernelOracle:
    """The C kernel against the Python kernel, bit for bit."""

    @staticmethod
    def propagate(*args, **kwargs):
        return c_kernel().propagate_kernel(*args, **kwargs)

    @pytest.mark.parametrize("steps", BLOCK_STEPS)
    @pytest.mark.parametrize("record_every", [1, 2, 7, 12288])
    def test_matches_reference_around_block_edges(self, steps, record_every):
        args = (1.0, 0.0, 0.5, math.sqrt(3.0) / 2.0, 1.0, 1e-3, steps, record_every, 1e-9)
        got = self.propagate(*args)
        assert_same_bits(got, _propagate_py.propagate_kernel(*args))
        assert len(got[0]) == steps // record_every + 1

    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("collide_at", COLLIDE_AT)
    def test_collision_matches_reference(self, collide_at, record_every):
        args = INFALL + (12288, record_every, collision_radius_at(collide_at))
        got = self.propagate(*args)
        assert got[5] == collide_at
        assert_same_bits(got, _propagate_py.propagate_kernel(*args))

    @pytest.mark.parametrize("steps", TURNING_STEPS)
    @pytest.mark.parametrize("record_every", [1, 7])
    def test_windows_match_python_kernel(self, steps, record_every):
        args = TURNING + (steps, record_every, 1e-9)
        assert_same_bits(self.propagate(*args), _propagate_py.propagate_kernel(*args))

    def test_windows_stop_at_a_collision(self):
        free = _propagate_py.propagate_kernel(*TURNING, 28, 1, 1e-9)
        args = TURNING + (60, 1, math.hypot(free[1][-1], free[2][-1]) * (1.0 + 1e-12))
        got = self.propagate(*args)
        assert got[5] == 29
        assert_same_bits(got, _propagate_py.propagate_kernel(*args))

    @pytest.mark.parametrize("max_windows", [0, 3, 5, 6, 7, 8, None])
    def test_windows_past_max_windows_match_python_kernel(self, max_windows):
        args = TURNING + (60, 7, 1e-9)
        assert_same_bits(self.propagate(*args, max_windows=max_windows),
                         _propagate_py.propagate_kernel(*args, max_windows=max_windows))

    # MANY_TURNS turns 29 times in 3000 steps, and the first buffer holds 18:
    # the run is repeated with room for the 29, or for max_windows + 1, or,
    # when the first buffer already holds max_windows + 1, not at all.
    @pytest.mark.parametrize("max_windows, capacities", [
        (None, [18, 29]), (28, [18, 29]), (20, [18, 21]), (17, [18]), (10, [11]),
    ])
    def test_windows_past_the_buffer_repeat_the_run_once(self, monkeypatch, max_windows,
                                                        capacities):
        module = c_kernel()
        calls = []
        kick_drift = module._kick_drift

        def spy(*args):
            calls.append(args[15])  # the window buffer's capacity
            return kick_drift(*args)

        monkeypatch.setattr(module, "_kick_drift", spy)
        args = MANY_TURNS + (3000, 7, 1e-9)
        got = self.propagate(*args, max_windows=max_windows)
        assert_same_bits(got, _propagate_py.propagate_kernel(*args, max_windows=max_windows))
        assert len(got[6][0]) == capacities[-1]
        assert calls == capacities

    @pytest.mark.parametrize("steps, record_every", [
        (-1, 1), (5, -10), (5, 0), (2**64 + 5, 2**64 + 1),
    ])
    def test_rejects_sizes_the_loop_cannot_hold(self, steps, record_every):
        # the C loop would write past the outputs, or ctypes would wrap steps
        # to 5 and record_every to 1
        with pytest.raises(ValueError, match="steps"):
            self.propagate(1.0, 0.0, 0.0, 1.0, 1.0, 1e-3, steps, record_every, 1e-9)

    @settings(max_examples=300, deadline=None)
    @given(
        x=st.one_of(st.floats(0.3, 3.0), finite), y=st.one_of(st.floats(-3.0, 3.0), finite),
        vx=st.one_of(st.floats(-2.0, 2.0), finite), vy=st.one_of(st.floats(-2.0, 2.0), finite),
        m=st.one_of(st.floats(0.1, 10.0), st.floats(5e-324, 1e308)),
        dt=st.one_of(st.floats(1e-4, 1e-2), st.floats(5e-324, 1e308)),
        steps=st.one_of(st.sampled_from([0] + BLOCK_STEPS), st.integers(0, 12288)),
        record_every=st.one_of(st.sampled_from([1, 2, 7]), st.integers(1, 10**9),
                               st.integers(2**63, 2**70)),
        collision_radius=st.sampled_from(RADII),
    )
    def test_matches_python_kernel(self, x, y, vx, vy, m, dt, steps, record_every,
                                   collision_radius):
        # Launches far outside the double range's middle overflow to inf and
        # nan within a few steps; both kernels must carry the same bits.
        args = (x, y, vx, vy, m, dt, steps, record_every, collision_radius)
        assert_same_bits(self.propagate(*args), _propagate_py.propagate_kernel(*args))


@requires_c
class TestOneInterface:
    """Each loop's C and Python copies take the same arguments."""

    @pytest.mark.parametrize("loop", ["propagate_kernel", "write_rows", "ring_sum",
                                      "conic_residuals"])
    def test_both_copies_have_one_signature(self, loop):
        assert (inspect.signature(getattr(c_kernel(), loop))
                == inspect.signature(getattr(_propagate_py, loop)))

    def test_kernels_take_the_benchmarks_nine_positional_arguments(self):
        # a benchmark's kernel rate passes (x, y, vx, vy, m, dt), the steps,
        # record_every = steps and the collision radius, all by position
        args = (1.0, 0.0, 0.5, math.sqrt(3.0) / 2.0, 1.0, 1e-4, 4000, 4000, 1e-9)
        got = c_kernel().propagate_kernel(*args)
        assert len(got[0]) == 2
        assert_same_bits(got, _propagate_py.propagate_kernel(*args))


class TestSweptAreas:
    def test_exactly_equal(self):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-4, steps=10**5))
        areas = swept_areas(traj)
        assert np.max(np.abs(areas - areas[0]) / areas[0]) < 1e-12

    def test_first_area_is_post_impulse_triangle(self):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-3, steps=10))
        v1 = PlanarVector(float(traj.vx[1]), float(traj.vy[1]))
        expected = 0.5 * abs(CANONICAL.position.cross(v1)) * 1e-3
        assert swept_areas(traj)[0] == pytest.approx(expected, rel=1e-14)

    def test_small_dt_limit_is_sweep_rate(self):
        # area per step -> (sqrt(Q)/2) * dt
        dt = 1e-6
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=dt, steps=100))
        w = math.sqrt(0.75) / 2.0
        assert swept_areas(traj)[0] == pytest.approx(w * dt, rel=1e-5)

    def test_decimated_rejected(self):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-3, steps=100, record_every=10))
        with pytest.raises(DomainError):
            swept_areas(traj)


class TestDiagnostics:
    def test_canonical(self):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-4, steps=120000))
        d = diagnostics(traj)
        assert d.Q_drift < 1e-12
        assert d.C_drift < 5e-4
        assert d.csc2_max_residual < 1e-3
        assert d.observed_periapsis == pytest.approx(0.5, rel=1e-4)
        assert d.observed_apoapsis == pytest.approx(1.5, rel=1e-4)
        assert d.observed_period == pytest.approx(2 * math.pi, rel=1e-3)

    def test_first_order_convergence(self):
        drifts = {}
        for dt in (1e-4, 5e-5):
            steps = int(round(2 * math.pi / dt))
            d = diagnostics(integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=dt, steps=steps)))
            drifts[dt] = d.C_drift
        assert 0.3 < drifts[5e-5] / drifts[1e-4] < 0.7

    def test_circular_residual_against_unity(self):
        steps = int(2 * math.pi / 1e-4)
        d = diagnostics(integrate(make_state(1, 1, 90), UNIT_FIELD, SimConfig(dt=1e-4, steps=steps)))
        assert d.csc2_max_residual < 1e-3

    def test_too_few_passages_gives_no_period(self):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-4, steps=1000))
        assert diagnostics(traj).observed_period is None

    def test_too_few_samples_rejected(self):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-4, steps=5))
        with pytest.raises(DomainError):
            diagnostics(traj)

    def test_radial_trajectory_rejected(self):
        # Q = 0: the drift and swept-area ratios would be NaN
        radial = OrbitState(PlanarVector(1.0, 0.0), PlanarVector(0.5, 0.0))
        traj = integrate(radial, UNIT_FIELD, SimConfig(dt=1e-3, steps=50))
        with pytest.raises(DomainError, match="radial"):
            diagnostics(traj)

    def test_underflowing_q_is_not_called_radial(self):
        # alpha0 = 1e-320 degrees: x vy - y vx = 1.7e-322, whose square is 0
        traj = integrate(make_state(1.0, 1.0, 1e-320), UNIT_FIELD, SimConfig(dt=1e-3, steps=50))
        with pytest.raises(DomainError, match="underflows") as exc_info:
            diagnostics(traj)
        assert "radial trajectory" not in str(exc_info.value)

    def test_overflow_is_a_domain_error(self):
        # the state stays finite, but v^2 and (x vy - y vx)^2 overflow; no
        # RuntimeWarning may escape (pytest turns one into an error)
        traj = integrate(CANONICAL, CentralField(1e300), SimConfig(dt=1e-3, steps=100))
        with pytest.raises(DomainError, match="double range"):
            diagnostics(traj)

    def test_state_leaving_the_double_range_after_the_last_record_rejected(self, kernel):
        # A straight fall in steps of exactly 2^334, too far out for the
        # kicks to bend it (the first is 2^-83, a normal double, and none
        # moves vx or y by half an ulp), lands on x = 0 at step 64.  There
        # r = 2^-29 (1.9e-9) lies outside the collision disk, and the kick
        # m / r^3 * dt = 2^1024 overflows, so every state from step 65 on is
        # not finite.  Recorded every 2nd step, a run of 65 steps ends one
        # step after its last recorded state: integrate refuses it on the
        # kernel's last state, so diagnostics never sees it.
        launch = (2.0**340, 2.0**-29, -(2.0**325), 0.0)
        m, dt = 2.0**928, 2.0**9
        state = OrbitState(PlanarVector(*launch[:2]), PlanarVector(*launch[2:]))
        traj = integrate(state, CentralField(m), SimConfig(dt=dt, steps=64, record_every=2))
        assert (traj.x[-1], traj.y[-1]) == (0.0, 2.0**-29)
        t, x, y, vx, vy, collided, (_, last) = kernel.propagate_kernel(
            *launch, m, dt, 65, 2, simulator.COLLISION_RADIUS)
        assert collided == -1 and len(t) == len(traj) == 33
        assert np.isfinite([t, x, y, vx, vy]).all() and not np.isfinite(last).all()
        with pytest.raises(DomainError, match="left the double range"):
            integrate(state, CentralField(m), SimConfig(dt=dt, steps=65, record_every=2))

    @pytest.mark.parametrize("record_every", [7, 400, 5000])
    def test_decimated_report_has_the_full_record_turning_points(self, record_every):
        config = SimConfig(dt=1e-4, steps=130000)
        full = diagnostics(integrate(CANONICAL, UNIT_FIELD, config)).as_dict()
        decimated = SimConfig(dt=1e-4, steps=130000, record_every=record_every)
        got = diagnostics(integrate(CANONICAL, UNIT_FIELD, decimated)).as_dict()
        for key in ("observed_periapsis", "observed_apoapsis", "observed_period"):
            assert got[key] == full[key] is not None
        assert got["max_swept_area_deviation"] is None

    def test_json_field_names(self):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-4, steps=1000))
        d = diagnostics(traj).as_dict()
        assert list(d) == [
            "max_swept_area_deviation", "Q_drift", "C_drift", "csc2_max_residual",
            "observed_periapsis", "observed_apoapsis", "observed_period",
        ]

    def test_coarse_orbit_periapsis_is_not_negative(self, capsys, tmp_path):
        # About 9 steps an orbit: the parabola through the samples of a
        # window around a sign change of x vx + y vy once put its vertex 17
        # steps away, at r = -0.44387334731944783.
        argv = ["simulate", "--m", "1", "--r0", "1", "--v0", "0.8389062106290952",
                "--alpha0", "91.59728861639225", "--dt", "0.5077498637989705",
                "--steps", "20000", "--decimate", "100", "--out", str(tmp_path / "x.csv")]
        assert cli.main(argv) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["observed_periapsis"] <= report["observed_apoapsis"]

    @pytest.mark.parametrize("r, want", [
        # the vertex lies between the samples: refined
        ([2.0, 1.0, 2.0], (1.0, 1.0)),
        ([3.0, 1.0, 2.0], (1.1666666666666667, 0.9583333333333334)),
        ([1.0, 2.0, 1.5], (1.1666666666666667, 2.0208333333333335)),
        # one sample farther out (|delta| > 1): the sample
        ([4.0, 2.0, 1.0], (1.0, 2.0)),
        ([1.0, 1.5, 1.75], (1.0, 1.5)),
        # between the samples, but below r = 0: the sample
        ([10.0, 0.1, 1.0], (1.0, 0.1)),
        # three equal samples: the sample
        ([1.0, 1.0, 1.0], (1.0, 1.0)),
    ])
    def test_parabolic_vertex_does_not_extrapolate(self, r, want):
        assert _parabolic_vertex(np.array([0.0, 1.0, 2.0]), np.array(r)) == want

    def test_trajectories_compare_by_identity(self):
        config = SimConfig(dt=1e-3, steps=100)
        a, b = integrate(CANONICAL, UNIT_FIELD, config), integrate(CANONICAL, UNIT_FIELD, config)
        assert (a == b) is False and a != b
        assert a == a and len({a, b, a}) == 2


# The whole-array body of diagnostics that the blocked one replaced, kept
# as the bit-for-bit oracle.
def reference_diagnostics_body(traj):
    m = traj.field.m
    r = traj.r
    v2 = traj.vx * traj.vx + traj.vy * traj.vy
    h = traj.angular_momentum

    q = h * h
    q0 = q[0]
    if not q0 > 0.0:
        if not is_radial(traj.state(0)):
            raise DomainError(
                f"Q = (x vy - y vx)^2 underflows to 0 (x vy - y vx = {h[0]:g}); the launch "
                "is not radial, but the drift and swept-area checks divide by Q"
            )
        raise DegenerateOrbitError(
            f"radial trajectory (Q = {q0:g}): the drift and swept-area checks divide by Q"
        )
    q_drift = float(np.max(np.abs(q - q0)) / q0)

    c = v2 - 2.0 * m / r
    c0 = c[0]
    c_scale = max(abs(c0), 2.0 * m / r[0])
    c_drift = float(np.max(np.abs(c - c0)) / c_scale)

    csc2_obs = r * r * v2 / q
    csc2_pred = csc2_quadratic(c0 / q0, 2.0 * m / q0, r)
    csc2_res = float(np.max(np.abs(csc2_obs - csc2_pred)))

    if traj.is_decimated:
        area_dev = None
    else:
        areas = swept_areas(traj)
        area_dev = float(np.max(np.abs(areas - areas[0])) / areas[0])

    peri, apo = _turning_points(traj)
    return simulator.DiagnosticsReport(
        max_swept_area_deviation=area_dev,
        Q_drift=q_drift,
        C_drift=c_drift,
        csc2_max_residual=csc2_res,
        observed_periapsis=min(rr for _, rr in peri) if peri else None,
        observed_apoapsis=max(rr for _, rr in apo) if apo else None,
        observed_period=float(np.mean(np.diff([tt for tt, _ in peri]))) if len(peri) >= 2 else None,
    )


def diagnostics_outcome(traj, body=None):
    """The bits of each field of diagnostics(traj), run with `body` in place
    of the blocked one when given, or the type and message of its error."""
    try:
        with mock.patch.object(simulator, "_diagnostics", body or simulator._diagnostics):
            report = diagnostics(traj).as_dict()
    except DomainError as exc:
        return type(exc), str(exc)
    return {key: None if value is None else value.hex() for key, value in report.items()}


def with_columns(traj, **columns):
    """traj with some of t, x, y, vx and vy replaced, and its windows."""
    fields = {name: getattr(traj, name) for name in ("t", "x", "y", "vx", "vy")}
    return Trajectory(**{**fields, **columns}, field=traj.field, config=traj.config,
                      windows=traj.windows)


B = _DIAGNOSTICS_BLOCK


class TestBlockedDiagnostics:
    """diagnostics takes its maxima _DIAGNOSTICS_BLOCK samples at a time;
    its report and its errors are those of the whole-array version."""

    def assert_matches_reference(self, traj):
        got = diagnostics_outcome(traj)
        assert got == diagnostics_outcome(traj, reference_diagnostics_body)
        return got

    @pytest.mark.parametrize("samples", [10, B - 1, B, B + 1, 2 * B + 1, 3 * B])
    def test_matches_reference_across_blocks(self, samples):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=5e-4, steps=samples - 1))
        assert len(traj) == samples
        got = self.assert_matches_reference(traj)
        assert got["max_swept_area_deviation"] is not None

    @pytest.mark.parametrize("samples", [B, B + 1, 2 * B + 1])
    def test_matches_reference_decimated(self, samples):
        config = SimConfig(dt=1e-4, steps=7 * (samples - 1), record_every=7)
        traj = integrate(CANONICAL, UNIT_FIELD, config)
        assert len(traj) == samples
        assert self.assert_matches_reference(traj)["max_swept_area_deviation"] is None

    @pytest.mark.parametrize("at", [0, B - 1, B, 2 * B])
    def test_largest_deviation_in_any_block(self, at):
        # a kick to one sample sets every maximum there, in whichever block
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=5e-4, steps=2 * B))
        vx = traj.vx.copy()
        vx[at] *= 1.5
        self.assert_matches_reference(with_columns(traj, vx=vx))

    def test_radial_launch(self):
        radial = OrbitState(PlanarVector(1.0, 0.0), PlanarVector(0.5, 0.0))
        traj = integrate(radial, UNIT_FIELD, SimConfig(dt=1e-5, steps=B + 5))
        got = self.assert_matches_reference(traj)
        assert got[0] is DegenerateOrbitError and "radial" in got[1]

    def test_underflowing_q(self):
        traj = integrate(make_state(1.0, 1.0, 1e-320), UNIT_FIELD,
                         SimConfig(dt=1e-5, steps=B + 5))
        got = self.assert_matches_reference(traj)
        assert got[0] is DomainError and "underflows" in got[1]

    def test_overflow(self):
        traj = integrate(CANONICAL, CentralField(1e300), SimConfig(dt=1e-3, steps=B + 5))
        got = self.assert_matches_reference(traj)
        assert got[0] is DomainError and "double range" in got[1]

    @pytest.mark.parametrize("launch", [CANONICAL, OrbitState(PlanarVector(1.0, 0.0),
                                                              PlanarVector(0.5, 0.0))],
                             ids=["canonical", "radial"])
    def test_overflow_in_a_later_block(self, launch):
        # v^2 overflows only in the last block; on a radial launch that
        # overflow is reported before the radial launch, as on whole arrays
        traj = integrate(launch, UNIT_FIELD, SimConfig(dt=1e-5, steps=2 * B))
        vx = traj.vx.copy()
        vx[-1] = 1e200
        got = self.assert_matches_reference(with_columns(traj, vx=vx))
        assert got[0] is DomainError and "double range" in got[1]

    def test_memory_is_one_block(self):
        # 200k samples: the whole-array version made about ten 1.6 MB
        # temporaries at once
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-4, steps=199_999))
        tracemalloc.start()
        try:
            diagnostics(traj)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024


# The turning points of a full record: the turns of x^2 + y^2 over every
# recorded sample, each refined with its two neighbours.  The oracle for
# the turning points that diagnostics reads off the kernel's windows.
def reference_apsis_events(traj):
    r2 = (traj.x * traj.x + traj.y * traj.y).tolist()
    peri = []
    apo = []
    for j in r2_turns(r2):
        event = _parabolic_vertex(traj.t[j - 1:j + 2], traj.r[j - 1:j + 2])
        (peri if r2[j] < r2[j + 1] else apo).append(event)
    return peri, apo


def full_and_decimated(state, field, dt, steps, record_every):
    full = integrate(state, field, SimConfig(dt=dt, steps=steps))
    decimated = integrate(state, field, SimConfig(dt=dt, steps=steps, record_every=record_every))
    return full, decimated


# CANONICAL with dt = 1e-3 over 12289 steps: r^2 turns at the states
# j = 2068, 5207, 8346 and 11486.  With a quarter of that dt over four times
# the steps, at j = 8280, 20844, 33408 and 45972.
EDGE_DT = 1e-3
EDGE_STEPS = 12289

# A coarse launch whose r^2 turns three times in six steps, at the states
# 69, 72 and 75: recorded every 3rd step, before the kernel recorded
# windows, the decimated run found 1 of the full record's 2 periapsides.
TWO_TURNS_IN_AN_INTERVAL = (
    OrbitState(PlanarVector(1.2427403968116277, 0.0),
               PlanarVector(0.5251474112177319, 0.2392631544392536)),
    CentralField(1.341881246088198), 0.03531294176979037, 1887, 3,
)


class TestDecimatedTurningPoints:
    """diagnostics reads the turning points of a decimated trajectory off the
    kernel's windows; they must be those of a full record."""

    def test_two_turns_in_one_recorded_interval(self):
        full, decimated = full_and_decimated(*TWO_TURNS_IN_AN_INTERVAL)
        want = reference_apsis_events(full)
        assert len(want[0]) == 2
        assert _turning_points(decimated) == want
        assert diagnostics(decimated).observed_period == diagnostics(full).observed_period

    def test_simulate_prints_the_full_record_period(self, capsys, tmp_path):
        # One orbit takes about 73 steps, and r^2 turns twice within some
        # intervals of 5 steps.
        argv = ["simulate", "--m", "1", "--r0", "1", "--v0", "0.32", "--alpha0", "57",
                "--dt", "0.03", "--steps", "2000", "--out", str(tmp_path / "x.csv")]
        periods = []
        for every in ("5", "1"):
            assert cli.main(argv + ["--decimate", every]) == cli.EXIT_OK
            periods.append(json.loads(capsys.readouterr().out)["observed_period"])
        assert periods == [2.2052200453368025] * 2

    @settings(max_examples=100, deadline=None)
    @given(
        x=st.floats(0.5, 2.0), vx=st.floats(-1.5, 1.5), vy=st.floats(0.2, 1.5),
        m=st.floats(0.5, 2.0), dt=st.floats(4e-3, 0.05), steps=st.integers(50, 3000),
        record_every=st.one_of(st.sampled_from([2, 7]), st.integers(2, 600),
                               st.integers(3001, 10**4)),
    )
    def test_equals_full_record_on_every_draw(self, x, vx, vy, m, dt, steps, record_every):
        state = OrbitState(PlanarVector(x, 0.0), PlanarVector(vx, vy))
        try:
            full, decimated = full_and_decimated(state, CentralField(m), dt, steps, record_every)
        except (CollisionError, DomainError):
            assume(False)
        assert _turning_points(decimated) == reference_apsis_events(full)

    def test_full_record_matches_reference(self):
        full = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=EDGE_DT, steps=EDGE_STEPS))
        assert _turning_points(full) == reference_apsis_events(full)
        assert [len(events) for events in reference_apsis_events(full)] == [2, 2]

    @pytest.mark.parametrize("record_every", [2, 7, 4096, 4097])
    @pytest.mark.parametrize("extra", [0, 1], ids=["steps%R=0", "steps%R=1"])
    def test_matches_full_record(self, record_every, extra):
        dt = EDGE_DT / 4
        steps = record_every * -(-4 * EDGE_STEPS // record_every) + extra
        assert steps % record_every == extra
        full, decimated = full_and_decimated(CANONICAL, UNIT_FIELD, dt, steps, record_every)
        want = reference_apsis_events(full)
        assert [len(events) for events in want] == [2, 2]
        assert _turning_points(decimated) == want

    @pytest.mark.parametrize("record_every", [2500, 3000])
    def test_turning_point_in_first_interval(self, record_every):
        # the apoapsis at step 2068 precedes the first recorded state after 0
        full, decimated = full_and_decimated(CANONICAL, UNIT_FIELD, EDGE_DT, EDGE_STEPS,
                                             record_every)
        got = _turning_points(decimated)
        assert got == reference_apsis_events(full)
        assert got[1][0][0] < decimated.t[1]

    def test_turning_point_in_tail(self):
        # The apoapsis at state 8346 lies after the last recorded state
        # (state 8344), in the unrecorded tail.
        steps, record_every = 8350, 4172
        full, decimated = full_and_decimated(CANONICAL, UNIT_FIELD, EDGE_DT, steps, record_every)
        got = _turning_points(decimated)
        assert got == reference_apsis_events(full)
        assert got[1][-1][0] > decimated.t[-1]

    @pytest.mark.parametrize("record_every, dt, steps", [
        # turning points on a recorded state, at j = 2068 and 5207
        (2068, EDGE_DT, EDGE_STEPS),
        (1034, EDGE_DT, EDGE_STEPS),
        (127, EDGE_DT, EDGE_STEPS),
        # recorded states one step before or after a turning point
        (2067, EDGE_DT, EDGE_STEPS),
        (2069, EDGE_DT, EDGE_STEPS),
        (2603, EDGE_DT, EDGE_STEPS),
        (2604, EDGE_DT, EDGE_STEPS),
        # the same at a quarter of the dt, at j = 8280 and 20844: on each
        # turning point, and one step after the first
        (8280, EDGE_DT / 4, 4 * EDGE_STEPS),
        (10422, EDGE_DT / 4, 4 * EDGE_STEPS),
        (8281, EDGE_DT / 4, 4 * EDGE_STEPS),
    ])
    def test_turning_point_next_to_a_recorded_state(self, record_every, dt, steps):
        full, decimated = full_and_decimated(CANONICAL, UNIT_FIELD, dt, steps, record_every)
        assert _turning_points(decimated) == reference_apsis_events(full)

    @pytest.mark.parametrize("steps", [1, 4, 18, 19, 28, 29])
    def test_turning_point_at_the_ends_of_the_run(self, steps):
        # On TURNING r^2 turns at the states 3, 11, 18, 21, 24, 26 and 28.
        # Runs of 18 and 28 steps end on a vertex with no neighbour after
        # it, which neither the windows nor the full record count; runs of
        # 4, 19 and 29 steps end one step after a vertex, which both count,
        # and a run of 1 step has none.
        state = OrbitState(PlanarVector(*TURNING[:2]), PlanarVector(*TURNING[2:4]))
        field, dt = CentralField(TURNING[4]), TURNING[5]
        full = integrate(state, field, SimConfig(dt=dt, steps=steps))
        assert _turning_points(full) == reference_apsis_events(full)

    def test_hand_built_trajectory_without_windows_rejected(self):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-3, steps=EDGE_STEPS))
        bare = Trajectory(t=traj.t, x=traj.x, y=traj.y, vx=traj.vx, vy=traj.vy,
                          field=traj.field, config=traj.config)
        assert bare.windows is None
        with pytest.raises(DomainError, match="windows"):
            diagnostics(bare)

    def test_reruns_call_the_kernel_as_traced(self, monkeypatch):
        # A benchmark wraps simulator._kernel.propagate_kernel, reads the
        # step count as args[6] and the first six results: integrate makes
        # one call with the first nine arguments by position and max_windows
        # by keyword, which returns seven results, and diagnostics makes none.
        calls = []
        kernel = simulator._kernel.propagate_kernel

        def spy(*args, **kwargs):
            result = kernel(*args, **kwargs)
            calls.append((len(args), tuple(kwargs), len(result)))
            return result

        monkeypatch.setattr(simulator._kernel, "propagate_kernel", spy)
        config = SimConfig(dt=EDGE_DT, steps=EDGE_STEPS, record_every=1000)
        traj = integrate(CANONICAL, UNIT_FIELD, config)
        assert calls == [(9, ("max_windows",), 7)]
        assert diagnostics(traj).observed_period is not None
        assert len(calls) == 1

    def test_decimated_diagnostics_hold_bounded_memory(self):
        # About 1.3 orbits recorded every 20 000th step, 11 samples: one
        # full-resolution record of the run would take 5 x 8 x 200 003
        # bytes = 8 MB; the windows and the samples take a few kB.
        dt = 2068 * EDGE_DT / 150_000
        steps, record_every = 200_003, 20_000
        config = SimConfig(dt=dt, steps=steps, record_every=record_every)
        tracemalloc.start()
        try:
            decimated = integrate(CANONICAL, UNIT_FIELD, config)
            got = diagnostics(decimated)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024
        full = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=dt, steps=steps))
        want = reference_apsis_events(full)
        assert _turning_points(decimated) == want
        assert want[1] and got.observed_apoapsis == max(r for _, r in want[1])


class TestTrajectoryConicAgreement:
    def _max_radial_deviation(self, dt):
        steps = int(round(2 * math.pi / dt))
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=dt, steps=steps))
        sol = solve_orbit(CANONICAL, UNIT_FIELD)
        e = sol.shape.eccentricity
        ell = sol.shape.semi_latus_rectum
        # eccentricity vector gives the periapsis direction in the sim frame
        p0, v0 = CANONICAL.position, CANONICAL.velocity
        r0 = p0.norm()
        ex = (v0.dot(v0) - 1.0 / r0) * p0.x - p0.dot(v0) * v0.x
        ey = (v0.dot(v0) - 1.0 / r0) * p0.y - p0.dot(v0) * v0.y
        e_norm = math.hypot(ex, ey)
        r = traj.r
        cos_f = (traj.x * ex + traj.y * ey) / (r * e_norm)
        r_conic = ell / (1.0 + e * np.clip(cos_f, -1.0, 1.0))
        return float(np.max(np.abs(r - r_conic)))

    def test_samples_lie_on_solved_conic(self):
        assert self._max_radial_deviation(1e-4) < 1e-3

    def test_deviation_shrinks_with_dt(self):
        assert self._max_radial_deviation(5e-5) < self._max_radial_deviation(1e-4)


class TestEnergyAreaAlongTrajectory:
    def test_v2_change_matches_closed_form(self):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-4, steps=120000))
        r = traj.r
        v2 = traj.vx**2 + traj.vy**2
        # monotone outward arc: launch (alpha=60 deg) to first apoapsis
        k_apo = int(np.argmax(r[:70000]))
        idx = np.arange(0, k_apo, 500)
        lhs = v2[idx] - v2[0]
        rhs = 2.0 * (1.0 / r[idx] - 1.0 / r[0])
        assert np.max(np.abs(lhs - rhs)) < 1e-3

    def test_boundedness_matches_classification(self):
        # C < 0 stays within apoapsis + delta; C > 0 exceeds any fixed radius
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-3, steps=20000))
        assert traj.r.max() < 1.5 + 1e-2
        hyper = make_state(1.0, 2.0, 45.0)
        traj = integrate(hyper, UNIT_FIELD, SimConfig(dt=1e-3, steps=20000))
        assert traj.r.max() > 20.0


def exponent_and_digits(value):
    """The decimal exponent X and the significant digit count of
    "%.17g" % value, read off "%.16e", which rounds alike."""
    mantissa, exponent = ("%.16e" % value).split("e")
    return int(exponent), len(mantissa.lstrip("-").replace(".", "").rstrip("0"))


def every_exponent():
    # the doubles nearest 1, 2.5, 4.94... and 9.87... times 10^X that keep X
    kept = []
    for x in range(-324, 309):
        for mantissa in ("1", "2.5", "4.9406564584124654", "9.8765432109876543"):
            value = float(f"{mantissa}e{x}")
            if 0.0 < value < math.inf and exponent_and_digits(value)[0] == x:
                kept.append(value)
    return kept


def every_digit_count():
    # the doubles nearest the first n digits of 12345678912345678 at a
    # spread of exponents, where "%.17g" keeps those n digits
    kept = []
    for n in range(1, 18):
        digits = "12345678912345678"[:n]
        for x in (-310, -300, -20, -5, -4, -1, 0, 3, 15, 16, 17, 22, 300):
            value = float(f"{digits[0]}.{digits[1:]}e{x}")
            if exponent_and_digits(value)[1] == n:
                kept.append(value)
    return kept


class TestCsvExport:
    def test_header_and_shape(self):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-3, steps=10))
        buf = io.BytesIO()
        traj.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == CSV_HEADER.encode()
        assert len(lines) == 12
        assert all(len(line.split(b",")) == 8 for line in lines[1:])

    def test_round_trip_precision(self):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-3, steps=10))
        buf = io.BytesIO()
        traj.write_csv(buf)
        row = buf.getvalue().splitlines()[5].split(b",")
        assert float(row[1]) == traj.x[4]
        assert float(row[3]) == traj.vx[4]

    def test_deterministic(self):
        out = []
        for _ in range(2):
            traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-3, steps=100))
            buf = io.BytesIO()
            traj.write_csv(buf)
            out.append(buf.getvalue())
        assert out[0] == out[1]

    # The per-value writer that write_csv replaced, kept as the byte oracle.
    @staticmethod
    def reference_csv(traj):
        buf = io.BytesIO()
        buf.write(CSV_HEADER.encode() + b"\n")
        r, v, alpha = traj.r, traj.speed, traj.alpha
        for i in range(len(traj.t)):
            row = (traj.t[i], traj.x[i], traj.y[i], traj.vx[i], traj.vy[i],
                   r[i], v[i], alpha[i])
            buf.write(",".join(f"{val:.17g}" for val in row).encode() + b"\n")
        return buf.getvalue()

    @staticmethod
    def written_csv(traj):
        buf = io.BytesIO()
        traj.write_csv(buf)
        return buf.getvalue()

    def assert_matches_reference(self, traj):
        # write_csv on the Python formatter, and on the C one wherever a
        # compiler is present (an import error fails the test).
        want = self.reference_csv(traj)
        for module in [_propagate_py, *([c_kernel()] if compiler_present() else [])]:
            with mock.patch.object(simulator, "_kernel", module):
                assert self.written_csv(traj) == want, module.__name__

    # write_csv derives r, v and alpha chunk by chunk; the reference takes
    # them from the whole-array properties.  Row counts at the edges of the
    # first four chunks, and at the edges of the 512-row blocks it used
    # before, now inside the first chunk.
    @pytest.mark.parametrize("rows", [
        1, 511, 512, 513, CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1,
        2 * CSV_CHUNK - 1, 2 * CSV_CHUNK, 2 * CSV_CHUNK + 1, 4 * CSV_CHUNK + 1,
    ])
    def test_matches_reference_across_blocks(self, rows):
        full = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-3, steps=4 * CSV_CHUNK))
        traj = Trajectory(*(col[:rows] for col in (full.t, full.x, full.y, full.vx, full.vy)),
                          field=UNIT_FIELD, config=full.config)
        assert len(traj) == rows
        self.assert_matches_reference(traj)

    def test_export_memory_is_one_block(self):
        # 200k rows: the whole-array r, v and alpha columns took 4.8 MB and
        # peaked at 8 MB; a block of rows and its text take well under 1 MB,
        # and so do the two ranges of a split export.
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-4, steps=199_999))

        class NullSink:
            def write(self, text):
                pass

        tracemalloc.start()
        try:
            traj.write_csv(NullSink())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024

    def test_matches_reference_decimated(self):
        traj = integrate(CANONICAL, UNIT_FIELD,
                         SimConfig(dt=1e-3, steps=6 * CSV_CHUNK, record_every=7))
        self.assert_matches_reference(traj)

    # glibc prints a NaN with its sign bit set as "-nan"; CPython as "nan".
    NEGATIVE_NAN = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000000))[0]

    EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                   2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
                   -1.7976931348623157e308, math.inf, -math.inf, math.nan, NEGATIVE_NAN,
                   1.0, -0.1]

    # Doubles whose 18-digit decimal ends in 5 at the 18th digit, so %.17g
    # rounds a tie (to even): k/4 with odd k in [4e15, 9e15), as
    # 1000000000000000.25, and k/8 with odd k in [8e14, 8e15), as
    # 100000000000000.125.  Each k is below 2**53, so k/4 and k/8 are exact.
    TIES = st.one_of(
        st.integers(2 * 10**15, 9 * 10**15 // 2 - 1).map(lambda j: (2 * j + 1) / 4),
        st.integers(4 * 10**14, 4 * 10**15 - 1).map(lambda j: (2 * j + 1) / 8),
    )

    # The ends of both tie families, values inside them, and the largest
    # k/4 tie, (2**53 - 1) / 4, with both signs.
    TIE_VALUES = [sign * value for sign in (1.0, -1.0) for value in [
        (4 * 10**15 + 1) / 4, (4 * 10**15 + 3) / 4, (9 * 10**15 - 1) / 4, (2**53 - 1) / 4,
        (8 * 10**14 + 1) / 8, (8 * 10**14 + 3) / 8, 123456789012345.625, (8 * 10**15 - 1) / 8,
    ]]

    # A value for each branch of the fast path in csv_rows (digits17 and
    # write_g in _kick_drift.c), X being the decimal exponent of the
    # rounded value, and the branch it reaches.
    BRANCH_VALUES = [
        123.456, -2.5, 4.35,           # fixed notation, 0 <= X < 17
        12345678901234568.0,           # fixed, X = 16: 17 digits and no point
        0.1, -0.00012345678901234567,  # fixed with X < 0: "0." and -X - 1 zeros
        1e-7, -9.999999999999999e-5,   # exponent notation, X < -4
        1e17, 6.02214076e23, -1e22,    # exponent notation, X >= 17
        1.7976931348623157e308, 1e-300,  # three exponent digits
        5e-324, -2.2250738585072014e-308 / 3,  # subnormal: f is shifted up to 2^63
        10.0, 1000.0,                  # 10^X, first estimated as X - 1: scaled again
        1e-14, 1e98,                   # the 17 digits round up to 10^17: X + 1
        1.3076622631878654e65,         # 1/2 + 3.7e-20 units past 17 digits: snprintf
        1000000000000000.25,           # an exact tie: snprintf
    ]

    # The double nearest each power of ten from 1e-322 to 1e308 and the three
    # on either side, of both signs: where the exponent is first estimated
    # one low, and where the 17 digits round up to 10^17.
    NEAR_POWERS_OF_TEN = [sign * value for sign in (1.0, -1.0) for value in (
        np.array([float(f"1e{k}") for k in range(-322, 309)]).view(np.int64)[:, None]
        + np.arange(-3, 4)).view(np.float64).ravel().tolist()]

    # For every decimal exponent X from -324 (5e-324) to 308 (DBL_MAX), the
    # doubles nearest a few mantissas times 10^X that keep X, of both signs.
    EXPONENT_VALUES = [sign * value for sign in (1.0, -1.0) for value in every_exponent()]

    # For each digit count from 1 to 17, doubles whose "%.17g" has that
    # many significant digits, in fixed and in exponent notation, of both
    # signs.
    DIGIT_COUNT_VALUES = [sign * value for sign in (1.0, -1.0) for value in every_digit_count()]

    @staticmethod
    def rows_text(kernel, columns):
        """The text kernel.write_rows writes for the five columns."""
        stream = io.BytesIO()
        kernel.write_rows(columns, stream)
        return stream.getvalue().decode()

    @staticmethod
    def percent_17g_case(values, width=5):
        """The values, repeated to whole rows of `width`, and "%.17g" of each."""
        values = np.resize(np.array(values, dtype=np.float64), width * -(-len(values) // width))
        return values, ["%.17g" % value for value in values.tolist()]

    def assert_prints_percent_17g(self, kernel, values, want):
        # write_rows of the values, five to a row in t, x, y, vx and vy,
        # must print want in those fields and the Python export's text; a
        # failure shows the first five values that differ
        columns = [np.ascontiguousarray(col) for col in values.reshape(-1, 5).T]
        text = self.rows_text(kernel, columns)
        rows = text.splitlines()
        got = [field for row in rows for field in row.split(",")[:5]]
        assert text.endswith("\n") and len(rows) == len(columns[0]) and len(got) == len(want)
        assert [(w, g) for w, g in zip(want, got) if w != g][:5] == []
        assert kernel is _propagate_py or text == self.rows_text(_propagate_py, columns)

    # Plain cases that fail in seconds where the Hypothesis test below would
    # take minutes to shrink a wrong digit.
    @pytest.mark.parametrize("values", [EDGE_VALUES, TIE_VALUES, BRANCH_VALUES,
                                        NEAR_POWERS_OF_TEN, EXPONENT_VALUES, DIGIT_COUNT_VALUES],
                             ids=["edge", "ties", "branches", "near-powers-of-ten",
                                  "every-exponent", "every-digit-count"])
    def test_format_rows_prints_percent_17g(self, kernel, values):
        self.assert_prints_percent_17g(kernel, *self.percent_17g_case(values))

    def test_percent_17g_cases_cover_every_exponent_and_digit_count(self):
        exponents = {exponent_and_digits(v)[0] for v in self.EXPONENT_VALUES}
        assert exponents == set(range(-324, 309))
        counts = {(digits, -4 <= x < 17, v < 0.0)
                  for v in self.DIGIT_COUNT_VALUES for x, digits in [exponent_and_digits(v)]}
        assert counts == {(digits, fixed, negative) for digits in range(1, 18)
                          for fixed in (False, True) for negative in (False, True)}

    # The longest "%.17g" text, and the value whose text write_g copies
    # reach farthest past: a 17-digit integer, whose 16 digits past its
    # point are copied though it has no point.
    LONGEST = -2.2250738585072014e-308
    FARTHEST = -12345678901234568.0

    @pytest.mark.parametrize("last", [LONGEST, FARTHEST], ids=["longest", "farthest"])
    def test_format_rows_prints_percent_17g_to_the_end_of_a_block(self, kernel, last):
        # every other value of two chunks takes the most room a value can
        values = np.full(5 * 2 * CSV_CHUNK, self.LONGEST)
        values[-1] = last
        assert len("%.17g" % self.LONGEST) == 24
        self.assert_prints_percent_17g(kernel, *self.percent_17g_case(values))

    @requires_c
    @pytest.mark.parametrize("last", [LONGEST, FARTHEST], ids=["longest", "farthest"])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_csv_rows_writes_nothing_past_its_slack_percent_17g(self, last, rows):
        # csv_rows may write past its text, but not past rows * _ROW_BYTES
        # + _SLACK bytes; a guard of 0xAA bytes follows those here
        module = c_kernel()
        columns = [np.full(rows, self.LONGEST) for _ in range(7)] + [np.full(rows, last)]
        size = rows * module._ROW_BYTES + module._SLACK
        out = np.full(size + 64, 0xAA, dtype=np.uint8)
        written = module._csv_rows((ctypes.c_void_p * 8)(*(col.ctypes.data for col in columns)),
                                   rows, out.ctypes.data, module._POW10.ctypes.data,
                                   module._POW10_MIN, module._POW10_MAX)
        assert bytes(out[:written]).decode() == _propagate_py.format_rows(columns)
        assert (out[size:] == 0xAA).all()

    # mul_64x64 in _kick_drift.c takes its product from 32-bit halves where
    # the compiler has no 128-bit integer, as on 32-bit targets: a build
    # with __SIZEOF_INT128__ undefined runs that path here.
    @requires_c
    def test_csv_rows_from_32_bit_halves_prints_percent_17g(self, tmp_path):
        module = c_kernel()
        library = tmp_path / "kick_drift_halves.so"
        subprocess.run([*shlex.split(sysconfig.get_config_var("CC")), "-U__SIZEOF_INT128__",
                        *module._FLAGS, "-o", str(library), module._SOURCE, *module._LIBS],
                       check=True, capture_output=True, timeout=300)
        csv_rows = ctypes.CDLL(str(library)).csv_rows
        csv_rows.restype, csv_rows.argtypes = module._csv_rows.restype, module._csv_rows.argtypes
        for values in (module._PROBE_VALUES, self.BRANCH_VALUES, self.EXPONENT_VALUES):
            values, _ = self.percent_17g_case(values, 8)
            columns = [np.ascontiguousarray(col) for col in values.reshape(-1, 8).T]
            rows = len(columns[0])
            out = np.empty(rows * module._ROW_BYTES + module._SLACK, dtype=np.uint8)
            size = csv_rows((ctypes.c_void_p * 8)(*(col.ctypes.data for col in columns)),
                            rows, out.ctypes.data, module._POW10.ctypes.data,
                            module._POW10_MIN, module._POW10_MAX)
            assert bytes(out[:size]).decode() == _propagate_py.format_rows(columns)

    @pytest.fixture(scope="class")
    def random_bits_and_ties(self):
        rng = np.random.default_rng(20241018)
        bits = rng.integers(0, 2**64, size=2**20, dtype=np.uint64)
        ties = np.concatenate([(2 * rng.integers(2 * 10**15, 9 * 10**15 // 2, size=2**14) + 1) / 4,
                               (2 * rng.integers(4 * 10**14, 4 * 10**15, size=2**14) + 1) / 8])
        return self.percent_17g_case(np.concatenate([bits.view(np.float64), ties, -ties]))

    def test_format_rows_prints_percent_17g_of_random_bits_and_ties(self, kernel,
                                                                    random_bits_and_ties):
        self.assert_prints_percent_17g(kernel, *random_bits_and_ties)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_matches_reference_on_edge_values(self, data):
        n = data.draw(st.integers(1, 4 * CSV_CHUNK + 3))
        # A small drawn pool tiled over the 5 x n cells by a drawn seed:
        # drawing every cell would exceed Hypothesis's data budget.
        tie = st.tuples(self.TIES, st.sampled_from([1.0, -1.0])).map(lambda pair: pair[0] * pair[1])
        value = st.one_of(st.sampled_from(self.EDGE_VALUES), tie, st.floats())
        pool = np.array(data.draw(st.lists(value, min_size=1, max_size=64)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        cols = list(pool[rng.integers(0, len(pool), size=(5, n))])
        traj = Trajectory(*cols, field=UNIT_FIELD,
                          config=SimConfig(dt=1e-3, steps=max(n - 1, 1)))
        with np.errstate(all="ignore"):  # r, v, alpha of inf/nan columns
            self.assert_matches_reference(traj)

    def test_ties_round_to_even(self, kernel):
        # The 17th digit of each value is followed by exactly 5.
        columns = [np.array([1000000000000000.25, 1000000000000000.75,
                             -100000000000000.125])] * 5
        text = self.rows_text(kernel, columns)
        assert [row.split(",")[:5] for row in text.splitlines()] == [
            ["1000000000000000.2"] * 5, ["1000000000000000.8"] * 5, ["-100000000000000.12"] * 5]
        assert text == self.rows_text(_propagate_py, columns)

    @pytest.mark.parametrize("t_len, other_len", [(5, 3), (3, 5)])
    def test_columns_of_unequal_length_rejected_before_writing(self, kernel, t_len, other_len):
        # zip used to drop the rows past the shortest column without a word.
        cols = [np.arange(t_len, dtype=float)] + [np.ones(other_len)] * 4
        traj = Trajectory(*cols, field=UNIT_FIELD, config=SimConfig(dt=1e-3, steps=4))
        buf = io.BytesIO()
        with pytest.raises(DomainError, match="one length"):
            traj.write_csv(buf)
        assert buf.getvalue() == b""

    # A column NumPy cannot convert to float64 is refused before the header;
    # a complex one is refused rather than cut to its real parts.
    @pytest.mark.parametrize("column", [
        np.array(["0.5", "x"]), np.array([0.5, 1 + 2j]), np.array([0.5, 1 + 2j], dtype=object),
    ], ids=["str", "complex", "object-complex"])
    def test_columns_that_are_not_real_numbers_rejected_before_writing(self, kernel, column):
        cols = [np.zeros(2), column, np.ones(2), np.ones(2), np.zeros(2)]
        traj = Trajectory(*cols, field=UNIT_FIELD, config=SimConfig(dt=1e-3, steps=1))
        buf = io.BytesIO()
        with pytest.raises(DomainError, match="real numbers"):
            traj.write_csv(buf)
        assert buf.getvalue() == b""

    def test_columns_of_other_dtypes_write_their_float64_values(self, kernel):
        cols = [np.array([1, 2**60 + 1]), np.array([0.1, -2.5], dtype=np.float32),
                np.array([0.5, 0.25])[::-1], np.ones(2), np.zeros(2)]
        traj = Trajectory(*cols, field=UNIT_FIELD, config=SimConfig(dt=1e-3, steps=1))
        with np.errstate(all="ignore"):
            as_float64 = Trajectory(*(np.array(col, dtype=np.float64) for col in cols),
                                    field=UNIT_FIELD, config=traj.config)
            assert self.written_csv(traj) == self.reference_csv(as_float64)

    # Columns that are views of a longer array, from past its start, and
    # empty: the C export reads each from its own address.
    @requires_c
    @pytest.mark.parametrize("start, stop", [
        (0, 3), (0, 1000), (2, 3), (3, 3), (4, 2), (-2, 100), (-100, 1), (7, 9),
    ])
    def test_c_formatter_slices_rows_as_python(self, start, stop):
        columns = [(np.arange(5.0) * (k + 1) / 3)[start:stop] for k in range(5)]
        assert self.rows_text(c_kernel(), columns) == self.rows_text(_propagate_py, columns)

    # The columns the C formatter cannot read, one bad column beside good
    # ones, or the wrong count: write_rows refuses them before any row.
    @requires_c
    @pytest.mark.parametrize("columns", [
        [np.ones(3)] * 7,
        [np.ones(3)] * 4 + [np.ones(4)],
        [np.ones(3)] * 4 + [np.ones(3, dtype=np.float32)],
        [np.ones(3)] * 4 + [np.ones(6)[::2]],
        [np.ones(3)] * 4 + [np.ones((3, 1))],
        [np.ones(3)] * 4 + [[1.0, 1.0, 1.0]],
    ], ids=["seven", "unequal", "float32", "strided", "2-d", "list"])
    def test_c_formatter_rejects_columns_it_cannot_read(self, columns):
        stream = io.BytesIO()
        with pytest.raises(ValueError, match="columns"):
            c_kernel().write_rows(columns, stream)
        assert stream.getvalue() == b""

    # write_rows hands C the columns' addresses, so this check is its memory
    # guard: a first column longer than another would be read past the end.
    @requires_c
    @pytest.mark.parametrize("columns", [
        [np.ones(3)] * 4,
        [np.ones(3)] * 6,
        [np.ones(4)] + [np.ones(3)] * 4,
        [np.ones(3)] * 4 + [np.ones(4)],
        [np.ones(3)] * 4 + [np.ones(3, dtype=np.float32)],
        [np.ones(3)] * 4 + [np.ones(6)[::2]],
        [np.ones(3)] * 4 + [np.ones(3)[::-1]],
        [np.ones(3)] * 4 + [np.ones((3, 1))],
        [np.ones(3)] * 4 + [[1.0, 1.0, 1.0]],
    ], ids=["four", "six", "first-longer", "unequal", "float32", "strided", "reversed", "2-d",
            "list"])
    def test_c_export_rejects_columns_it_cannot_read(self, columns):
        stream = io.BytesIO()
        with pytest.raises(ValueError, match="columns"):
            c_kernel().write_rows(columns, stream)
        assert stream.getvalue() == b""


# States with r*v = 0: at rest, at the center, both with zeros of both
# signs, and with subnormal coordinates whose r*v underflows to 0.
AT_REST_OR_CENTER = [(1.0, 2.0, 0.0, 0.0), (0.0, 0.0, 1.0, 1.0), (-0.0, 0.0, -0.0, -0.0),
                     (-3.0, 0.5, -0.0, 0.0), (0.0, -0.0, -2.0, 0.25),
                     (5e-324, -5e-324, 3e-320, 1e-310)]

# Parallel and antiparallel states whose cosine rounds to 1 + 2^-52 and
# -(1 + 2^-52) before the clip.
PAST_ONE = [(0.7, 0.1, 0.7, 0.1), (0.7, 0.1, -0.7, -0.1)]

# Coordinates of every kind derive_columns meets: zeros of both signs,
# subnormals, the smallest normal, ordinary values, values near DBL_MAX
# whose squares overflow while their hypot does not, DBL_MAX, +-inf and NaN.
DERIVE_EDGES = [0.0, -0.0, 5e-324, -3e-320, 2.2250738585072014e-308, 0.7, -0.1, 3.0,
                1e308, -1.2e308, 1.7976931348623157e308, math.inf, -math.inf, math.nan]


def export_rows(kernel, x, y, vx, vy):
    """The CSV rows kernel.write_rows writes for the states (x, y, vx, vy)
    at t = 0."""
    states = [np.ascontiguousarray(col, dtype=np.float64) for col in (x, y, vx, vy)]
    return TestCsvExport.rows_text(kernel, [np.zeros(len(states[0])), *states]).splitlines()


class TestDeriveColumns:
    """derive_columns, the r, v and alpha columns of the CSV export: the C
    copy and NumPy's arccos against the NumPy twin, through the bytes of
    the export they feed, and NaN alpha with no warning where r*v is 0."""

    @staticmethod
    def assert_same_bytes(x, y, vx, vy):
        # the C and Python export rows of the states at t = 0; a failure
        # shows the first five states whose rows differ
        got, want = (export_rows(module, x, y, vx, vy) for module in (c_kernel(), _propagate_py))
        assert len(got) == len(want) == len(x)
        assert [(x[i], y[i], vx[i], vy[i])
                for i, (a, b) in enumerate(zip(got, want)) if a != b][:5] == []

    @requires_c
    def test_derive_columns_matches_numpy_on_edge_states(self):
        # every (x, y, vx, vy) of DERIVE_EDGES, the rows the clip acts on
        # and the write_rows probe's states
        grid = np.array(np.meshgrid(*[DERIVE_EDGES] * 4)).reshape(4, -1)
        self.assert_same_bytes(*grid)
        self.assert_same_bytes(*np.transpose(AT_REST_OR_CENTER + PAST_ONE))
        self.assert_same_bytes(*np.transpose(c_kernel()._DERIVE_PROBE))

    def test_derive_columns_clips_cosines_that_round_past_one(self, kernel):
        x, y, vx, vy = (np.array(col) for col in np.transpose(PAST_ONE))
        r, v = np.hypot(x, y), np.hypot(vx, vy)
        assert ((x * vx + y * vy) / (r * v)).tolist() == [1.0 + 2**-52, -1.0 - 2**-52]
        assert [row.split(",")[7] for row in export_rows(kernel, x, y, vx, vy)] == [
            "0", "%.17g" % math.pi]

    @requires_c
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.floats(), st.floats(), st.floats(), st.floats()),
        # parallel and antiparallel states, where the clip acts
        st.tuples(st.floats(-1e150, 1e150), st.floats(-1e150, 1e150),
                  st.floats(-1e150, 1e150).filter(bool)).map(
            lambda s: (s[0], s[1], s[0] * s[2], s[1] * s[2]))), min_size=1, max_size=40))
    def test_derive_columns_matches_numpy_on_drawn_states(self, states):
        self.assert_same_bytes(*np.transpose(states))

    # Both kernels run in a fresh interpreter under -W error, so a NumPy
    # warning from the export, from the alpha property or from the
    # load-time probe fails it.
    SCRIPT = """
import io, sys
import numpy as np
from polyorbit import CentralField, SimConfig, simulator, _propagate_py
from polyorbit.simulator import Trajectory
if sys.argv[1] == "c":
    assert simulator._backends["write_rows"] == ("c", None), simulator._backends
else:
    simulator._kernel = _propagate_py
t = np.arange(len(sys.argv) - 2) * 0.1
x, y, vx, vy = np.array([[float(v) for v in row.split(",")] for row in sys.argv[2:]]).T
traj = Trajectory(t, x, y, vx, vy, field=CentralField(1.0),
                  config=SimConfig(dt=0.1, steps=len(t) - 1))
buf = io.BytesIO()
traj.write_csv(buf)
sys.stdout.write(buf.getvalue().decode())
print(np.isnan(traj.alpha).all(), (traj.r == np.hypot(x, y)).all(),
      (traj.speed == np.hypot(vx, vy)).all())
"""

    @pytest.mark.parametrize("backend_name", [
        "python", pytest.param("c", marks=requires_c)])
    def test_derive_columns_at_rest_or_at_the_center_is_nan_with_no_warning(self, backend_name):
        rows = [",".join(repr(v) for v in state) for state in AT_REST_OR_CENTER]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(polyorbit.__file__)))
        done = subprocess.run([sys.executable, "-W", "error", "-c", self.SCRIPT, backend_name,
                               *rows], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0 and done.stderr == "", done.stderr
        *csv, properties = done.stdout.splitlines()
        assert csv[0] == CSV_HEADER and len(csv) == 1 + len(rows)
        assert [line.split(",")[7] for line in csv[1:]] == ["nan"] * len(rows)
        assert properties == "True True True"
