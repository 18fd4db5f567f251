"""Tests for the impulse-polygon simulator and its diagnostics."""

import contextlib
import ctypes
import ctypes.util
import importlib
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
    step,
    swept_areas,
    uniform_accel_displacement,
    uniform_accel_displacement_sum,
)
from polyorbit import _propagate_py, cli, geometry, simulator
from polyorbit.determination import is_radial
from polyorbit.geometry import csc2_quadratic
from polyorbit.simulator import (
    _CSV_BLOCK_ROWS,
    _DIAGNOSTICS_BLOCK,
    CSV_HEADER,
    MAX_SAMPLES,
    Trajectory,
    _parabolic_vertex,
    _turning_points,
)

UNIT_FIELD = CentralField(1.0)


def make_state(r0, v0, alpha_deg):
    a = math.radians(alpha_deg)
    return OrbitState(
        position=PlanarVector(r0, 0.0),
        velocity=PlanarVector(v0 * math.cos(a), v0 * math.sin(a)),
    )


CANONICAL = make_state(1.0, 1.0, 60.0)

# Radii the kernel may be given: SimConfig rejects any whose cube underflows.
RADII = [1e-9, 0.05, 0.3, 1.0, math.nextafter(sys.float_info.min ** (1 / 3), math.inf)]

# A launch where a hypot/r*r*r step and the kernel's sqrt(r2)/r2*r step
# differ in the last bit of vx.
ROUNDING_SENSITIVE = OrbitState(
    position=PlanarVector(-0.10255468462619409, 0.28669936474634045),
    velocity=PlanarVector(-0.3122066137899723, -0.2561309219401078),
)


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
        # same step index integrate(steps=1) reports
        assert exc_info.value.step == 1

    @pytest.mark.parametrize(
        "dt, collision_radius",
        [(-1e-3, 1e-9), (0.0, 1e-9), (1e-3, math.nan)],
        ids=["negative-dt", "zero-dt", "nan-radius"],
    )
    def test_bad_inputs_rejected(self, dt, collision_radius):
        with pytest.raises(DomainError):
            step(CANONICAL, UNIT_FIELD, dt, collision_radius=collision_radius)

    @pytest.mark.parametrize(
        "state, m, dt",
        [(CANONICAL, 1.0, 1e-3),
         (ROUNDING_SENSITIVE, 3.3562627079848544, 0.007187745212957374)],
        ids=["canonical", "rounding-sensitive"],
    )
    def test_matches_kernel(self, state, m, dt):
        field = CentralField(m)
        traj = integrate(state, field, SimConfig(dt=dt, steps=1))
        out = step(state, field, dt)
        assert traj.x[1] == out.position.x
        assert traj.y[1] == out.position.y
        assert traj.vx[1] == out.velocity.x
        assert traj.vy[1] == out.velocity.y


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
        # head-on with a slight transverse component so Q > 0; the step
        # length near r = 0.05 is ~0.012, so the guard disk cannot be skipped
        state = OrbitState(PlanarVector(1.0, 0.0), PlanarVector(-10.0, 1e-8))
        with pytest.raises(CollisionError) as exc_info:
            integrate(state, UNIT_FIELD, SimConfig(dt=1e-3, steps=10**4, collision_radius=0.05))
        assert exc_info.value.step > 0

    def test_non_finite_state_rejected(self):
        # the first kick m/r^3 * dt overflows to inf, and the state turns to nan
        state = make_state(1e-5, 1.0, 60.0)
        with pytest.raises(DomainError, match="not finite"):
            integrate(state, CentralField(1e300), SimConfig(dt=1e-3, steps=100))

    def test_radius_whose_cube_underflows_rejected(self, kernel):
        # r^2 * r underflows to 0 at r = 1e-110: the Python kernel raised
        # ZeroDivisionError there, and the C kernel would divide to inf.
        launch = OrbitState(PlanarVector(1e-110, 0.0), PlanarVector(0.0, 1e-300))
        with pytest.raises(DomainError, match="cube"):
            integrate(launch, UNIT_FIELD, SimConfig(dt=1e-3, steps=10, collision_radius=1e-200))
        # The smallest radius accepted: that launch collides, and one just
        # outside it divides by about float_info.min, with the same bits.
        smallest = RADII[-1]
        with pytest.raises(CollisionError):
            integrate(launch, UNIT_FIELD, SimConfig(dt=1e-3, steps=10, collision_radius=smallest))
        outside = OrbitState(PlanarVector(2 * smallest, 0.0), PlanarVector(0.0, 1e-300))
        traj = integrate(outside, UNIT_FIELD,
                         SimConfig(dt=1e-3, steps=10, collision_radius=smallest))
        want = _propagate_py.propagate_kernel(2 * smallest, 0.0, 0.0, 1e-300, 1.0, 1e-3, 10, 1,
                                              smallest)
        assert_same_bits((traj.t, traj.x, traj.y, traj.vx, traj.vy, -1, traj.windows), want)

    def test_step_cap(self):
        with pytest.raises(DomainError):
            SimConfig(dt=1e-3, steps=10**9)
        with pytest.raises(DomainError):
            SimConfig(dt=1e-3, steps=1, collision_radius=math.nan)

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
        # 7.5 MB, but past a cap of 10 000 samples the kernel keeps 2001.
        monkeypatch.setattr(simulator, "MAX_SAMPLES", 10_000)
        launch = OrbitState(PlanarVector(*COARSE[:2]), PlanarVector(*COARSE[2:4]))
        config = SimConfig(dt=COARSE[5], steps=200_000, record_every=100)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="2001 recorded samples and over 1999 "):
                integrate(launch, CentralField(COARSE[4]), config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024

    def test_windows_count_toward_the_sample_cap(self, kernel, monkeypatch):
        # 13 recorded samples and 4 windows of 4 states: 29 samples
        config = SimConfig(dt=1e-3, steps=12289, record_every=1000)
        traj = integrate(CANONICAL, UNIT_FIELD, config)
        assert (len(traj), len(traj.windows[0])) == (13, 4)
        monkeypatch.setattr(simulator, "MAX_SAMPLES", 29)
        integrate(CANONICAL, UNIT_FIELD, config)
        monkeypatch.setattr(simulator, "MAX_SAMPLES", 28)
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
        if compiler_present():
            assert simulator._kernel is c_kernel()  # an import error says why not
            assert backend() == "c"
        else:
            assert backend() == "python"
            assert simulator._kernel is _propagate_py

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
        # The C ring and residual loops are bound exactly where NumPy's
        # float64 sin, cos and hypot give libm's bits: on the probe's angles
        # and on drawn angles and pairs.
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
        numpy_is_libm = (
            np.sin(angles).tolist() == [libm.sin(x) for x in angles.tolist()]
            and np.cos(angles).tolist() == [libm.cos(x) for x in angles.tolist()]
            and np.hypot(*pairs.T).tolist() == [libm.hypot(x, y) for x, y in pairs.tolist()])
        in_c = compiled.ring_terms is not _propagate_py.ring_terms
        assert in_c == numpy_is_libm
        assert (compiled.conic_residuals is not _propagate_py.conic_residuals) == in_c

    # A compiler that cannot run, one that fails, a cache that cannot be
    # written to, and a library whose kernel records, kernel windows or CSV
    # formatter fail their probe; and a NumPy whose sin is not libm's, which
    # moves only the ring and residual loops to NumPy.
    @pytest.mark.parametrize("failure", ["no-compiler", "compile-error", "unwritable-cache",
                                         "probe-mismatch", "window-probe-mismatch",
                                         "format-probe-mismatch", "trig-probe-mismatch"])
    def test_failed_load_falls_back_to_python(self, monkeypatch, failure):
        config = SimConfig(dt=1e-3, steps=13000, record_every=7)
        want = integrate(CANONICAL, UNIT_FIELD, config)
        with monkeypatch.context() as patch:
            # a fresh import of the C kernel, built anew for any other compiler
            patch.delitem(sys.modules, "polyorbit._propagate_c", raising=False)
            patch.delattr(polyorbit, "_propagate_c", raising=False)
            cc = {"no-compiler": "/nonexistent/cc", "compile-error": "false",
                  "unwritable-cache": "true"}.get(failure)
            if cc is not None:
                config_var = sysconfig.get_config_var
                patch.setattr(sysconfig, "get_config_var",
                              lambda name: cc if name == "CC" else config_var(name))
            if failure == "unwritable-cache":
                def refuse(*args, **kwargs):
                    raise PermissionError("read-only cache")
                patch.setattr("tempfile.mkstemp", refuse)
            if failure == "probe-mismatch":
                run = _propagate_py.propagate_kernel

                def off_by_one_bit(*args, **kwargs):
                    t, *rest = run(*args, **kwargs)
                    return (np.nextafter(t, np.inf), *rest)
                patch.setattr(_propagate_py, "propagate_kernel", off_by_one_bit)
            if failure == "window-probe-mismatch":
                run = _propagate_py.propagate_kernel

                def window_off_by_one_bit(*args, **kwargs):
                    *rest, (k, states, last) = run(*args, **kwargs)
                    assert len(k)  # the probe yields a window
                    return (*rest, (k, np.nextafter(states, np.inf), last))
                patch.setattr(_propagate_py, "propagate_kernel", window_off_by_one_bit)
            if failure == "format-probe-mismatch":
                format_rows = _propagate_py.format_rows

                def signed_nan(*args):
                    return format_rows(*args).replace("nan", "-nan")
                patch.setattr(_propagate_py, "format_rows", signed_nan)
            if failure == "trig-probe-mismatch":
                sin = np.sin

                def sin_off_by_one_bit(x):
                    return np.nextafter(sin(x), np.inf)
                patch.setattr(np, "sin", sin_off_by_one_bit)
            fallback = simulator._load_kernel()
        if failure == "trig-probe-mismatch":
            self.assert_numpy_ring_and_residual_loops(monkeypatch, fallback)
        else:
            assert fallback is _propagate_py
            monkeypatch.setattr(simulator, "_kernel", fallback)
            assert backend() == "python"
        got = integrate(CANONICAL, UNIT_FIELD, config)
        for name in ("t", "x", "y", "vx", "vy"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert diagnostics(got) == diagnostics(want)

    @staticmethod
    def assert_numpy_ring_and_residual_loops(monkeypatch, loops):
        # The kernel and formatter of `loops` are C, its ring and residual
        # loops NumPy's: shell-check and geometry-check print _propagate_py's
        # bytes.
        assert loops is not _propagate_py and loops.__name__ == "polyorbit._propagate_c"
        assert loops.propagate_kernel is not _propagate_py.propagate_kernel
        assert loops.ring_terms is _propagate_py.ring_terms
        assert loops.conic_residuals is _propagate_py.conic_residuals
        printed = []
        for module in (loops, _propagate_py):
            monkeypatch.setattr(simulator, "_kernel", module)
            for argv in (["shell-check", "--a", "1", "--mass", "1", "--g", "1", "--d", "2.0",
                          "--rings", "100000"],
                         ["geometry-check", "--e", "1.5", "--ell", "0.75", "--samples", "5000"]):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                printed.append((code, out.getvalue()))
        monkeypatch.setattr(simulator, "_kernel", loops)
        assert backend() == "c"
        assert printed[:2] == printed[2:]


def assert_same_bits(got, want):
    """The records, the collision step and, where either gives them, the
    windows of two kernel results, bit for bit."""
    assert got[5] == want[5]
    for a, b in zip(got[:5], want[:5]):
        assert a.dtype == b.dtype == np.float64
        assert a.tobytes() == b.tobytes()
    if len(got) > 6 or len(want) > 6:
        (k, states, last), (want_k, want_states, want_last) = got[6], want[6]
        assert k.dtype == want_k.dtype == np.int64
        assert k.tobytes() == want_k.tobytes()
        assert states.dtype == want_states.dtype == np.float64
        assert states.shape == want_states.shape == (len(k), 4, 5)
        assert states.tobytes() == want_states.tobytes()
        assert last.dtype == want_last.dtype == np.float64
        assert last.shape == want_last.shape == (5,)
        assert last.tobytes() == want_last.tobytes()


def stepwise(x, y, vx, vy, m, dt, steps, record_every, collision_radius):
    """The Python kernel's run rebuilt from one-step runs, each from the state
    and time the one before it reached: the oracle for which states a run
    records, at which step a collision stops it, where its radial speed
    turns (a window at each k where x vx + y vy at k and at k + 1 are
    non-zero with opposite signs, holding the states k - 1 .. k + 2 of the
    run, NaN where the run has none) and which state it reaches last."""
    state = (0.0, x, y, vx, vy)
    run = [state]
    recorded = [state]
    collided = -1
    for k in range(1, steps + 1):
        one = _propagate_py.propagate_kernel(*state[1:], m, dt, 1, 1, collision_radius,
                                             t0=state[0])
        if one[5] == 1:
            collided = k
            break
        state = tuple(float(a[1]) for a in one[:5])
        run.append(state)
        if k % record_every == 0:
            recorded.append(state)
    d = [x * vx + y * vy for _, x, y, vx, vy in run]
    turns = [k for k in range(len(run) - 1)
             if d[k] < 0.0 < d[k + 1] or d[k] > 0.0 > d[k + 1]]
    outside = (math.nan,) * 5
    states = [[run[i] if 0 <= i < len(run) else outside for i in range(k - 1, k + 3)]
              for k in turns]
    windows = (np.array(turns, dtype=np.int64),
               np.array(states, dtype=np.float64).reshape(-1, 4, 5), np.array(run[-1]))
    return (*(np.array(values) for values in zip(*recorded)), collided, windows)


# Run lengths of the grids: the shortest runs, and runs of a few thousand
# steps whose last step falls on, before or after a multiple of 4096.
BLOCK_STEPS = [1, 2, 4095, 4096, 4097, 8193]

# A near-radial fall: r decreases on every step up to about step 20 000, so
# a radius just above r after step K - 1 makes the collision land on step K.
INFALL = (1.0, 0.0, -0.05, 0.02, 1.0, 5e-5)

# Steps on which the grids place a collision.
COLLIDE_AT = [1, 2, 100, 4095, 4096, 4097, 5096, 8193]


# A coarse launch whose radial speed turns between steps k and k + 1 for
# k = 0, 3, 11, 17, 21, 23, 26 and 27: runs of 1 and 28 steps end with a
# window at their last step, whose state k + 2 is NaN, and 0 starts one
# whose state k - 1 is NaN; 26 and 27 are adjacent windows.
TURNING = (0.7671199842634375, 0.0, 0.29279256832891765, 1.2182445723937887,
           6.77740972197304, 0.08644851775242246)

# Run lengths of the window grids on TURNING.
TURNING_STEPS = [1, 2, 27, 28, 29, 60]

# The CANONICAL launch at a coarse dt, which turns about every 105 steps:
# 3000 steps overflow the C kernel's first window buffer.
MANY_TURNS = (1.0, 0.0, 0.5, math.sqrt(3.0) / 2.0, 1.0, 0.03)


# A bound orbit about 9 steps long, whose radial speed turns about every 4.5
# steps for at least 4 million steps.
COARSE = (1.0, 0.0, -0.02338395238913534, 0.8385802412427391, 1.0, 0.5077498637989705)


def collision_radius_at(collide_at):
    # A radius just above r after step collide_at - 1 of INFALL.
    free = _propagate_py.propagate_kernel(*INFALL, collide_at - 1, 1, 1e-9)
    x, y = free[1][-1], free[2][-1]
    return math.sqrt(x * x + y * y) * (1.0 + 1e-12)


class TestKernelOracle:
    """The Python kernel, the oracle of the C kernel, against its own
    one-step runs; and a restart and bounded memory on both kernels."""

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
        assert got[6][0].tolist() == [k for k in (0, 3, 11, 17, 21, 23, 26, 27) if k < steps]

    @pytest.mark.parametrize("max_windows", [0, 3, 7, 8, None])
    def test_windows_past_max_windows_keep_one_more(self, max_windows):
        args = TURNING + (60, 7, 1e-9)
        got = _propagate_py.propagate_kernel(*args, max_windows=max_windows)
        want = stepwise(*args)
        (k, states, last), kept = want[6], 8 if max_windows is None else max_windows + 1
        assert_same_bits(got, want[:6] + ((k[:kept], states[:kept], last),))

    def test_windows_stop_at_a_collision(self):
        # r after step 28 of TURNING is below r at every step before it, so
        # a radius just above it stops the run on step 29: the window at 27
        # has no state 29.
        free = _propagate_py.propagate_kernel(*TURNING, 28, 1, 1e-9)
        radius = math.hypot(free[1][-1], free[2][-1]) * (1.0 + 1e-12)
        args = TURNING + (60, 1, radius)
        got = _propagate_py.propagate_kernel(*args)
        assert got[5] == 29
        assert got[6][0].tolist()[-1] == 27 and np.isnan(got[6][1][-1, 3]).all()
        assert_same_bits(got, stepwise(*args))

    @pytest.mark.parametrize("load", KERNELS)
    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(0, 8195), dt=st.floats(1e-4, 1e-2),
           record_every=st.sampled_from([1, 2, 7]))
    def test_restart_from_a_state_continues_the_run(self, load, k, dt, record_every):
        # From the state and time of step k, the kernel repeats the rest of
        # the run bit for bit: t continues the same running sum, and the
        # windows are those from step k on, without the state before k.
        propagate = load().propagate_kernel
        steps = 8195
        full = propagate(1.0, 0.0, 0.5, 0.8, 1.0, dt, steps, 1, 1e-9)
        t0, x, y, vx, vy = (float(a[k]) for a in full[:5])
        rest = propagate(x, y, vx, vy, 1.0, dt, steps - k, record_every, 1e-9, t0=t0)
        turns, states, last = full[6]
        later = turns >= k
        want_states = states[later]
        want_states[turns[later] == k, 0] = math.nan
        windows = (turns[later] - k, want_states, last)
        assert_same_bits(rest, tuple(a[k::record_every] for a in full[:5]) + (-1, windows))

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

    @pytest.mark.parametrize("max_windows", [0, 3, 7, 8, None])
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
            calls.append(args[16])  # the window buffer's capacity
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
        t0=st.one_of(st.just(0.0), st.floats(-1e3, 1e3), finite),
    )
    def test_matches_python_kernel(self, x, y, vx, vy, m, dt, steps, record_every,
                                   collision_radius, t0):
        # Launches far outside the double range's middle overflow to inf and
        # nan within a few steps; both kernels must carry the same bits.
        args = (x, y, vx, vy, m, dt, steps, record_every, collision_radius)
        assert_same_bits(self.propagate(*args, t0=t0),
                         _propagate_py.propagate_kernel(*args, t0=t0))


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
        # A straight fall in steps of exactly 2^430 lands on x = 0 at step
        # 64, where r = 2^-60 makes the kick m / r^3 * dt overflow, so every
        # state from step 65 on is not finite; recorded every 2nd step, a
        # run of 65 steps ends one step after its last recorded state.
        launch = OrbitState(PlanarVector(2.0**436, 2.0**-60), PlanarVector(-(2.0**60), 0.0))
        field = CentralField(2.0**474)
        for steps in (64, 65):
            config = SimConfig(dt=2.0**370, steps=steps, record_every=2, collision_radius=1e-19)
            traj = integrate(launch, field, config)
            assert len(traj) == 33 and np.isfinite(traj.x).all()
            if steps == 64:
                assert diagnostics(traj).observed_period is None
        with pytest.raises(DomainError, match="left the double range"):
            diagnostics(traj)

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
        # About 9 steps an orbit: the parabola through one window's samples
        # put its vertex 17 steps away, at r = -0.44387334731944783.
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
        assert _parabolic_vertex(np.array([0.0, 1.0, 2.0]), np.array(r), 1) == want

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


# The turning-point search on a full record, which reads the sign changes
# off every recorded sample: the oracle for the turning points that
# diagnostics reads off the kernel's windows.
def reference_apsis_events(traj, r):
    u = (traj.x * traj.vx + traj.y * traj.vy) / r
    n = len(r)
    peri = []
    apo = []
    sign_flip = np.nonzero(u[:-1] * u[1:] < 0.0)[0]
    for k in sign_flip:
        is_peri = u[k] < 0.0
        if is_peri:
            j = k if r[k] < r[k + 1] else k + 1
        else:
            j = k if r[k] > r[k + 1] else k + 1
        if not (1 <= j <= n - 2):
            continue
        event = _parabolic_vertex(traj.t, r, j)
        (peri if is_peri else apo).append(event)
    return peri, apo


def full_and_decimated(state, field, dt, steps, record_every):
    full = integrate(state, field, SimConfig(dt=dt, steps=steps))
    decimated = integrate(state, field, SimConfig(dt=dt, steps=steps, record_every=record_every))
    return full, decimated


# CANONICAL with dt = 1e-3 over 12289 steps: the full-record sign changes of
# the radial speed are at steps (k, k + 1) for k = 2068, 5206, 8347 and 11484,
# and the refined turning points sit at j = 2068, 5207, 8347 and 11485.  With
# a quarter of that dt over four times the steps, k = 8281, 20843, 33409 and
# 45971, and j = 8281, 20844, 33409 and 45972.
EDGE_DT = 1e-3
EDGE_STEPS = 12289

# A launch whose radial speed, recorded every 3rd step, changes sign twice
# within one recorded interval: before the kernel recorded windows, the
# decimated run found 1 of the full record's 2 periapsides.
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
        want = reference_apsis_events(full, full.r)
        assert len(want[0]) == 2
        assert _turning_points(decimated) == want
        assert diagnostics(decimated).observed_period == diagnostics(full).observed_period

    def test_simulate_prints_the_full_record_period(self, capsys, tmp_path):
        # One orbit takes about 73 steps, and the radial speed changes sign
        # twice within some intervals of 5 steps.
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
        assert _turning_points(decimated) == reference_apsis_events(full, full.r)

    def test_full_record_matches_reference(self):
        full = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=EDGE_DT, steps=EDGE_STEPS))
        assert _turning_points(full) == reference_apsis_events(full, full.r)
        assert [len(events) for events in reference_apsis_events(full, full.r)] == [2, 2]

    @pytest.mark.parametrize("record_every", [2, 7, 4096, 4097])
    @pytest.mark.parametrize("extra", [0, 1], ids=["steps%R=0", "steps%R=1"])
    def test_matches_full_record(self, record_every, extra):
        dt = EDGE_DT / 4
        steps = record_every * -(-4 * EDGE_STEPS // record_every) + extra
        assert steps % record_every == extra
        full, decimated = full_and_decimated(CANONICAL, UNIT_FIELD, dt, steps, record_every)
        want = reference_apsis_events(full, full.r)
        assert [len(events) for events in want] == [2, 2]
        assert _turning_points(decimated) == want

    @pytest.mark.parametrize("record_every", [2500, 3000])
    def test_turning_point_in_first_interval(self, record_every):
        # the apoapsis at step 2068 precedes the first recorded state after 0
        full, decimated = full_and_decimated(CANONICAL, UNIT_FIELD, EDGE_DT, EDGE_STEPS,
                                             record_every)
        got = _turning_points(decimated)
        assert got == reference_apsis_events(full, full.r)
        assert got[1][0][0] < decimated.t[1]

    def test_turning_point_in_tail(self):
        # The apoapsis sign change at step 8347 lies after the last recorded
        # state (step 8346), in the unrecorded tail.
        steps, record_every = 8350, 4173
        full, decimated = full_and_decimated(CANONICAL, UNIT_FIELD, EDGE_DT, steps, record_every)
        got = _turning_points(decimated)
        assert got == reference_apsis_events(full, full.r)
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
        # the same at a quarter of the dt, at j = 8281 and 20844
        (8281, EDGE_DT / 4, 4 * EDGE_STEPS),
        (10422, EDGE_DT / 4, 4 * EDGE_STEPS),
    ])
    def test_turning_point_next_to_a_recorded_state(self, record_every, dt, steps):
        full, decimated = full_and_decimated(CANONICAL, UNIT_FIELD, dt, steps, record_every)
        assert _turning_points(decimated) == reference_apsis_events(full, full.r)

    @pytest.mark.parametrize("steps", [1, 4, 18, 28])
    def test_turning_point_at_the_ends_of_the_run(self, steps):
        # On TURNING the vertex of the window at 0 is step 0 and that of the
        # window at 17 is step 18, so runs of 1 and 18 steps end on a vertex
        # with no neighbour on one side, which the full record skips; a run
        # of 4 steps ends one step after its vertex at 3, and one of 28
        # steps ends with the adjacent windows at 26 and 27.
        state = OrbitState(PlanarVector(*TURNING[:2]), PlanarVector(*TURNING[2:4]))
        field, dt = CentralField(TURNING[4]), TURNING[5]
        full = integrate(state, field, SimConfig(dt=dt, steps=steps))
        assert _turning_points(full) == reference_apsis_events(full, full.r)

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
        # one call with the first nine arguments by position and t0 by
        # keyword, which returns seven results, and diagnostics makes none.
        calls = []
        kernel = simulator._kernel.propagate_kernel

        def spy(*args, **kwargs):
            result = kernel(*args, **kwargs)
            calls.append((len(args), tuple(kwargs), len(result)))
            return result

        monkeypatch.setattr(simulator._kernel, "propagate_kernel", spy)
        config = SimConfig(dt=EDGE_DT, steps=EDGE_STEPS, record_every=1000)
        traj = integrate(CANONICAL, UNIT_FIELD, config)
        assert calls == [(9, ("t0", "max_windows"), 7)]
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
        want = reference_apsis_events(full, full.r)
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


class TestUniformAccel:
    def test_closed_form(self):
        assert uniform_accel_displacement(2.0, 3.0) == 9.0

    def test_zero_accel(self):
        assert uniform_accel_displacement(0.0, 5.0) == 0.0

    def test_discrete_sum_converges(self):
        approx = uniform_accel_displacement_sum(1.0, 1.0, 10**6)
        assert approx == pytest.approx(0.5, abs=1e-6)

    def test_discrete_sum_closed_form(self):
        # the partial sum equals a*T^2*N(N+1)/(2N^2)
        n = 1000
        assert uniform_accel_displacement_sum(2.0, 3.0, n) == pytest.approx(
            2.0 * 9.0 * n * (n + 1) / (2.0 * n * n), rel=1e-12
        )


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

    # write_csv derives r, v and alpha block by block; the reference takes
    # them from the whole-array properties.  Row counts at the block edges,
    # and at the edges of the 512-row blocks it used before, now inside
    # the first block.
    @pytest.mark.parametrize("rows", [
        1, 511, 512, 513, 1025,
        _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS + 1,
    ])
    def test_matches_reference_across_blocks(self, rows):
        full = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-3, steps=2 * _CSV_BLOCK_ROWS))
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
                         SimConfig(dt=1e-3, steps=3 * _CSV_BLOCK_ROWS, record_every=7))
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
    def percent_17g_case(values):
        """The values, repeated to whole rows of eight, and "%.17g" of each."""
        values = np.resize(np.array(values, dtype=np.float64), 8 * -(-len(values) // 8))
        return values, ["%.17g" % value for value in values.tolist()]

    @staticmethod
    def assert_prints_percent_17g(kernel, values, want):
        # format_rows of the values, eight to a row, must print want; a
        # failure shows the first five values that differ
        columns = [np.ascontiguousarray(col) for col in values.reshape(-1, 8).T]
        text = kernel.format_rows(columns, 0, len(columns[0]))
        got = text.replace("\n", ",").split(",")[:-1]
        assert text.count("\n") == len(columns[0]) and len(got) == len(want)
        assert [(w, g) for w, g in zip(want, got) if w != g][:5] == []

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
        # every other value of the block takes the most room a value can
        values = np.full(8 * _CSV_BLOCK_ROWS, self.LONGEST)
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
                                   0, rows, out.ctypes.data, module._POW10.ctypes.data,
                                   module._POW10_MIN, module._POW10_MAX)
        assert bytes(out[:written]).decode() == _propagate_py.format_rows(columns, 0, rows)
        assert (out[size:] == 0xAA).all()

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
        n = data.draw(st.integers(1, 2 * _CSV_BLOCK_ROWS + 3))
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
        assert kernel.format_rows([np.array([1000000000000000.25, 1000000000000000.75,
                                             -100000000000000.125])] * 8, 0, 3) == (
            ",".join(["1000000000000000.2"] * 8) + "\n"
            + ",".join(["1000000000000000.8"] * 8) + "\n"
            + ",".join(["-100000000000000.12"] * 8) + "\n")

    @pytest.mark.parametrize("t_len, other_len", [(5, 3), (3, 5)])
    def test_columns_of_unequal_length_rejected_before_writing(self, kernel, t_len, other_len):
        # zip used to drop the rows past the shortest column without a word.
        cols = [np.arange(t_len, dtype=float)] + [np.ones(other_len)] * 4
        traj = Trajectory(*cols, field=UNIT_FIELD, config=SimConfig(dt=1e-3, steps=4))
        buf = io.BytesIO()
        with pytest.raises(DomainError, match="one length"):
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

    @requires_c
    @pytest.mark.parametrize("start, stop", [
        (0, 3), (0, 1000), (2, 3), (3, 3), (4, 2), (-2, 100), (-100, 1), (7, 9),
    ])
    def test_c_formatter_slices_rows_as_python(self, start, stop):
        columns = [np.arange(5.0) * (k + 1) / 3 for k in range(8)]
        assert (c_kernel().format_rows(columns, start, stop)
                == _propagate_py.format_rows(columns, start, stop))

    @requires_c
    @pytest.mark.parametrize("columns", [
        [np.ones(3)] * 7,
        [np.ones(3)] * 7 + [np.ones(4)],
        [np.ones(3)] * 7 + [np.ones(3, dtype=np.float32)],
        [np.ones(3)] * 7 + [np.ones(6)[::2]],
        [np.ones(3)] * 7 + [np.ones((3, 1))],
        [np.ones(3)] * 7 + [[1.0, 1.0, 1.0]],
    ], ids=["seven", "unequal", "float32", "strided", "2-d", "list"])
    def test_c_formatter_rejects_columns_it_cannot_read(self, columns):
        with pytest.raises(ValueError, match="columns"):
            c_kernel().format_rows(columns, 0, 3)
