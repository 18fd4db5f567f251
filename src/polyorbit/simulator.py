"""Newton's impulse-polygon construction as a fixed-step simulator.

Each step applies a single center-directed impulse at the current vertex and
then drifts in a straight line:

    v' = v + (m/r^2) * dt * (-p/r),    p' = p + v' * dt

The per-step swept triangles of this polygon have exactly equal areas
(equivalently cross(p, v) is exactly conserved), which is what the
diagnostics here measure, alongside the O(dt) drift of the vis-viva constant.

The four hot loops, the step, the CSV row formatter, the shell's ring sum
and the conic residual samples, are each written twice, with the same bits
and bytes: in C (one library built from _kick_drift.c, loaded by
polyorbit._propagate_c) and in Python (polyorbit._propagate_py, the
fallback and the oracle; the last two are the NumPy loops of shell_accel
and geometry_residuals).  integrate(), step(), Trajectory.write_csv, shell.shell_accel
and geometry.geometry_residuals run the loops of the module that loaded,
_kernel, so a single step and a one-step trajectory agree bitwise.  In C
the ring sum, the residual samples and the CSV rows run in ranges, one per
CPU this process may use, with the bits and bytes of one call; the step
runs on the caller's thread alone.

The kernel also returns the four states around each step where the radial
speed changes sign, so diagnostics() reads the turning points of every step
off them, whatever record_every is, and runs no kernel.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _propagate_py
from .determination import CentralField, OrbitState, is_radial
from .errors import CollisionError, DegenerateOrbitError, DomainError
from .geometry import csc2_quadratic
from .planar import PlanarVector

#: Hard cap on the number of steps in a single run.
MAX_STEPS = 10**8

#: Hard cap on the number of recorded samples (steps // record_every + 1);
#: the kernel preallocates five float64 arrays of this length.  Each window
#: the kernel returns around a turning point counts as four more samples.
MAX_SAMPLES = 10**7

#: Default collision radius around the attractor.
DEFAULT_COLLISION_RADIUS = 1e-9

_LEFT_THE_DOUBLE_RANGE = ("the simulated state left the double range (a recorded t, x, y, vx "
                          "or vy is not finite)")

CSV_HEADER = "t,x,y,vx,vy,r,v,alpha"

# Rows formatted and written per stream.write call: 2048 rows of the seed-0
# CSV are 0.3 MB of text.  Larger blocks save little time and raise peak
# memory.  In C, each range of rows written on its own thread is a whole
# number of blocks.
_CSV_BLOCK_ROWS = 2048

# Samples per block of the drift and residual maxima of diagnostics: about
# ten temporaries of 64 kB each, which stay in cache.
_DIAGNOSTICS_BLOCK = 8192


def _load_kernel():
    # The compiled loops when they build, load and pass their probes.
    try:
        from . import _propagate_c
    except ImportError:
        return _propagate_py
    return _propagate_c


_kernel = _load_kernel()


def backend() -> str:
    """Name of the propagation kernel and CSV formatter in use: 'c' or 'python'.

    With 'c', the ring sum and the conic residual samples run in C too,
    unless NumPy's sin, cos or hypot gave other bits than libm's on the
    load-time probe; they then run on NumPy."""
    return "python" if _kernel is _propagate_py else "c"


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step simulation parameters.

    record_every > 1 decimates the stored trajectory (disables the exact
    swept-area check, which is defined per elementary step); the turning
    points still come from every step.
    """

    dt: float
    steps: int
    record_every: int = 1
    collision_radius: float = DEFAULT_COLLISION_RADIUS

    def __post_init__(self):
        if not math.isfinite(self.dt) or self.dt <= 0.0:
            raise DomainError(f"dt must be finite and > 0, got {self.dt}")
        if not (1 <= self.steps <= MAX_STEPS):
            raise DomainError(f"steps must be in [1, {MAX_STEPS}], got {self.steps}")
        if self.record_every < 1:
            raise DomainError(f"record_every must be >= 1, got {self.record_every}")
        samples = self.steps // self.record_every + 1
        if samples > MAX_SAMPLES:
            raise DomainError(
                f"{samples} recorded samples exceed the cap of {MAX_SAMPLES}; "
                f"raise record_every"
            )
        # The kernel divides by r^3 for r >= collision_radius: a radius whose
        # cube underflows would let that divisor reach 0.
        radius = self.collision_radius
        if not radius * radius * radius >= sys.float_info.min:
            raise DomainError(
                f"collision radius must be > 0 with a cube of at least {sys.float_info.min:g}, "
                f"got {radius}"
            )


def _alpha(x, y, vx, vy, r, v):
    # The angle between position and velocity, given r = |p| and v = |v|.
    cos_a = (x * vx + y * vy) / (r * v)
    return np.arccos(np.clip(cos_a, -1.0, 1.0))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-ordered simulated states with diagnostic accessors.

    windows is the kernel's record of the states around each turning point
    and of the last state (see _propagate_py.propagate_kernel); diagnostics()
    refuses a Trajectory built without it.

    Trajectories compare and hash by identity: == between two of them is
    `is`, whatever their arrays hold.  Compare the arrays to compare runs.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    field: CentralField
    config: SimConfig
    windows: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.t)

    @property
    def is_decimated(self) -> bool:
        return self.config.record_every > 1

    def state(self, i: int) -> OrbitState:
        """Recorded state i as an OrbitState."""
        return OrbitState(
            position=PlanarVector(float(self.x[i]), float(self.y[i])),
            velocity=PlanarVector(float(self.vx[i]), float(self.vy[i])),
        )

    @property
    def r(self) -> np.ndarray:
        return np.hypot(self.x, self.y)

    @property
    def speed(self) -> np.ndarray:
        return np.hypot(self.vx, self.vy)

    @property
    def angular_momentum(self) -> np.ndarray:
        """Per-sample cross(position, velocity); exactly conserved."""
        return self.x * self.vy - self.y * self.vx

    @property
    def alpha(self) -> np.ndarray:
        """Angle between position and velocity per sample, radians."""
        return _alpha(self.x, self.y, self.vx, self.vy, self.r, self.speed)

    def write_csv(self, stream) -> None:
        """Write the trajectory in the t,x,y,vx,vy,r,v,alpha schema, as
        ASCII bytes to the binary stream, 17 significant digits per value,
        in blocks of rows.  stream.write is given bytes-like objects that
        change after it returns, so it must write or copy them (a file
        opened with "wb" or an io.BytesIO does).

        Each block's r, v and alpha are derived from its float64 x, y, vx
        and vy, so no full-length column is built; on float64 columns they
        are the bits of the r, speed and alpha properties.  In C the blocks
        are formatted on every CPU the process may use, and written to
        stream in order (_propagate_c.write_rows).

        Raises DomainError, before writing anything, unless t, x, y, vx and
        vy are 1-D and of one length."""
        stored = (self.t, self.x, self.y, self.vx, self.vy)
        shapes = [np.shape(col) for col in stored]
        if len(shapes[0]) != 1 or any(shape != shapes[0] for shape in shapes):
            raise DomainError(f"t, x, y, vx and vy must be 1-D and of one length, "
                              f"got shapes {shapes}")

        def block_columns(start, stop):
            t, x, y, vx, vy = (np.ascontiguousarray(col[start:stop], dtype=np.float64)
                               for col in stored)
            r = np.hypot(x, y)
            v = np.hypot(vx, vy)
            return [t, x, y, vx, vy, r, v, _alpha(x, y, vx, vy, r, v)]

        stream.write(CSV_HEADER.encode("ascii") + b"\n")
        _kernel.write_rows(block_columns, shapes[0][0], _CSV_BLOCK_ROWS, stream)


def step(state: OrbitState, field: CentralField, dt: float,
         collision_radius: float = DEFAULT_COLLISION_RADIUS) -> OrbitState:
    """One impulse-polygon step: center-directed kick, then straight drift."""
    config = SimConfig(dt=dt, steps=1, collision_radius=collision_radius)
    return integrate(state, field, config).state(1)


def integrate(state: OrbitState, field: CentralField, config: SimConfig) -> Trajectory:
    """Apply `config.steps` impulse-polygon steps, recording samples.

    Raises CollisionError, DomainError for a recorded value that is not
    finite, and DomainError past MAX_SAMPLES, counting 4 per window.
    """
    max_windows = (MAX_SAMPLES - (config.steps // config.record_every + 1)) // 4
    t, x, y, vx, vy, collided, windows = _kernel.propagate_kernel(
        state.position.x, state.position.y, state.velocity.x, state.velocity.y,
        field.m, config.dt, config.steps, config.record_every, config.collision_radius,
        t0=0.0, max_windows=max_windows,
    )
    if collided >= 0:
        raise CollisionError(collided, config.collision_radius)
    if not all(np.isfinite(a).all() for a in (t, x, y, vx, vy)):
        raise DomainError(_LEFT_THE_DOUBLE_RANGE)
    if len(windows[0]) > max_windows:
        raise DomainError(f"{len(t)} recorded samples and over {max_windows} turning-point "
                          f"windows of 4 states exceed the cap of {MAX_SAMPLES} samples")
    return Trajectory(t=t, x=x, y=y, vx=vx, vy=vy, field=field, config=config,
                      windows=windows)


def swept_areas(traj: Trajectory) -> np.ndarray:
    """Per-step triangle areas swept about the attractor.

    The drift leg satisfies p_{k+1} - p_k = v_{k+1} * dt by construction, so
    the triangle area (1/2)|cross(p_k, p_{k+1} - p_k)| is evaluated as
    (1/2)|cross(p_k, v_{k+1})| * dt, which avoids the cancellation noise of
    re-deriving the leg from stored positions.  These areas are exactly equal
    in the polygon construction.
    """
    if traj.is_decimated:
        raise DomainError(
            "swept areas are defined per elementary step; trajectory is decimated"
        )
    if len(traj) < 2:
        raise DomainError("need at least 2 samples")
    return _swept(traj.x[:-1], traj.y[:-1], traj.vx[1:], traj.vy[1:], traj.config.dt)


def _swept(x, y, vx_next, vy_next, dt):
    # the areas (1/2)|cross(p_k, v_{k+1})| * dt of swept_areas
    return 0.5 * np.abs(x * vy_next - y * vx_next) * dt


@dataclass(frozen=True)
class DiagnosticsReport:
    """Conserved-quantity drift and apsis/period measurements for one run."""

    max_swept_area_deviation: float | None
    Q_drift: float
    C_drift: float
    csc2_max_residual: float
    observed_periapsis: float | None
    observed_apoapsis: float | None
    observed_period: float | None

    def as_dict(self) -> dict:
        return {
            "max_swept_area_deviation": self.max_swept_area_deviation,
            "Q_drift": self.Q_drift,
            "C_drift": self.C_drift,
            "csc2_max_residual": self.csc2_max_residual,
            "observed_periapsis": self.observed_periapsis,
            "observed_apoapsis": self.observed_apoapsis,
            "observed_period": self.observed_period,
        }


def _parabolic_vertex(t: np.ndarray, r: np.ndarray, j: int) -> tuple[float, float]:
    # Three-point parabolic refinement of an extremum of r(t) around index j.
    # The vertex is kept only where it lies between t[j - 1] and t[j + 1] at
    # a positive radius; elsewhere the parabola extrapolates (on a coarse
    # orbit, 17 steps away and below r = 0), and the sample itself is
    # reported.
    h = t[j] - t[j - 1]
    denom = r[j - 1] - 2.0 * r[j] + r[j + 1]
    if denom == 0.0:
        return float(t[j]), float(r[j])
    delta = 0.5 * (r[j - 1] - r[j + 1]) / denom
    t_star = t[j] + delta * h
    r_star = r[j] - 0.25 * (r[j - 1] - r[j + 1]) * delta
    if not (abs(delta) <= 1.0 and r_star > 0.0):
        return float(t[j]), float(r[j])
    return float(t_star), float(r_star)


def _turning_points(traj: Trajectory) -> tuple[list, list]:
    """(periapsis, apoapsis) lists of the refined (t, r) turning points of
    the full-resolution run, in time order.

    The search on a full record, on the kernel's windows of states k - 1 ..
    k + 2: the radial speed u = (x vx + y vy) / r turns where u[k] * u[k + 1]
    < 0, and the vertex j of k and k + 1 is refined when 1 <= j <= steps - 1.
    Dividing by r > 0 never flips a sign, so each such k has a window.  A run
    that left the double range after its last recorded state is refused.
    """
    ks, states, end_state = traj.windows
    if not np.isfinite(end_state).all():
        raise DomainError(_LEFT_THE_DOUBLE_RANGE)
    t, x, y, vx, vy = np.moveaxis(states, 2, 0)
    r = np.hypot(x, y)
    u = (x * vx + y * vy) / r
    last = traj.config.steps
    peri: list[tuple[float, float]] = []
    apo: list[tuple[float, float]] = []
    for k, tw, rw, uw in zip(ks.tolist(), t, r, u):
        if not uw[1] * uw[2] < 0.0:
            continue
        is_peri = uw[1] < 0.0
        if is_peri:
            i = 1 if rw[1] < rw[2] else 2
        else:
            i = 1 if rw[1] > rw[2] else 2
        if 1 <= k - 1 + i <= last - 1:  # window state i is step k - 1 + i
            (peri if is_peri else apo).append(_parabolic_vertex(tw, rw, i))
    return peri, apo


def diagnostics(traj: Trajectory) -> DiagnosticsReport:
    """Measure conservation drift, the csc^2(alpha) residual against the
    conserved-pair prediction, and apsides/period from radial turning points.

    The drift and residual maxima run over the recorded samples.  The
    turning points are those of the full-resolution run even when the
    trajectory is decimated: see _turning_points.  An overflow or invalid
    operation in any of it is a DomainError, not a NaN.
    """
    if traj.windows is None:
        raise DomainError("the trajectory has no turning-point windows; build it with integrate()")
    if len(traj) < 10:
        raise DomainError(f"need at least 10 samples, got {len(traj)}")
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _diagnostics(traj)
    except FloatingPointError as exc:
        raise DomainError(f"diagnostics leave the double range: {exc}") from None


def _diagnostics(traj: Trajectory) -> DiagnosticsReport:
    # The drift, residual and swept-area maxima, _DIAGNOSTICS_BLOCK samples
    # at a time: the same elementwise expressions, q0, c0 and first area as
    # on whole arrays, and a maximum of absolute values is exact in any
    # order.  As on whole arrays, q0 is checked only once every sample's r,
    # v^2 and Q are formed, so an overflow among them is reported first.
    m = traj.field.m
    dt = traj.config.dt
    n = len(traj)
    # per block: max |q - q0|, |c - c0|, |csc2_obs - csc2_pred| and |area - area0|
    q_max, c_max, csc2_max, area_max = [], [], [], []
    for start in range(0, n, _DIAGNOSTICS_BLOCK):
        stop = min(start + _DIAGNOSTICS_BLOCK, n)
        x, y, vx, vy = (col[start:stop] for col in (traj.x, traj.y, traj.vx, traj.vy))
        r = np.hypot(x, y)
        v2 = vx * vx + vy * vy
        h = x * vy - y * vx
        q = h * h
        if start == 0:
            q0, h0, r0 = q[0], h[0], r[0]
        if not q0 > 0.0:
            continue
        c = v2 - 2.0 * m / r
        if start == 0:
            c0 = c[0]
        csc2_obs = r * r * v2 / q
        csc2_pred = csc2_quadratic(c0 / q0, 2.0 * m / q0, r)
        q_max.append(np.max(np.abs(q - q0)))
        c_max.append(np.max(np.abs(c - c0)))
        csc2_max.append(np.max(np.abs(csc2_obs - csc2_pred)))
        # area k takes state k and the velocity of k + 1; the last state has none
        areas_stop = min(stop, n - 1)
        if not traj.is_decimated and start < areas_stop:
            areas = _swept(x[:areas_stop - start], y[:areas_stop - start],
                           traj.vx[start + 1:areas_stop + 1], traj.vy[start + 1:areas_stop + 1], dt)
            if start == 0:
                area0 = areas[0]
            area_max.append(np.max(np.abs(areas - area0)))

    if not q0 > 0.0:
        if not is_radial(traj.state(0)):
            raise DomainError(
                f"Q = (x vy - y vx)^2 underflows to 0 (x vy - y vx = {h0:g}); the launch "
                "is not radial, but the drift and swept-area checks divide by Q"
            )
        raise DegenerateOrbitError(
            f"radial trajectory (Q = {q0:g}): the drift and swept-area checks divide by Q"
        )
    q_drift = float(np.max(q_max) / q0)
    c_scale = max(abs(c0), 2.0 * m / r0)
    c_drift = float(np.max(c_max) / c_scale)
    csc2_res = float(np.max(csc2_max))
    if traj.is_decimated:
        area_dev = None  # exactness check needs every elementary step
    else:
        area_dev = float(np.max(area_max) / area0)

    peri, apo = _turning_points(traj)
    observed_periapsis = min(rr for _, rr in peri) if peri else None
    observed_apoapsis = max(rr for _, rr in apo) if apo else None
    observed_period = None
    if len(peri) >= 2:
        times = [tt for tt, _ in peri]
        observed_period = float(np.mean(np.diff(times)))

    return DiagnosticsReport(
        max_swept_area_deviation=area_dev,
        Q_drift=q_drift,
        C_drift=c_drift,
        csc2_max_residual=csc2_res,
        observed_periapsis=observed_periapsis,
        observed_apoapsis=observed_apoapsis,
        observed_period=observed_period,
    )


def uniform_accel_displacement(a: float, duration: float) -> float:
    """Displacement from rest under constant acceleration: (1/2) a T^2."""
    if duration < 0.0:
        raise DomainError(f"duration must be >= 0, got {duration}")
    return 0.5 * a * duration * duration


def uniform_accel_displacement_sum(a: float, duration: float, panels: int) -> float:
    """Discrete-sum route to the same displacement: sum over n of
    a*(n*T/N)*(T/N), which equals a*T^2*N(N+1)/(2N^2) and converges to
    (1/2) a T^2."""
    if duration < 0.0:
        raise DomainError(f"duration must be >= 0, got {duration}")
    if panels < 1:
        raise DomainError(f"need at least 1 panel, got {panels}")
    n = np.arange(1, panels + 1, dtype=np.float64)
    dt = duration / panels
    return float(np.sum(a * n * dt * dt))
