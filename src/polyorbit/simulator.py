"""Newton's impulse-polygon construction as a fixed-step simulator.

Each step applies a single center-directed impulse at the current vertex and
then drifts in a straight line:

    v' = v + (m/r^2) * dt * (-p/r),    p' = p + v' * dt

The per-step swept triangles of this polygon have exactly equal areas
(equivalently cross(p, v) is exactly conserved), which is what the
diagnostics here measure, alongside the O(dt) drift of the vis-viva constant.

The four hot loops, the step, the CSV export, the shell's ring sum and the
conic residual samples, are each written twice, with the same bits and
bytes: in C (one library built from _kick_drift.c, loaded by
polyorbit._propagate_c) and in Python (polyorbit._propagate_py, the
fallback and the oracle; the last two are NumPy loops).  This module binds
each loop once, at import, by one rule: the C copy where the library builds
and loads and that loop's probe gives its Python twin's bits or bytes, the
Python copy otherwise.  integrate(), Trajectory.write_csv,
shell.shell_accel and geometry.geometry_residuals call the bound loops,
_kernel; _backends says where each runs and why not in C.  The two copies
of each loop take the same arguments.  In C the ring sum and the residual
samples run in ranges, one per CPU this process may use, and the CSV rows
in 1024-row chunks on the caller and at most one thread.  The export
converts each column to float64 once (integrate's arrays with no copy, any
other column by a whole-column copy); a chunk, a start row and a row count
over them, is one C call that derives its r, v and cos(alpha), one NumPy
arccos and one C call that formats it.  One scheduler runs both
(_propagate_c._in_order): it takes the results in order, with the bits and
bytes of one call, and a range or chunk that fails stops it after the
results before it.  The step runs on the caller's thread alone.

integrate() runs the kernel with one collision radius, COLLISION_RADIUS,
and takes its record as the verdict on the run.  The kernel also returns
the turning points of every step: the polygon's vertices nearest to and
farthest from the center, where r^2 turns from falling to rising or back,
each with its two neighbours.  So diagnostics() reads the apsides off them, whatever
record_every is, and runs no kernel.  Last, the kernel returns the last
state the run reached, which is finite only if every state of the run was.
"""

from __future__ import annotations

import math
import sys
import types
from dataclasses import asdict, dataclass

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
#: the kernel returns around a turning point, 9 doubles, counts as two more
#: samples.
MAX_SAMPLES = 10**7

#: Collision radius around the attractor: integrate() raises CollisionError
#: at the first step that starts closer.  Its cube is far above the smallest
#: normal double, so the kick's divisor r^3 cannot underflow.
COLLISION_RADIUS = 1e-9

CSV_HEADER = "t,x,y,vx,vy,r,v,alpha"

# Samples per block of the drift and residual maxima of diagnostics: about
# ten temporaries of 64 kB each, which stay in cache.
_DIAGNOSTICS_BLOCK = 8192

# The hot loops, by their name in _propagate_c and _propagate_py.
_LOOPS = ("propagate_kernel", "write_rows", "ring_sum", "conic_residuals")


def _load_kernel():
    """(kernel, backends): kernel holds the four loops, each _propagate_c's
    where the C library builds and loads and that loop's probe matches, and
    _propagate_py's otherwise; backends maps each loop to ("c", None) or to
    ("python", why), why being the ImportError's text or "probe mismatch"."""
    try:
        from . import _propagate_c
    except ImportError as exc:
        compiled, matches, why = None, {}, str(exc)
    else:
        compiled, matches, why = _propagate_c, _propagate_c.probe(), "probe mismatch"
    kernel = types.SimpleNamespace(**{
        loop: getattr(compiled if matches.get(loop) else _propagate_py, loop) for loop in _LOOPS})
    backends = {loop: ("c", None) if matches.get(loop) else ("python", why) for loop in _LOOPS}
    return kernel, backends


_kernel, _backends = _load_kernel()


def backend() -> str:
    """The backend the propagation kernel runs on: 'c' or 'python'.

    Each of the four loops is bound on its own (_load_kernel), so the CSV
    formatter, ring sum and residual samples may run on the other one;
    _backends names each loop's backend and why it is not 'c'."""
    return _backends["propagate_kernel"][0]


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step simulation parameters: the step dt, the number of steps,
    and record_every.

    record_every > 1 decimates the stored trajectory (disables the exact
    swept-area check, which is defined per elementary step); the turning
    points still come from every step.  The collision radius is not a
    parameter: every run uses COLLISION_RADIUS.
    """

    dt: float
    steps: int
    record_every: int = 1

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
    windows: tuple[np.ndarray, np.ndarray] | None = None

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
        """Distance from the center per sample, hypot(x, y)."""
        return _propagate_py.derive_columns(self.x, self.y, self.vx, self.vy)[0]

    @property
    def speed(self) -> np.ndarray:
        """Speed per sample, hypot(vx, vy)."""
        return _propagate_py.derive_columns(self.x, self.y, self.vx, self.vy)[1]

    @property
    def angular_momentum(self) -> np.ndarray:
        """Per-sample cross(position, velocity); exactly conserved."""
        return self.x * self.vy - self.y * self.vx

    @property
    def alpha(self) -> np.ndarray:
        """Angle between position and velocity per sample, radians: NaN,
        with no warning, where r or the speed is 0, or where x*vx + y*vy or
        r * speed is not finite (_propagate_py.derive_columns)."""
        return _propagate_py.derive_columns(self.x, self.y, self.vx, self.vy)[2]

    def write_csv(self, stream) -> None:
        """Write the trajectory in the t,x,y,vx,vy,r,v,alpha schema, as
        ASCII bytes to the binary stream, 17 significant digits per value,
        in chunks of 1024 rows (_propagate_py._CSV_CHUNK_ROWS) on either
        backend.  stream.write is given bytes-like objects that
        change after it returns, so it must write or copy them (a file
        opened with "wb" or an io.BytesIO does).

        Each column is converted to contiguous float64 once, before the
        header: integrate's arrays with no copy, any other column by a
        whole-column copy.  Each chunk's r, v and alpha are derived from
        its x, y, vx and vy, so no full-length derived column is built;
        they are the bits of the r, speed and alpha properties, alpha NaN
        where r or v is 0 (a state at the center or at rest has no angle)
        or its products are not finite.  In C a chunk is a start row and a
        row count over the five columns, one derive_columns call, one NumPy
        arccos and one csv_rows call, on the caller or on at most one
        thread, and the caller writes the chunks to stream in order
        (_propagate_c.write_rows); a chunk that fails leaves the rows
        before it written.

        Raises DomainError, before writing anything, unless t, x, y, vx and
        vy are 1-D, of one length and real numbers that convert to float64:
        a complex column is refused, not truncated."""
        stored = (self.t, self.x, self.y, self.vx, self.vy)
        shapes = [np.shape(col) for col in stored]
        if len(shapes[0]) != 1 or any(shape != shapes[0] for shape in shapes):
            raise DomainError(f"t, x, y, vx and vy must be 1-D and of one length, "
                              f"got shapes {shapes}")
        if any(np.iscomplexobj(col) for col in stored):
            raise DomainError("t, x, y, vx and vy must be real numbers, got a complex column")
        try:
            columns = [np.ascontiguousarray(col, dtype=np.float64) for col in stored]
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"t, x, y, vx and vy must be real numbers: {exc}") from None
        stream.write(CSV_HEADER.encode("ascii") + b"\n")
        _kernel.write_rows(columns, stream)


def integrate(state: OrbitState, field: CentralField, config: SimConfig) -> Trajectory:
    """Apply `config.steps` impulse-polygon steps, recording samples.

    Raises CollisionError where the body comes within COLLISION_RADIUS of
    the center, and DomainError past MAX_SAMPLES, counting 2 per window.
    Raises DomainError before the run where the first kick f = m/r^3 * dt,
    the kernel's expression on a launch state outside COLLISION_RADIUS, or
    its factor m/r^3 is below the smallest normal double: f has lost bits or
    is 0, and the body would drift in a straight line.

    Raises DomainError too where the last state the run reached is not
    finite.  A state that is not finite stays so: an infinite coordinate
    turns into NaN at the next kick (whose f is 0, and 0 * inf is NaN), a
    NaN stays NaN and an infinite t stays infinite.  So that one state,
    recorded or not, is finite exactly when every state of the run is.
    """
    # A launch inside the collision radius collides at step 1 instead.
    x, y = state.position.x, state.position.y
    r2 = x * x + y * y
    r = math.sqrt(r2)
    factor = field.m / (r2 * r) if r >= COLLISION_RADIUS else math.inf
    kick = factor * config.dt
    if not (factor >= sys.float_info.min and kick >= sys.float_info.min):
        raise DomainError(
            f"the first kick m/r^3 * dt = {kick:g} (m/r^3 = {factor:g}) is below the smallest "
            f"normal double {sys.float_info.min:g}, so the body would drift in a straight line"
        )
    max_windows = (MAX_SAMPLES - (config.steps // config.record_every + 1)) // 2
    t, x, y, vx, vy, collided, windows = _kernel.propagate_kernel(
        x, y, state.velocity.x, state.velocity.y,
        field.m, config.dt, config.steps, config.record_every, COLLISION_RADIUS,
        max_windows=max_windows,
    )
    if collided >= 0:
        raise CollisionError(collided, COLLISION_RADIUS)
    if not np.isfinite(windows[1]).all():
        raise DomainError("the simulated state left the double range (its t, x, y, vx or vy "
                          "is not finite)")
    if len(windows[0]) > max_windows:
        raise DomainError(f"{len(t)} recorded samples and over {max_windows} turning-point "
                          f"windows of 2 samples exceed the cap of {MAX_SAMPLES} samples")
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
        return asdict(self)


def _parabolic_vertex(t: np.ndarray, r: np.ndarray) -> tuple[float, float]:
    # Three-point parabolic refinement of the extremum of r(t) at the middle
    # of three samples, which lies within half a step of it.  The vertex is
    # kept only where it lies between t[0] and t[2] at a positive radius,
    # and the middle sample itself is reported elsewhere: on a coarse orbit
    # the parabola can dip below r = 0, and where r changes by a few ulps a
    # step (a nearly circular orbit) its curvature is rounding.
    h = t[1] - t[0]
    denom = r[0] - 2.0 * r[1] + r[2]
    if denom == 0.0:
        return float(t[1]), float(r[1])
    delta = 0.5 * (r[0] - r[2]) / denom
    t_star = t[1] + delta * h
    r_star = r[1] - 0.25 * (r[0] - r[2]) * delta
    if not (abs(delta) <= 1.0 and r_star > 0.0):
        return float(t[1]), float(r[1])
    return float(t_star), float(r_star)


def _turning_points(traj: Trajectory) -> tuple[list, list]:
    """(periapsis, apoapsis) lists of the refined (t, r) turning points of
    the full-resolution run, in time order.

    The kernel gives a window for each vertex of the polygon where
    r^2 = x^2 + y^2 turns, nearer to or farther from the center than both
    its neighbours, with both of them.  A window whose r^2 rises after its
    vertex is a periapsis, and each vertex is refined on r = hypot(x, y) of
    its three states.
    """
    states, _ = traj.windows
    t, x, y = np.moveaxis(states, 2, 0)
    r2 = x * x + y * y
    r = np.hypot(x, y)
    peri: list[tuple[float, float]] = []
    apo: list[tuple[float, float]] = []
    for tw, rw, rising in zip(t, r, (r2[:, 1] < r2[:, 2]).tolist()):
        (peri if rising else apo).append(_parabolic_vertex(tw, rw))
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
