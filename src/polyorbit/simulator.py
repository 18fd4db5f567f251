"""Newton's impulse-polygon construction as a fixed-step simulator.

Each step applies a single center-directed impulse at the current vertex and
then drifts in a straight line:

    v' = v + (m/r^2) * dt * (-p/r),    p' = p + v' * dt

The per-step swept triangles of this polygon have exactly equal areas
(equivalently cross(p, v) is exactly conserved), which is what the
diagnostics here measure, alongside the O(dt) drift of the vis-viva constant.

The step arithmetic is defined once, in polyorbit._propagate_py; both
integrate() and step() run it, so a single step and a one-step trajectory
agree bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _propagate_py as _kernel
from .determination import CentralField, OrbitState
from .errors import CollisionError, DegenerateOrbitError, DomainError
from .planar import PlanarVector

#: Hard cap on the number of steps in a single run.
MAX_STEPS = 10**8

#: Hard cap on the number of recorded samples (steps // record_every + 1);
#: the kernel preallocates five float64 arrays of this length.
MAX_SAMPLES = 10**7

#: Default collision radius around the attractor.
DEFAULT_COLLISION_RADIUS = 1e-9

CSV_HEADER = "t,x,y,vx,vy,r,v,alpha"

# One row of the CSV: eight values at 17 significant digits.
_CSV_ROW = ",".join(["%.17g"] * 8) + "\n"

# Rows formatted and written per stream.write call.  Larger blocks save
# little time and raise peak memory.
_CSV_BLOCK_ROWS = 512


def backend() -> str:
    """Name of the propagation kernel; always 'python'."""
    return "python"


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step simulation parameters.

    record_every > 1 decimates the stored trajectory (disables the exact
    swept-area check, which is defined per elementary step).
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
        if not self.collision_radius > 0.0:
            raise DomainError("collision radius must be > 0")


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    position: PlanarVector
    velocity: PlanarVector


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered simulated states with diagnostic accessors."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    field: CentralField
    config: SimConfig

    def __len__(self) -> int:
        return len(self.t)

    @property
    def is_decimated(self) -> bool:
        return self.config.record_every > 1

    def sample(self, i: int) -> TrajectorySample:
        return TrajectorySample(
            t=float(self.t[i]),
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
    def radial_speed(self) -> np.ndarray:
        """Signed rate of change of r (positive when moving outward)."""
        return (self.x * self.vx + self.y * self.vy) / self.r

    @property
    def angular_momentum(self) -> np.ndarray:
        """Per-sample cross(position, velocity); exactly conserved."""
        return self.x * self.vy - self.y * self.vx

    @property
    def alpha(self) -> np.ndarray:
        """Angle between position and velocity per sample, radians."""
        cos_a = (self.x * self.vx + self.y * self.vy) / (self.r * self.speed)
        return np.arccos(np.clip(cos_a, -1.0, 1.0))

    def write_csv(self, stream) -> None:
        """Write the trajectory in the t,x,y,vx,vy,r,v,alpha schema,
        17 significant digits per value, streamed in blocks of rows."""
        stream.write(CSV_HEADER + "\n")
        columns = (self.t, self.x, self.y, self.vx, self.vy,
                   self.r, self.speed, self.alpha)
        for start in range(0, len(self.t), _CSV_BLOCK_ROWS):
            stop = start + _CSV_BLOCK_ROWS
            rows = zip(*[col[start:stop].tolist() for col in columns])
            stream.write("".join([_CSV_ROW % row for row in rows]))


def step(state: OrbitState, field: CentralField, dt: float,
         collision_radius: float = DEFAULT_COLLISION_RADIUS) -> OrbitState:
    """One impulse-polygon step: center-directed kick, then straight drift."""
    config = SimConfig(dt=dt, steps=1, collision_radius=collision_radius)
    s = integrate(state, field, config).sample(1)
    return OrbitState(position=s.position, velocity=s.velocity)


def integrate(state: OrbitState, field: CentralField, config: SimConfig) -> Trajectory:
    """Apply `config.steps` impulse-polygon steps, recording samples."""
    t, x, y, vx, vy, collided = _kernel.propagate_kernel(
        state.position.x, state.position.y,
        state.velocity.x, state.velocity.y,
        field.m, config.dt, config.steps, config.record_every,
        config.collision_radius,
    )
    if collided >= 0:
        raise CollisionError(collided, config.collision_radius)
    return Trajectory(t=t, x=x, y=y, vx=vx, vy=vy, field=field, config=config)


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
    cross = traj.x[:-1] * traj.vy[1:] - traj.y[:-1] * traj.vx[1:]
    return 0.5 * np.abs(cross) * traj.config.dt


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
    h = t[j] - t[j - 1]
    denom = r[j - 1] - 2.0 * r[j] + r[j + 1]
    if denom == 0.0:
        return float(t[j]), float(r[j])
    delta = 0.5 * (r[j - 1] - r[j + 1]) / denom
    t_star = t[j] + delta * h
    r_star = r[j] - 0.25 * (r[j - 1] - r[j + 1]) * delta
    return float(t_star), float(r_star)


def _apsis_events(traj: Trajectory,
                  r: np.ndarray) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    # Sign changes of the radial speed; returns (periapsis, apoapsis) event
    # lists of refined (t, r) pairs.  r is traj.r, which the caller already
    # holds; u is traj.radial_speed without a second hypot.
    u = (traj.x * traj.vx + traj.y * traj.vy) / r
    n = len(r)
    peri: list[tuple[float, float]] = []
    apo: list[tuple[float, float]] = []
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


def diagnostics(traj: Trajectory) -> DiagnosticsReport:
    """Measure conservation drift, the csc^2(alpha) residual against the
    conserved-pair prediction, and apsides/period from radial turning points.
    """
    if len(traj) < 10:
        raise DomainError(f"need at least 10 samples, got {len(traj)}")
    m = traj.field.m
    r = traj.r
    v2 = traj.vx * traj.vx + traj.vy * traj.vy
    h = traj.angular_momentum

    q = h * h
    q0 = q[0]
    if not q0 > 0.0:
        raise DegenerateOrbitError(
            f"radial trajectory (Q = {q0:g}): the drift and swept-area checks divide by Q"
        )
    q_drift = float(np.max(np.abs(q - q0)) / q0)

    c = v2 - 2.0 * m / r
    c0 = c[0]
    c_scale = max(abs(c0), 2.0 * m / r[0])
    c_drift = float(np.max(np.abs(c - c0)) / c_scale)

    csc2_obs = r * r * v2 / q
    csc2_pred = (c0 / q0) * r * r + (2.0 * m / q0) * r
    csc2_res = float(np.max(np.abs(csc2_obs - csc2_pred)))

    if traj.is_decimated:
        area_dev = None  # exactness check needs every elementary step
    else:
        areas = swept_areas(traj)
        area_dev = float(np.max(np.abs(areas - areas[0])) / areas[0])

    peri, apo = _apsis_events(traj, r)
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
