"""Closed-form orbit determination from an initial state.

Under a central acceleration m/r^2 two quantities are conserved:

    C = v^2 - 2m/r            (vis-viva constant, twice specific energy)
    Q = r^2 v^2 sin^2(alpha)  (squared areal momentum)

and the orbit is the unique conic with e = sqrt(QC + m^2)/m and
aO = Q/sqrt(QC + m^2), equivalently semi-latus rectum ell = Q/m.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import (
    DegenerateOrbitError,
    DomainError,
    UnboundedOrbitError,
    UnreachableRadiusError,
)
from .geometry import ConicClass, ConicShape, csc2_quadratic
from .planar import PlanarVector

#: |QC + m^2| below this multiple of m^2 classifies as a circle.
CIRCLE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class OrbitState:
    """Position and velocity of the orbiting body, attractor at the origin."""

    position: PlanarVector
    velocity: PlanarVector

    def __post_init__(self):
        if self.position.norm() <= 0.0:
            raise DomainError("position must be nonzero (attractor sits at the origin)")
        if self.velocity.norm() <= 0.0:
            raise DomainError("velocity must be nonzero")

    @property
    def r(self) -> float:
        return self.position.norm()

    @property
    def speed(self) -> float:
        return self.velocity.norm()


@dataclass(frozen=True)
class CentralField:
    """Inverse-square central acceleration a(r) = m / r^2."""

    m: float

    def __post_init__(self):
        if not math.isfinite(self.m) or self.m <= 0.0:
            raise DomainError(f"field strength must be finite and > 0, got {self.m}")


@dataclass(frozen=True)
class ConservedPair:
    """The two conserved quantities (C, Q) of an inverse-square orbit."""

    C: float
    Q: float

    def __post_init__(self):
        # an infinite C or Q is left to classify_orbit, which names the range
        if math.isnan(self.C):
            raise DomainError(f"C must be a number, got {self.C}")
        if not self.Q >= 0.0:
            raise DomainError(f"Q is a square and must be >= 0, got {self.Q}")

    @property
    def sweep_rate(self) -> float:
        """Area swept per unit time: W = sqrt(Q)/2."""
        return math.sqrt(self.Q) / 2.0

    @property
    def time_per_area(self) -> float:
        """The constant k in T = k*A."""
        return 1.0 / self.sweep_rate


def conserved_from_state(state: OrbitState, field: CentralField) -> ConservedPair:
    """Evaluate C = v^2 - 2m/r and Q = cross(position, velocity)^2."""
    v2 = state.velocity.dot(state.velocity)
    c = v2 - 2.0 * field.m / state.r
    h = state.position.cross(state.velocity)
    return ConservedPair(C=c, Q=h * h)


def classify_orbit(pair: ConservedPair, field: CentralField) -> ConicClass:
    """Conic type from the conserved pair: sign of C, with QC + m^2 = 0 a circle."""
    m2 = field.m * field.m
    disc = pair.Q * pair.C + m2
    # m^2 rounded to inf would pass every orbit as a circle; rounded to 0 it
    # leaves QC alone, which still decides a hyperbola (QC > 0) but not an
    # ellipse or a circle.
    if not (math.isfinite(disc) and m2 < math.inf and (m2 > 0.0 or disc > 0.0)):
        raise DomainError(
            f"m^2 = {m2:g}, QC + m^2 = {disc:g}: m, C and Q are outside the "
            "range where the conic type can be told in double precision"
        )
    tau = CIRCLE_TOLERANCE * m2
    if disc < -tau:
        raise DomainError(
            f"inconsistent conserved pair: QC + m^2 = {disc:g} < 0 "
            "(no physical state produces this)"
        )
    if abs(disc) <= tau:
        return ConicClass.CIRCLE
    if pair.C < 0.0:
        return ConicClass.ELLIPSE
    if pair.C == 0.0:
        return ConicClass.PARABOLA
    return ConicClass.HYPERBOLA


def apsides(pair: ConservedPair, field: CentralField) -> tuple[float, float | None]:
    """Extremal radii (r_min, r_max); r_max is None for unbounded orbits.

    Roots of csc^2(alpha) = 1: r = (-m +/- sqrt(m^2 + CQ)) / C, or Q/(2m)
    for the parabola.
    """
    if pair.Q <= 0.0:
        raise DegenerateOrbitError("radial trajectory (Q = 0) has no conic apsides")
    m = field.m
    if pair.C == 0.0:
        return pair.Q / (2.0 * m), None
    disc = m * m + pair.C * pair.Q
    if disc < 0.0:
        raise DomainError(f"inconsistent conserved pair: m^2 + CQ = {disc:g} < 0")
    root = math.sqrt(disc)
    r_min = (-m + root) / pair.C
    if pair.C < 0.0:
        return r_min, (-m - root) / pair.C
    return r_min, None


def period(pair: ConservedPair, field: CentralField) -> float:
    """Orbital period T = 2*pi*m / (-C)^(3/2) for bound orbits."""
    if pair.C >= 0.0:
        raise UnboundedOrbitError(f"period requires C < 0, got C={pair.C:g}")
    try:
        power = (-pair.C) ** 1.5
    except OverflowError:
        power = math.inf
    # A subnormal (-C)^1.5 has lost bits: m = 8.8e-215 gave a period 13% short.
    t = 2.0 * math.pi * field.m / power if power >= sys.float_info.min else math.nan
    if not 0.0 < t < math.inf:
        raise DomainError(
            f"the period 2 pi m / (-C)^1.5 for m = {field.m:g}, C = {pair.C:g} "
            "is not finite and > 0 in double precision, or (-C)^1.5 is below the "
            "smallest normal double"
        )
    return t


def csc2_predicted(pair: ConservedPair, field: CentralField, r: float) -> float:
    """csc^2(alpha) at radius r from the conserved pair: (C/Q) r^2 + (2m/Q) r."""
    if pair.Q <= 0.0:
        raise DegenerateOrbitError("csc^2(alpha) is undefined for a radial trajectory")
    r_min, r_max = apsides(pair, field)
    hi = math.inf if r_max is None else r_max
    slack = 1e-12 * max(r_min, 1.0)
    if not r_min - slack <= r <= hi + slack:
        raise DomainError(
            f"radius {r:g} is outside the apsidal range [{r_min:g}, {hi:g}]"
        )
    return csc2_quadratic(pair.C / pair.Q, 2.0 * field.m / pair.Q, r)


def speed_at_radius(pair: ConservedPair, field: CentralField, r: float) -> float:
    """Orbital speed at radius r: v = sqrt(C + 2m/r)."""
    if not r > 0.0:
        raise DomainError(f"radius must be > 0, got {r}")
    v2 = pair.C + 2.0 * field.m / r
    if v2 < 0.0:
        raise UnreachableRadiusError(
            f"radius {r:g} is unreachable: C + 2m/r = {v2:g} < 0"
        )
    return math.sqrt(v2)


def energy_area(field: CentralField, r1: float, r2: float) -> float:
    """Area under a(r) = m/r^2 between radii r2 and r1: A = m*(1/r2 - 1/r1)."""
    if r1 <= 0.0 or r2 <= 0.0:
        raise DomainError(f"radii must be > 0, got r1={r1}, r2={r2}")
    return field.m * (1.0 / r2 - 1.0 / r1)


def energy_area_quadrature(field: CentralField, r1: float, r2: float, panels: int) -> float:
    """Midpoint-rule evaluation of the same area, with the given panel count.

    Independent numeric route for energy_area; converges to the closed form
    at second order.
    """
    if r1 <= 0.0 or r2 <= 0.0:
        raise DomainError(f"radii must be > 0, got r1={r1}, r2={r2}")
    if panels < 1:
        raise DomainError(f"need at least 1 panel, got {panels}")
    if r1 == r2:
        return 0.0
    import numpy as np  # not at the top: classify and moon-check run without NumPy

    h = (r1 - r2) / panels
    mids = r2 + (np.arange(panels) + 0.5) * h
    return float(np.sum(field.m / (mids * mids)) * h)


def speed_squared_change(field: CentralField, r1: float, r2: float) -> float:
    """Change in v^2 between radii r1 and r2: twice the energy area."""
    return 2.0 * energy_area(field, r1, r2)


def centripetal_accel(v: float, radius: float) -> float:
    """Centripetal acceleration of uniform circular motion: v^2 / R."""
    if radius <= 0.0:
        raise DomainError(f"radius must be > 0, got {radius}")
    if v < 0.0:
        raise DomainError(f"speed must be >= 0, got {v}")
    return v * v / radius


@dataclass(frozen=True)
class OrbitSolution:
    """Full closed-form description of the conic an initial state rides on."""

    conic_class: ConicClass
    shape: ConicShape
    aO: float | None
    periapsis: float
    apoapsis: float | None
    semi_major: float | None
    semi_minor: float | None
    period: float | None
    conserved: ConservedPair
    m: float

    def as_dict(self) -> dict:
        return {
            "class": self.conic_class.name.lower(),
            "e": self.shape.eccentricity,
            "ell": self.shape.semi_latus_rectum,
            "aO": self.aO,
            "periapsis": self.periapsis,
            "apoapsis": self.apoapsis,
            "semi_major": self.semi_major,
            "semi_minor": self.semi_minor,
            "period": self.period,
            "C": self.conserved.C,
            "Q": self.conserved.Q,
            "m": self.m,
        }


def is_radial(state: OrbitState) -> bool:
    """Whether the velocity lies along the radius (alpha = 0 or 180 deg).

    Decided on the unit vectors, so that a Q = r^2 v^2 sin^2(alpha) that
    underflows to 0 at extreme r or v is not taken for a radial launch.
    """
    return state.position.unit().cross(state.velocity.unit()) == 0.0


def solve_orbit(state: OrbitState, field: CentralField) -> OrbitSolution:
    """Classify the orbit and fill in every closed-form element."""
    pair = conserved_from_state(state, field)
    if pair.Q == 0.0:
        if not is_radial(state):
            raise DomainError(
                f"Q = r^2 v^2 sin^2(alpha) underflows to 0 (r = {state.r:g}, "
                f"v = {state.speed:g}); the launch is not radial"
            )
        raise DegenerateOrbitError(
            "radial launch (alpha = 0 or 180 deg): motion is rectilinear, not a conic"
        )
    kind = classify_orbit(pair, field)
    m = field.m
    disc = pair.Q * pair.C + m * m

    ell = pair.Q / m
    if kind is ConicClass.CIRCLE:
        e = 0.0
        a_o = None
    else:
        e = math.sqrt(max(disc, 0.0)) / m
        a_o = pair.Q / math.sqrt(disc)
    shape = ConicShape(eccentricity=e, semi_latus_rectum=ell)

    if kind in (ConicClass.CIRCLE, ConicClass.ELLIPSE):
        if kind is ConicClass.CIRCLE:
            r_min = r_max = -m / pair.C
        else:
            r_min, r_max = apsides(pair, field)
        x = m / (-pair.C)
        y = math.sqrt(pair.Q / (-pair.C))
        t = period(pair, field)
        return OrbitSolution(kind, shape, a_o, r_min, r_max, x, y, t, pair, m)

    r_min, _ = apsides(pair, field)
    return OrbitSolution(kind, shape, a_o, r_min, None, None, None, None, pair, m)
