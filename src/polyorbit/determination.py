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


def conserved_from_state(state: OrbitState, field: CentralField) -> ConservedPair:
    """Evaluate C = v^2 - 2m/r and Q = cross(position, velocity)^2.

    C is within 3k + 1 ulps of its exact value, k = (v^2 + 2m/r) / |C| the
    condition number of the difference.  Q is within
    ((1 + (k' + 1)eps)^2 (1 + eps) - 1)/eps ulps, eps = 2^-53 and
    k' = (|x vy| + |y vx|) / |x vy - y vx|: 2k' + 3 to first order, more
    where x vy - y vx cancels to a few ulps of its terms and its square
    doubles their error.  tests/test_oracle.py checks both against 60-digit
    values.

    Where v^2, 2m or 2m/r is past the largest double, C is infinite or NaN,
    and where x vy or y vx is, Q is infinite or NaN: ConservedPair refuses a
    NaN and classify_orbit an infinity.  Raises DomainError where r is
    infinite (2m/r would be 0), or below the smallest normal double with
    both coordinates non-zero: math.hypot then rounds r to a subnormal,
    which has lost bits.
    """
    r = state.r
    position = state.position
    if not (r < math.inf and (r >= sys.float_info.min or 0.0 in (position.x, position.y))):
        raise DomainError(f"the distance r = {r:g} of ({position.x:g}, {position.y:g}) has "
                          f"lost bits, so 2m/r cannot be told in double precision")
    v2 = state.velocity.dot(state.velocity)
    c = v2 - 2.0 * field.m / r
    h = position.cross(state.velocity)
    return ConservedPair(C=c, Q=h * h)


def classify_orbit(pair: ConservedPair, field: CentralField) -> ConicClass:
    """Conic type from the conserved pair: sign of C, with QC + m^2 = 0 a circle."""
    m2 = field.m * field.m
    disc = pair.Q * pair.C + m2
    # m^2 rounded to inf would pass every orbit as a circle.  A subnormal or
    # zero m^2 has lost bits, so QC + m^2 is told only where a normal QC
    # decides it (a hyperbola); else a near-escape launch reads as a parabola.
    tiny = sys.float_info.min
    if not (math.isfinite(disc) and m2 < math.inf
            and (m2 >= tiny or pair.Q * pair.C >= tiny)):
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

    The roots of csc^2(alpha) = 1 in forms that do not cancel where |CQ| <<
    m^2, near escape speed: r_min = Q/(m + sqrt(m^2 + CQ)), Q/(2m) for the
    parabola, and r_max = -(m + sqrt(m^2 + CQ))/C.
    """
    if pair.Q <= 0.0:
        raise DegenerateOrbitError("radial trajectory (Q = 0) has no conic apsides")
    m = field.m
    disc = m * m + pair.C * pair.Q
    if disc < 0.0:
        raise DomainError(f"inconsistent conserved pair: m^2 + CQ = {disc:g} < 0")
    root = m + math.sqrt(disc)
    r_min = pair.Q / root
    r_max = -root / pair.C if pair.C < 0.0 else None
    # a subnormal or zero m^2 has lost bits: a parabola's Q/2m comes out off
    # in its sixth digit, or as Q/m, unless a normal CQ decides the root;
    # classify_orbit rejects it too
    tiny = sys.float_info.min
    if not (math.isfinite(disc) and (m * m >= tiny or pair.C * pair.Q >= tiny)
            and math.isfinite(r_min) and math.isfinite(r_max or 0.0)):
        raise DomainError(
            f"m^2 + CQ = {disc:g}, apsides {r_min:g} and {r_max}: m, C and Q are outside "
            "the range where the apsides can be told in double precision"
        )
    return r_min, r_max


def period(pair: ConservedPair, field: CentralField) -> float:
    """Orbital period T = 2*pi*m / (-C)^(3/2) for bound orbits.

    T is within 4 ulps of its exact value (tests/test_oracle.py checks it
    against 60-digit values).  Raises DomainError where 2 pi m or (-C)^1.5
    is below the smallest normal double or past the largest, or where T is
    not finite and > 0.
    """
    if pair.C >= 0.0:
        raise UnboundedOrbitError(f"period requires C < 0, got C={pair.C:g}")
    try:
        power = (-pair.C) ** 1.5
    except OverflowError:
        power = math.inf
    # A subnormal (-C)^1.5 or 2 pi m has lost bits: m = 8.8e-215 gave a
    # period 13% short, and m = 5e-324 at C = -1e-200 one 2.4e14 ulps off.
    scaled_m = 2.0 * math.pi * field.m
    tiny = sys.float_info.min
    t = scaled_m / power if power >= tiny and scaled_m >= tiny else math.nan
    if not 0.0 < t < math.inf:
        raise DomainError(
            f"the period 2 pi m / (-C)^1.5 for m = {field.m:g}, C = {pair.C:g} "
            "is not finite and > 0 in double precision, or 2 pi m or (-C)^1.5 is "
            "below the smallest normal double"
        )
    return t


def csc2_predicted(pair: ConservedPair, field: CentralField, r: float) -> float:
    """csc^2(alpha) at radius r from the conserved pair: (C/Q) r^2 + (2m/Q) r.

    Raises DomainError where r is outside the apsidal range, or where C/Q,
    2m/Q or the result is past the largest double."""
    if pair.Q <= 0.0:
        raise DegenerateOrbitError("csc^2(alpha) is undefined for a radial trajectory")
    r_min, r_max = apsides(pair, field)
    hi = math.inf if r_max is None else r_max
    slack = 1e-12 * max(r_min, 1.0)
    if not r_min - slack <= r <= hi + slack:
        raise DomainError(
            f"radius {r:g} is outside the apsidal range [{r_min:g}, {hi:g}]"
        )
    value = csc2_quadratic(pair.C / pair.Q, 2.0 * field.m / pair.Q, r)
    if not math.isfinite(value):
        raise DomainError(f"csc^2(alpha) at radius {r:g} for C = {pair.C:g}, Q = {pair.Q:g} "
                          "is past the largest double")
    return value


def speed_at_radius(pair: ConservedPair, field: CentralField, r: float) -> float:
    """Orbital speed at radius r: v = sqrt(C + 2m/r).

    v is within (k + 3)/2 ulps of its exact value, k = (|C| + 2m/r) /
    (C + 2m/r) the condition number of the sum: 2 ulps where C >= 0
    (tests/test_oracle.py checks it against 60-digit values).  Raises
    DomainError where 2m, 2m/r or C + 2m/r is past the largest double, or
    where 2m/r is below the smallest normal double (it has lost bits) and
    C + 2m/r is too.
    """
    if not r > 0.0:
        raise DomainError(f"radius must be > 0, got {r}")
    w = 2.0 * field.m / r
    v2 = pair.C + w
    if v2 < 0.0:
        raise UnreachableRadiusError(
            f"radius {r:g} is unreachable: C + 2m/r = {v2:g} < 0"
        )
    tiny = sys.float_info.min
    if not (v2 < math.inf and (w >= tiny or v2 >= tiny)):
        raise DomainError(
            f"2m/r = {w:g}, C + 2m/r = {v2:g}: m, C and r are outside the range where "
            "the speed can be told in double precision"
        )
    return math.sqrt(v2)


def energy_area(field: CentralField, r1: float, r2: float) -> float:
    """Area under a(r) = m/r^2 between radii r2 and r1: A = m*(1/r2 - 1/r1).

    An infinite radius gives 1/r = 0 exactly.  Raises DomainError where
    1/r1, 1/r2 or the area is past the largest double."""
    if not (r1 > 0.0 and r2 > 0.0):
        raise DomainError(f"radii must be > 0, got r1={r1}, r2={r2}")
    area = field.m * (1.0 / r2 - 1.0 / r1)
    if not math.isfinite(area):
        raise DomainError(f"the area for m = {field.m:g}, r1 = {r1:g}, r2 = {r2:g} "
                          "is past the largest double")
    return area


def energy_area_quadrature(field: CentralField, r1: float, r2: float, panels: int) -> float:
    """Midpoint-rule evaluation of the same area, with the given panel count.

    Independent numeric route for energy_area; converges to the closed form
    at second order.  Raises DomainError, with no NumPy warning, where a
    midpoint's m/r^2 or the sum is past the largest double.
    """
    if not (0.0 < r1 < math.inf and 0.0 < r2 < math.inf):
        raise DomainError(f"radii must be finite and > 0, got r1={r1}, r2={r2}")
    if panels < 1:
        raise DomainError(f"need at least 1 panel, got {panels}")
    if r1 == r2:
        return 0.0
    import numpy as np  # not at the top: classify and moon-check run without NumPy

    h = (r1 - r2) / panels
    mids = r2 + (np.arange(panels) + 0.5) * h
    with np.errstate(over="ignore", divide="ignore"):
        area = float(np.sum(field.m / (mids * mids)) * h)
    if not math.isfinite(area):
        raise DomainError(f"the area for m = {field.m:g}, r1 = {r1:g}, r2 = {r2:g} "
                          f"with {panels} panels is past the largest double")
    return area


def centripetal_accel(v: float, radius: float) -> float:
    """Centripetal acceleration of uniform circular motion: v^2 / R.

    Raises DomainError where v^2 or v^2 / R is past the largest double."""
    if not 0.0 < radius < math.inf:
        raise DomainError(f"radius must be finite and > 0, got {radius}")
    if not 0.0 <= v < math.inf:
        raise DomainError(f"speed must be finite and >= 0, got {v}")
    accel = v * v / radius
    if accel == math.inf:
        raise DomainError(f"v^2 / R for v = {v:g}, R = {radius:g} is past the largest double")
    return accel


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
