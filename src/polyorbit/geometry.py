"""Focus-directrix conics and their verifiable geometric properties.

Conics are stored as (eccentricity e, semi-latus rectum ell).  The working
frame puts the focus at the origin with the directrix on the horizontal line
y = -aO, where aO = ell/e is the focus-directrix distance.  The polar angle
theta follows the convention r(theta) = ell / (1 - e*sin(theta)), so
theta = -90 deg points at the periapsis (toward the directrix) and standard
true anomaly is f = theta + 90 deg.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, NoSuchPointError, NotAnEllipseError
from .planar import PlanarVector

#: Absolute slack allowed below csc^2(alpha) = 1 before a radius is declared
#: outside the conic.
CSC2_TOLERANCE = 1e-9

#: |tangent_y| below which the tangent is treated as parallel to the directrix
#: (the right-angle check is not applicable at such points).
_PARALLEL_EPS = 1e-12

#: Hard cap on the number of samples in geometry_residuals: its memory is
#: flat in n, but its time is not (10^7 samples take about 3 s).
MAX_RESIDUAL_SAMPLES = 10**7


class ConicClass(Enum):
    """Conic type, ordered by increasing eccentricity."""

    CIRCLE = 0
    ELLIPSE = 1
    PARABOLA = 2
    HYPERBOLA = 3

    def __lt__(self, other: "ConicClass") -> bool:
        return self.value < other.value


def classify_eccentricity(e: float) -> ConicClass:
    """Map an eccentricity to its conic type."""
    if not math.isfinite(e) or e < 0.0:
        raise DomainError(f"eccentricity must be finite and >= 0, got {e}")
    if e == 0.0:
        return ConicClass.CIRCLE
    if e < 1.0:
        return ConicClass.ELLIPSE
    if e == 1.0:
        return ConicClass.PARABOLA
    return ConicClass.HYPERBOLA


@dataclass(frozen=True)
class ConicShape:
    """A conic in focus-directrix form: eccentricity and semi-latus rectum."""

    eccentricity: float
    semi_latus_rectum: float

    def __post_init__(self):
        classify_eccentricity(self.eccentricity)
        ell = self.semi_latus_rectum
        if not math.isfinite(ell) or ell <= 0.0:
            raise DomainError(f"semi-latus rectum must be finite and > 0, got {ell}")

    @property
    def conic_class(self) -> ConicClass:
        return classify_eccentricity(self.eccentricity)

    @property
    def focal_directrix_distance(self) -> float:
        """aO = ell/e; undefined for a circle (the directrix is at infinity)."""
        if self.eccentricity == 0.0:
            raise DomainError("focal-directrix distance is undefined for a circle")
        return self.semi_latus_rectum / self.eccentricity

    @property
    def periapsis(self) -> float:
        return self.semi_latus_rectum / (1.0 + self.eccentricity)

    @property
    def apoapsis(self) -> float | None:
        """Farthest radius; None for unbounded conics (e >= 1)."""
        if self.eccentricity >= 1.0:
            return None
        return self.semi_latus_rectum / (1.0 - self.eccentricity)


@dataclass(frozen=True)
class EllipseAxes:
    """Center-to-vertex semi-axis lengths of an ellipse."""

    semi_major: float
    semi_minor: float

    def __post_init__(self):
        if not (math.inf > self.semi_major >= self.semi_minor > 0.0):
            raise DomainError(
                f"axes must be finite with X >= Y > 0, got X={self.semi_major}, "
                f"Y={self.semi_minor}"
            )


def _polar_form(shape: ConicShape, theta, s, c) -> tuple:
    """(r, x, y, dr/dtheta) at polar angle theta, given s = sin(theta) and
    c = cos(theta): r = ell / (1 - e*s), the point (r*c, r*s) and
    dr/dtheta = e*c*r^2/ell.  theta, s and c are floats, or 1-D NumPy arrays
    elementwise; this module imports no NumPy, the arrays bring their methods.
    """
    e, ell = shape.eccentricity, shape.semi_latus_rectum
    if e == 0.0:
        raise DomainError("polar form requires e > 0 (a circle has no directrix)")
    denom = 1.0 - e * s
    on_branch = denom > 0.0  # False for a NaN
    one_angle = isinstance(denom, float)
    if not (on_branch if one_angle else on_branch.all()):
        if not one_angle:  # the first angle off the branch
            i = int(on_branch.argmin())
            theta, denom = theta[i], denom[i]
        raise NoSuchPointError(
            f"no point at theta={theta:g}: 1 - e*sin(theta) = {denom:g} <= 0 "
            "(beyond the asymptote / open side of the branch)"
        )
    r = ell / denom
    return r, r * c, r * s, e * c * r * r / ell


def _polar_point(shape: ConicShape, theta: float) -> tuple:
    # _polar_form at one angle: math.sin(+-inf) would raise a bare ValueError
    if math.isinf(theta):
        raise NoSuchPointError(f"no point at theta={theta:g}: the angle is infinite")
    return _polar_form(shape, theta, math.sin(theta), math.cos(theta))


def csc2_quadratic(a, b, r):
    """The tangent-angle law csc^2(alpha) = a*r^2 + b*r at radius r, a float
    or an array: a = C/Q and b = 2m/Q from the conserved pair, or
    a = (e^2 - 1)/ell^2 and b = 2/ell from the conic's shape."""
    return a * r * r + b * r


def csc2_alpha(shape: ConicShape, r: float) -> float:
    """Squared cosecant of the focal-ray/tangent angle at radius r.

    csc^2(alpha) = (e^2 - 1)/ell^2 * r^2 + 2r/ell.  Equals 1 exactly at the
    apsides and exceeds 1 strictly between them.  Raises DomainError where
    r is outside the conic's radial range, or where csc^2(alpha) is past
    the largest double.
    """
    e, ell = shape.eccentricity, shape.semi_latus_rectum
    if e == 0.0:
        raise DomainError("csc^2(alpha) formula requires e > 0")
    if not r > 0.0:
        raise DomainError(f"radius must be > 0, got {r}")
    value = csc2_quadratic((e * e - 1.0) / (ell * ell), 2.0 / ell, r)
    if not value >= 1.0 - CSC2_TOLERANCE:
        hi = shape.apoapsis
        raise DomainError(
            f"radius {r:g} is outside the conic's radial range "
            f"[{shape.periapsis:g}, {math.inf if hi is None else hi:g}]"
        )
    if value == math.inf:
        raise DomainError(f"csc^2(alpha) at radius {r:g} is past the largest double")
    return value


def axes_from_focal(e: float, aO: float) -> EllipseAxes:
    """Semi-axes of the ellipse with eccentricity e and focal-directrix distance aO."""
    if not (0.0 < e < 1.0):
        raise NotAnEllipseError(f"axes require 0 < e < 1, got e={e}")
    if aO <= 0.0:
        raise DomainError(f"focal-directrix distance must be > 0, got {aO}")
    x = aO * e / (1.0 - e * e)
    y = aO * e / math.sqrt(1.0 - e * e)
    return EllipseAxes(semi_major=x, semi_minor=y)


def focal_from_axes(axes: EllipseAxes) -> tuple[float, float | None]:
    """Inverse of axes_from_focal: (e, aO) from the semi-axes.

    A circle (X == Y) has no directrix: returns (0.0, None).  Axes whose e
    rounds to 1, or whose aO is not finite and > 0, raise DomainError.
    Computed in units of X, as e^2 = (1 - Y/X)(1 + Y/X) with 1 - Y/X taken
    as (X - Y)/X: X - Y is exact when X and Y are close, so nothing cancels
    as X -> Y, and no square of an axis can overflow or underflow.  Near
    e = 1 the rounded e^2 can keep e an ulp under 1, so there (Y < X/2) e is
    taken as 1 - (Y/X)^2/(1 + e), which rounds to 1 where the exact e does.
    e and aO were within 3 ulps of 60-digit values over 40,000 random axes.
    """
    x, y = axes.semi_major, axes.semi_minor
    if x == y:
        return 0.0, None
    s = y / x
    e = math.sqrt((x - y) / x * (1.0 + s))
    if s < 0.5:
        e = 1.0 - s * s / (1.0 + e)
    a_o = y * s / e
    if not (e < 1.0 and 0.0 < a_o < math.inf):
        raise DomainError(
            f"axes X={x:g}, Y={y:g} give e = {e!r} and aO = {a_o:g}: an ellipse "
            "needs e < 1 and a finite aO > 0 in double precision"
        )
    return e, a_o


def ellipse_area(e: float, aO: float) -> float:
    """Area of the ellipse: pi * aO^2 * e^2 / (1 - e^2)^(3/2).

    Raises DomainError where pi * aO^2 or the area is past the largest
    double."""
    if not (0.0 < e < 1.0):
        raise NotAnEllipseError(f"area is finite only for 0 < e < 1, got e={e}")
    if not aO > 0.0:
        raise DomainError(f"focal-directrix distance must be > 0, got {aO}")
    area = math.pi * aO * aO * e * e / (1.0 - e * e) ** 1.5
    if area == math.inf:
        raise DomainError(f"the area for e={e}, aO={aO:g} is past the largest double")
    return area


def _branch_anomaly_limit(shape: ConicShape) -> float:
    # True-anomaly half-range of the sampled branch, pulled in from the
    # asymptote (e > 1) or from f = pi (e = 1) so radii stay bounded.
    e = shape.eccentricity
    if e < 1.0:
        return math.pi
    if e == 1.0:
        return 0.9 * math.pi
    return 0.9 * math.acos(-1.0 / e)


def conic_point(shape: ConicShape, theta: float) -> PlanarVector:
    """Point on the conic at polar angle theta, focus-centered frame."""
    _, x, y, _ = _polar_point(shape, theta)
    return PlanarVector(x, y)


def _theta_grid(shape: ConicShape, n: int) -> tuple[float, float, int]:
    """(theta0, span, div): sample i of n on the real branch lies at the
    polar angle theta0 + span * i / div."""
    f_lim = _branch_anomaly_limit(shape)
    if shape.eccentricity < 1.0:
        # full closed curve, endpoint excluded; starts at periapsis (f = 0)
        return -0.5 * math.pi, 2.0 * f_lim, n
    return -0.5 * math.pi - f_lim, 2.0 * f_lim, n - 1


@dataclass(frozen=True)
class ResidualReport:
    """Worst-case residuals of the defining geometric properties of a conic.

    focal_residual: ellipse focal-sum / hyperbola focal-difference / parabola
    focus-directrix equidistance, relative: divided by the focal constant 2a
    (ellipse, hyperbola) or by ell (parabola).
    reflection_residual and right_angle_residual are dimensionless (sines /
    cosines of angles that should vanish).
    """

    conic_class: ConicClass
    n_samples: int
    focal_residual: float
    reflection_residual: float
    right_angle_residual: float
    right_angle_skipped: int

    @property
    def max_residual(self) -> float:
        return max(self.focal_residual, self.reflection_residual, self.right_angle_residual)

    def as_dict(self) -> dict:
        return {
            "conic_class": self.conic_class.name.lower(),
            "n_samples": self.n_samples,
            "focal_residual": self.focal_residual,
            "reflection_residual": self.reflection_residual,
            "right_angle_residual": self.right_angle_residual,
            "right_angle_skipped": self.right_angle_skipped,
            "max_residual": self.max_residual,
        }


def _second_focus(shape: ConicShape) -> tuple[float | None, float | None]:
    """(focus2_y, focal_constant): the second focus (on the y axis) and the
    constant of the focal property, reconstructed from (e, ell) in the
    focus-centered frame (directrix at y = -aO, periapsis toward -y); None
    for a parabola."""
    e, ell = shape.eccentricity, shape.semi_latus_rectum
    kind = shape.conic_class
    if kind is ConicClass.ELLIPSE:
        semi_major = ell / (1.0 - e * e)
        return 2.0 * e * semi_major, 2.0 * semi_major
    if kind is ConicClass.HYPERBOLA:
        semi_major = ell / (e * e - 1.0)
        return -2.0 * e * semi_major, 2.0 * semi_major
    return None, None


def geometry_residuals(shape: ConicShape, n: int) -> ResidualReport:
    """Check the focal, reflection, and tangent-directrix right-angle
    properties at n sampled points; return the maximum residuals.

    The samples are evaluated in one call of the residual loop that
    simulator._kernel binds: _propagate_py.conic_residuals, the NumPy loop,
    in blocks of samples, or its C copy, in one range per CPU; both merge
    their maxima exactly.  Both take each sample's sine and cosine by angle
    addition, one sin and one cos per group of 128 samples, where the conic
    is well conditioned (a parabola, or |1 - e^2| >= 1/2 and e <= 16), and
    one libm sin and cos per sample elsewhere
    (_propagate_py._sample_sin_cos).  Any non-finite point, tangent, ray or
    intersection, a zero tangent, ray or intersection norm, or a NaN focal
    residual raises DomainError.  So does a periapsis whose square is
    below the smallest normal double: the tangent's dr/dtheta = e*c*r*r/ell
    would be formed from a subnormal or zero r*r, and its residuals would
    be wrong, not small.

    The loops give the focal residual as a length; its maximum is divided
    once, by 2a or ell (see ResidualReport).  Rounding is monotonic, so that
    is the maximum of the quotients.  A scale that is not a normal double
    > 0 (2a is 0 where e^2 overflows) raises DomainError, and so does a
    run whose every sample is skipped by the right-angle check: its
    residual of 0.0 would stand for no sample at all.
    """
    from . import simulator  # not at the top: simulator imports this module

    if not 10 <= n <= MAX_RESIDUAL_SAMPLES:
        raise DomainError(f"the sample count must be in [10, {MAX_RESIDUAL_SAMPLES}], got {n}")
    e = shape.eccentricity
    if e == 0.0:
        raise DomainError("residual checks require e > 0")
    periapsis = shape.periapsis
    if not periapsis * periapsis >= sys.float_info.min:
        raise DomainError(
            f"ell must give a periapsis ell / (1 + e) with a square of at least "
            f"{sys.float_info.min:g}, got ell = {shape.semi_latus_rectum} "
            f"(periapsis {periapsis:g})"
        )
    kind = shape.conic_class
    focus2_y, focal_constant = _second_focus(shape)
    if focus2_y is not None and not math.isfinite(focus2_y):
        raise DomainError(f"second focus is not finite: (0.0, {focus2_y})")
    scale = shape.semi_latus_rectum if focal_constant is None else focal_constant
    if not sys.float_info.min <= scale < math.inf:
        raise DomainError(f"the focal constant 2a = {scale:g} is not a normal double > 0, "
                          f"so no focal residual can be taken relative to it")

    focal, reflection, right, skipped = simulator._kernel.conic_residuals(
        shape, n, focus2_y, focal_constant)
    if skipped == n:
        raise DomainError(f"every one of the {n} samples has a tangent parallel to the "
                          f"directrix, so no right angle was checked")
    return ResidualReport(
        conic_class=kind,
        n_samples=n,
        focal_residual=focal / scale,
        reflection_residual=reflection,
        right_angle_residual=right,
        right_angle_skipped=skipped,
    )
