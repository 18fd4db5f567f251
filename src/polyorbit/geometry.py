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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, NoSuchPointError, NotAnEllipseError
from .planar import PlanarVector

#: Absolute slack allowed below csc^2(alpha) = 1 before a radius is declared
#: outside the conic.
CSC2_TOLERANCE = 1e-9

#: |tangent_y| below which the tangent is treated as parallel to the directrix
#: (the right-angle check is not applicable at such points).
_PARALLEL_EPS = 1e-12

#: Samples evaluated per NumPy pass in geometry_residuals.  Each pass holds a
#: few dozen float64 arrays of this length, so memory is flat in n.
_RESIDUAL_BLOCK = 1 << 16


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
        e, ell = self.eccentricity, self.semi_latus_rectum
        if not math.isfinite(e) or e < 0.0:
            raise DomainError(f"eccentricity must be finite and >= 0, got {e}")
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
        if not (self.semi_major >= self.semi_minor > 0.0):
            raise DomainError(
                f"axes must satisfy X >= Y > 0, got X={self.semi_major}, Y={self.semi_minor}"
            )


def radius_at_angle(shape: ConicShape, theta: float) -> float:
    """Focal radius at polar angle theta: r = ell / (1 - e*sin(theta))."""
    e = shape.eccentricity
    if e == 0.0:
        raise DomainError("polar form requires e > 0 (a circle has no directrix)")
    denom = 1.0 - e * math.sin(theta)
    if denom <= 0.0:
        raise NoSuchPointError(
            f"no point at theta={theta:g}: 1 - e*sin(theta) = {denom:g} <= 0 "
            "(beyond the asymptote / open side of the branch)"
        )
    return shape.semi_latus_rectum / denom


def radial_range(shape: ConicShape) -> tuple[float, float]:
    """[r_min, r_max] attained on the conic; r_max is inf for e >= 1."""
    r_min = shape.periapsis
    r_max = shape.apoapsis
    return r_min, math.inf if r_max is None else r_max


def csc2_alpha(shape: ConicShape, r: float) -> float:
    """Squared cosecant of the focal-ray/tangent angle at radius r.

    csc^2(alpha) = (e^2 - 1)/ell^2 * r^2 + 2r/ell.  Equals 1 exactly at the
    apsides and exceeds 1 strictly between them.
    """
    e, ell = shape.eccentricity, shape.semi_latus_rectum
    if e == 0.0:
        raise DomainError("csc^2(alpha) formula requires e > 0")
    if r <= 0.0:
        raise DomainError(f"radius must be > 0, got {r}")
    value = (e * e - 1.0) / (ell * ell) * r * r + 2.0 * r / ell
    if value < 1.0 - CSC2_TOLERANCE:
        lo, hi = radial_range(shape)
        raise DomainError(
            f"radius {r:g} is outside the conic's radial range [{lo:g}, {hi:g}]"
        )
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

    A circle (X == Y) has no directrix: returns (0.0, None).
    """
    x, y = axes.semi_major, axes.semi_minor
    if x == y:
        return 0.0, None
    d = math.sqrt(x * x - y * y)
    return d / x, y * y / d


def ellipse_area(e: float, aO: float) -> float:
    """Area of the ellipse: pi * aO^2 * e^2 / (1 - e^2)^(3/2)."""
    if not (0.0 < e < 1.0):
        raise NotAnEllipseError(f"area is finite only for 0 < e < 1, got e={e}")
    if aO <= 0.0:
        raise DomainError(f"focal-directrix distance must be > 0, got {aO}")
    return math.pi * aO * aO * e * e / (1.0 - e * e) ** 1.5


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
    r = radius_at_angle(shape, theta)
    return PlanarVector(r * math.cos(theta), r * math.sin(theta))


def conic_tangent(shape: ConicShape, theta: float) -> PlanarVector:
    """Analytic tangent dP/dtheta at polar angle theta (not normalized)."""
    e, ell = shape.eccentricity, shape.semi_latus_rectum
    r = radius_at_angle(shape, theta)
    dr = e * math.cos(theta) * r * r / ell
    c, s = math.cos(theta), math.sin(theta)
    return PlanarVector(dr * c - r * s, dr * s + r * c)


def _sample_thetas(shape: ConicShape, n: int, start: int, stop: int) -> np.ndarray:
    """Polar angles of samples start..stop-1 of n on the real branch."""
    f_lim = _branch_anomaly_limit(shape)
    i = np.arange(start, stop, dtype=np.float64)
    if shape.eccentricity < 1.0:
        # full closed curve, endpoint excluded; starts at periapsis (f = 0)
        return -0.5 * math.pi + 2.0 * f_lim * i / n
    return -0.5 * math.pi - f_lim + 2.0 * f_lim * i / (n - 1)


def sample_points(shape: ConicShape, n: int) -> list[tuple[float, PlanarVector]]:
    """n points (theta, position) on the conic, restricted to the real branch."""
    if n < 3:
        raise DomainError(f"need at least 3 sample points, got {n}")
    if shape.eccentricity == 0.0:
        raise DomainError("sampling requires e > 0")
    return [(theta, conic_point(shape, theta))
            for theta in _sample_thetas(shape, n, 0, n).tolist()]


@dataclass(frozen=True)
class ResidualReport:
    """Worst-case residuals of the defining geometric properties of a conic.

    focal_residual: ellipse focal-sum / hyperbola focal-difference / parabola
    focus-directrix equidistance, as an absolute length.
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


def _require_finite(what: str, theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    bad = ~(np.isfinite(x) & np.isfinite(y))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(
            f"{what} at theta={theta[i]:g} is not finite: ({float(x[i])}, {float(y[i])})"
        )


def _require_nonzero(what: str, theta: np.ndarray, norm: np.ndarray) -> None:
    if not norm.all():
        i = int(np.argmin(norm))
        raise DomainError(f"cannot normalize the zero {what} at theta={theta[i]:g}")


def _block_max(what: str, residual: np.ndarray) -> float:
    # np.max propagates NaN, where Python's max(0.0, nan) would drop it.
    worst = float(np.max(residual, initial=0.0))
    if math.isnan(worst):
        raise DomainError(f"{what} residual is not a number")
    return worst


def _block_residuals(shape: ConicShape, theta: np.ndarray, focus2_y: float | None,
                     focal_constant: float | None) -> tuple[float, float, float, int]:
    """(focal, reflection, right-angle) maxima and the skipped count over the
    samples at angles theta; the arithmetic of conic_point, conic_tangent and
    PlanarVector, elementwise.
    """
    e, ell = shape.eccentricity, shape.semi_latus_rectum
    aO = shape.focal_directrix_distance
    s, c = np.sin(theta), np.cos(theta)
    denom = 1.0 - e * s
    if not (denom > 0.0).all():
        i = int(np.argmin(denom > 0.0))
        raise NoSuchPointError(
            f"no point at theta={theta[i]:g}: 1 - e*sin(theta) = {denom[i]:g} <= 0 "
            "(beyond the asymptote / open side of the branch)"
        )
    r = ell / denom
    px, py = r * c, r * s
    _require_finite("conic point", theta, px, py)
    dr = e * c * r * r / ell
    tx, ty = dr * c - r * s, dr * s + r * c
    _require_finite("tangent", theta, tx, ty)
    t_norm = np.hypot(tx, ty)
    _require_nonzero("tangent", theta, t_norm)
    tux, tuy = tx / t_norm, ty / t_norm
    p_norm = np.hypot(px, py)
    _require_nonzero("conic point", theta, p_norm)
    pux, puy = px / p_norm, py / p_norm

    kind = shape.conic_class
    if kind is ConicClass.PARABOLA:
        focal = np.abs(p_norm - (py + aO))
        ray_x, ray_y = 0.0, 1.0  # incoming beam parallel to axis
    else:
        dx, dy = 0.0 - px, focus2_y - py
        _require_finite("second-focus ray", theta, dx, dy)
        d_norm = np.hypot(dx, dy)
        _require_nonzero("second-focus ray", theta, d_norm)
        if kind is ConicClass.ELLIPSE:
            focal = np.abs(p_norm + d_norm - focal_constant)
        else:
            focal = np.abs(np.abs(d_norm - p_norm) - focal_constant)
        ray_x, ray_y = dx / d_norm, dy / d_norm

    # Reflection: the two rays make equal (unsigned) angles with the tangent.
    sin1 = np.abs(tux * puy - tuy * pux)
    sin2 = np.abs(tux * ray_y - tuy * ray_x)
    reflection = np.abs(sin1 - sin2)

    # Tangent meets the directrix at l; angle p-focus-l is right.  Samples
    # whose tangent is parallel to the directrix (apsis line) are skipped.
    keep = np.abs(tuy) >= _PARALLEL_EPS
    skipped = len(theta) - int(np.count_nonzero(keep))
    theta_k, px_k, py_k = theta[keep], px[keep], py[keep]
    tux_k, tuy_k, pux_k, puy_k = tux[keep], tuy[keep], pux[keep], puy[keep]
    lx = px_k + (-aO - py_k) / tuy_k * tux_k
    ly = np.full_like(lx, -aO)
    _require_finite("tangent-directrix intersection", theta_k, lx, ly)
    l_norm = np.hypot(lx, ly)
    _require_nonzero("tangent-directrix intersection", theta_k, l_norm)
    right = np.abs(pux_k * (lx / l_norm) + puy_k * (ly / l_norm))

    return (_block_max("focal", focal), _block_max("reflection", reflection),
            _block_max("right-angle", right), skipped)


def geometry_residuals(shape: ConicShape, n: int) -> ResidualReport:
    """Check the focal, reflection, and tangent-directrix right-angle
    properties at n sampled points; return the maximum residuals.

    The samples are evaluated as NumPy arrays, _RESIDUAL_BLOCK at a time.
    Any non-finite point, tangent, ray or intersection, a zero norm, or a
    NaN residual raises DomainError.
    """
    if n < 10:
        raise DomainError(f"need at least 10 samples, got {n}")
    e = shape.eccentricity
    if e == 0.0:
        raise DomainError("residual checks require e > 0")
    ell = shape.semi_latus_rectum
    kind = shape.conic_class

    # Second focus (on the y axis) and the constant of the focal property,
    # reconstructed from (e, ell) in the focus-centered frame (directrix at
    # y = -aO, periapsis toward -y).
    if kind is ConicClass.ELLIPSE:
        semi_major = ell / (1.0 - e * e)
        focus2_y = 2.0 * e * semi_major
        focal_constant = 2.0 * semi_major
    elif kind is ConicClass.HYPERBOLA:
        semi_major = ell / (e * e - 1.0)
        focus2_y = -2.0 * e * semi_major
        focal_constant = 2.0 * semi_major
    else:
        focus2_y = None
        focal_constant = None
    if focus2_y is not None and not math.isfinite(focus2_y):
        raise DomainError(f"second focus is not finite: (0.0, {focus2_y})")

    focal_res = 0.0
    refl_res = 0.0
    right_res = 0.0
    skipped = 0
    with np.errstate(all="ignore"):  # non-finite values are tested explicitly
        for start in range(0, n, _RESIDUAL_BLOCK):
            theta = _sample_thetas(shape, n, start, min(start + _RESIDUAL_BLOCK, n))
            focal, refl, right, skip = _block_residuals(shape, theta, focus2_y,
                                                        focal_constant)
            focal_res = max(focal_res, focal)
            refl_res = max(refl_res, refl)
            right_res = max(right_res, right)
            skipped += skip

    return ResidualReport(
        conic_class=kind,
        n_samples=n,
        focal_residual=focal_res,
        reflection_residual=refl_res,
        right_angle_residual=right_res,
        right_angle_skipped=skipped,
    )
