"""Numerical verification that a uniform spherical shell attracts external
points like a point mass at its center.

The shell is cut into thin rings by uniform polar-angle panels; each ring's
pull is resolved along the symmetry axis (the transverse parts cancel ring by
ring by construction) and summed with the midpoint rule.  The ring loops
take the sine and cosine of one angle per group of 128 rings and each ring's
by angle addition from a table of the 128 offsets, within 8 * 2^-53 of
libm's at the ring's own angle (_propagate_py.angle_addition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import simulator
from .errors import DomainError, OutsideOnlyError

#: Hard cap on the number of rings.  Neither ring sum holds an array of all
#: the terms: C makes one group of 128 at a time, the NumPy fallback 65536.
MAX_RINGS = 10**7


@dataclass(frozen=True)
class ShellSpec:
    """A thin uniform spherical shell: radius, total mass, gravity constant."""

    radius: float
    total_mass: float
    g: float

    def __post_init__(self):
        for name, val in (("radius", self.radius), ("total_mass", self.total_mass),
                          ("g", self.g)):
            if not math.isfinite(val) or val <= 0.0:
                raise DomainError(f"{name} must be finite and > 0, got {val}")
        if self.radius * self.radius == 0.0:  # surface_density divides by it
            raise DomainError(f"radius^2 underflows to 0 for radius = {self.radius:g}")

    @property
    def surface_density(self) -> float:
        return self.total_mass / (4.0 * math.pi * self.radius * self.radius)


@dataclass(frozen=True)
class RingDecomposition:
    """Uniform partition of the polar angle [0, pi] into n_rings panels."""

    n_rings: int

    def __post_init__(self):
        if not 1 <= self.n_rings <= MAX_RINGS:
            raise DomainError(f"the ring count must be in [1, {MAX_RINGS}], got {self.n_rings}")


def shell_accel(shell: ShellSpec, d: float, rings: RingDecomposition) -> float:
    """Axial attraction of the shell on an external point at distance d,
    summed over the ring decomposition with the midpoint rule.

    The total is the correctly rounded sum of the ring terms, the value
    math.fsum gives, so its bits depend on the terms alone and not on the
    order they are added in.  The C loop adds them exactly in ranges, on as
    many CPUs as this process may use, and fsums the ranges' sums; the NumPy
    loop fsums the terms block by block.
    """
    if not math.isfinite(d):
        raise DomainError(f"the distance d must be finite, got {d}")
    a = shell.radius
    if d <= a:
        raise OutsideOnlyError(
            f"point must lie outside the shell: d={d:g} <= a={a:g}"
        )
    n = rings.n_rings
    dtheta = math.pi / n
    try:
        total = simulator._kernel.ring_sum(a, d, dtheta, a * dtheta,
                                           shell.g * shell.surface_density, n)
    except (OverflowError, ValueError):  # fsum's overflow, or inf + -inf
        total = math.nan
    if not math.isfinite(total):
        raise DomainError(
            f"the ring sum is not finite for a = {a:g}, d = {d:g}: "
            "the scales are outside the double range"
        )
    return total


def sphere_accel(radius: float, total_mass: float, g: float, d: float,
                 n_shells: int, rings: RingDecomposition) -> float:
    """Attraction of a uniform solid ball, summed over concentric shells of
    equal thickness with exact shell-volume mass weights."""
    if radius <= 0.0 or total_mass <= 0.0 or g <= 0.0:
        raise DomainError("radius, total_mass, and g must all be > 0")
    if n_shells < 1:
        raise DomainError(f"need at least 1 shell, got {n_shells}")
    if d <= radius:
        raise OutsideOnlyError(
            f"point must lie outside the sphere: d={d:g} <= radius={radius:g}"
        )
    edges = np.linspace(0.0, radius, n_shells + 1)
    total = 0.0
    for r_in, r_out in zip(edges[:-1], edges[1:]):
        mass = total_mass * (r_out**3 - r_in**3) / radius**3
        mid = 0.5 * (r_in + r_out)
        total += shell_accel(ShellSpec(radius=mid, total_mass=mass, g=g), d, rings)
    return total


def point_mass_accel(gm: float, d: float) -> float:
    """Inverse-square point-mass attraction gM / d^2."""
    if not 0.0 <= gm < math.inf:
        raise DomainError(f"gM must be finite and >= 0, got {gm}")
    if not 0.0 < d < math.inf:
        raise DomainError(f"distance must be finite and > 0, got {d}")
    d2 = d * d
    if d2 == 0.0:
        raise DomainError(f"d^2 underflows to 0 for d = {d:g}")
    return gm / d2
