"""Numerical verification that a uniform spherical shell attracts external
points like a point mass at its center.

The shell is cut into thin rings by uniform polar-angle panels; each ring's
pull is resolved along the symmetry axis (the transverse parts cancel ring by
ring by construction) and summed with the midpoint rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OutsideOnlyError

#: Hard cap on the number of rings: shell_accel holds one float64 term per
#: ring (80 MB at the cap).
MAX_RINGS = 10**7

# Rings evaluated per block: each temporary of a block is 512 kB.
_RING_BLOCK = 1 << 16


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


def _ring_area(a, theta, w, sin):
    # 2*pi*x*w with x = a*sin(theta): sin is math.sin, or np.sin for an array
    # of theta.  sin(theta) stays a temporary, which NumPy reuses in place.
    return 2.0 * math.pi * (a * sin(theta)) * w


def ring_area(a: float, theta: float, w: float) -> float:
    """Thin-ring surface area 2*pi*x*w, with x = a*sin(theta) the distance
    from the ring to the axis."""
    if not 0.0 < a < math.inf:
        raise DomainError(f"sphere radius must be finite and > 0, got {a}")
    if not (0.0 <= theta <= math.pi):
        raise DomainError(f"polar angle must lie in [0, pi], got {theta}")
    if not (0.0 < w < a):
        raise DomainError(
            f"thin-ring approximation needs 0 < w < a, got w={w}, a={a}"
        )
    return _ring_area(a, theta, w, math.sin)


def _ring_terms(a, d, dtheta, width, scale, terms):
    """Fills terms[i] with the axial pull of ring i of len(terms), the ring
    at polar angle (i + 0.5) * dtheta, _RING_BLOCK rings at a time.

    The NumPy loop: ring_terms in _kick_drift.c is its copy in C, and
    shell_accel runs the one that simulator._kernel binds.
    """
    # At extreme scales s2 or the products overflow or underflow; the sum is
    # then inf or nan, which shell_accel rejects.
    with np.errstate(all="ignore"):
        for start in range(0, len(terms), _RING_BLOCK):
            stop = min(start + _RING_BLOCK, len(terms))
            theta = (np.arange(start, stop) + 0.5) * dtheta
            # Only ring_area checks w < a: with 1 to 3 rings the panels are wider.
            areas = _ring_area(a, theta, width, np.sin)
            cos_t = np.cos(theta)
            s2 = d * d + a * a - 2.0 * a * d * cos_t
            s = np.sqrt(s2)
            axial = (d - a * cos_t) / s
            np.multiply(scale * areas / s2, axial, out=terms[start:stop])


def shell_accel(shell: ShellSpec, d: float, rings: RingDecomposition) -> float:
    """Axial attraction of the shell on an external point at distance d,
    summed over the ring decomposition with the midpoint rule.

    The terms of all rings go into one array, which a single np.sum adds:
    NumPy's pairwise summation order depends on the whole length, so a sum
    of block sums would change the last bits.  The C loop fills that array
    in contiguous chunks, one per CPU this process may use, and each term
    has the bits of the serial loop.
    """
    from . import simulator  # not at the top: simulator imports this module's loop

    if not math.isfinite(d):
        raise DomainError(f"the distance d must be finite, got {d}")
    a = shell.radius
    if d <= a:
        raise OutsideOnlyError(
            f"point must lie outside the shell: d={d:g} <= a={a:g}"
        )
    n = rings.n_rings
    dtheta = math.pi / n
    terms = np.empty(n)
    simulator._kernel.ring_terms(a, d, dtheta, a * dtheta, shell.g * shell.surface_density,
                                 terms)
    with np.errstate(all="ignore"):  # inf + -inf
        total = float(np.sum(terms))
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
    if d <= 0.0:
        raise DomainError(f"distance must be > 0, got {d}")
    d2 = d * d
    if d2 == 0.0:
        raise DomainError(f"d^2 underflows to 0 for d = {d:g}")
    return gm / d2
