"""polyorbit: two-body orbits under an inverse-square central force.

Closed-form conic solutions from initial conditions, Newton-style
impulse-polygon simulation with exact discrete equal-area sweep, conic
geometry checks, and shell-theorem quadrature.
"""

from .determination import (
    CentralField,
    ConservedPair,
    OrbitSolution,
    OrbitState,
    apsides,
    centripetal_accel,
    classify_orbit,
    conserved_from_state,
    csc2_predicted,
    energy_area,
    energy_area_quadrature,
    period,
    solve_orbit,
    speed_at_radius,
    speed_squared_change,
)
from .errors import (
    CollisionError,
    DegenerateOrbitError,
    DomainError,
    NoSuchPointError,
    NotAnEllipseError,
    OutsideOnlyError,
    UnboundedOrbitError,
    UnreachableRadiusError,
)
from .geometry import (
    ConicClass,
    ConicShape,
    EllipseAxes,
    ResidualReport,
    axes_from_focal,
    classify_eccentricity,
    csc2_alpha,
    ellipse_area,
    focal_from_axes,
    geometry_residuals,
    radius_at_angle,
    sample_points,
)
from .planar import PlanarVector
from .shell import (
    RingDecomposition,
    ShellSpec,
    point_mass_accel,
    ring_area,
    shell_accel,
    sphere_accel,
)
from .simulator import (
    DiagnosticsReport,
    SimConfig,
    Trajectory,
    backend,
    diagnostics,
    integrate,
    step,
    swept_areas,
    uniform_accel_displacement,
    uniform_accel_displacement_sum,
)

__version__ = "0.1.0"
