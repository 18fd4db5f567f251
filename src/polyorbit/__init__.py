"""polyorbit: two-body orbits under an inverse-square central force.

Closed-form conic solutions from initial conditions, Newton-style
impulse-polygon simulation with exact discrete equal-area sweep, conic
geometry checks, and shell-theorem quadrature.

The names below are exported lazily (PEP 562): the first access to one
imports its submodule, so importing the package loads neither NumPy nor the
numeric modules until a name that needs them is used.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "determination": (
        "CentralField", "ConservedPair", "OrbitSolution", "OrbitState", "apsides",
        "centripetal_accel", "classify_orbit", "conserved_from_state", "csc2_predicted",
        "energy_area", "energy_area_quadrature", "period", "solve_orbit", "speed_at_radius",
    ),
    "errors": (
        "CollisionError", "DegenerateOrbitError", "DomainError", "NoSuchPointError",
        "NotAnEllipseError", "OutsideOnlyError", "UnboundedOrbitError",
        "UnreachableRadiusError",
    ),
    "geometry": (
        "ConicClass", "ConicShape", "EllipseAxes", "ResidualReport", "axes_from_focal",
        "classify_eccentricity", "csc2_alpha", "ellipse_area", "focal_from_axes",
        "geometry_residuals",
    ),
    "planar": ("PlanarVector",),
    "shell": (
        "RingDecomposition", "ShellSpec", "point_mass_accel", "shell_accel", "sphere_accel",
    ),
    "simulator": (
        "DiagnosticsReport", "SimConfig", "Trajectory", "backend", "diagnostics", "integrate",
        "swept_areas",
    ),
}

# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
