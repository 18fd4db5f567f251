"""Command-line front end: scenario runs, regression checks, data export.

Exit codes: 0 success, 1 check failure (residual over tolerance), 2 usage
error, 3 numeric error (collision, domain).  Angles are given in degrees on
the command line; the core works in radians.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import determination, geometry, shell, simulator
from .errors import CollisionError, DomainError
from .planar import PlanarVector

# SI constants of the moon/earth regression, as printed in the source text.
MOON_ORBIT_RADIUS = 3.85e8       # m
MOON_PERIOD = 2_358_720          # s (27.3 days)
EARTH_SURFACE_GRAVITY = 9.8      # m/s^2
EARTH_RADIUS = 6.367e6           # m

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _print_json(obj: dict) -> None:
    # Standard JSON has no NaN or Infinity; a non-finite result is a numeric error.
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"result is not finite: {exc}") from None
    print(text)


def _round_significant(x: float, figures: int) -> float:
    if x == 0.0:
        return 0.0
    return round(x, figures - 1 - math.floor(math.log10(abs(x))))


def _make_state(r0: float, v0: float, alpha0_deg: float) -> determination.OrbitState:
    if not (0.0 < alpha0_deg < 180.0):
        raise DomainError(
            f"launch angle must lie strictly between 0 and 180 degrees, got {alpha0_deg}"
        )
    alpha = math.radians(alpha0_deg)
    return determination.OrbitState(
        position=PlanarVector(r0, 0.0),
        velocity=PlanarVector(v0 * math.cos(alpha), v0 * math.sin(alpha)),
    )


# The type each --config key must have: the argparse type of its flag.
# A JSON integer is accepted where a float is; a JSON bool never is.
_CONFIG_TYPES = {
    "m": float, "r0": float, "v0": float, "alpha0": float, "dt": float,
    "steps": int, "decimate": int, "out": str,
}


def _config_value(key: str, value, parser: argparse.ArgumentParser):
    kind = _CONFIG_TYPES[key]
    accepted = (int, float) if kind is float else kind
    if isinstance(value, accepted) and not isinstance(value, bool):
        try:
            return kind(value)
        except OverflowError:  # a JSON integer beyond the double range
            pass
    parser.error(f"--config: {key} must be {kind.__name__}, got {value!r}")


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser,
                  keys: list[str]) -> None:
    # --config supplies defaults; explicit flags win.
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config) as fh:
            conf = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON
        parser.error(f"--config: cannot read {args.config}: {exc}")
    if not isinstance(conf, dict):
        parser.error("--config: file must hold a JSON object")
    for key in keys:
        if getattr(args, key, None) is None and key in conf:
            setattr(args, key, _config_value(key, conf[key], parser))


def _require(args: argparse.Namespace, parser: argparse.ArgumentParser, keys: list[str]) -> None:
    missing = [k for k in keys if getattr(args, k) is None]
    if missing:
        parser.error(f"missing required value(s): {', '.join('--' + k for k in missing)}")


def _cmd_classify(args, parser) -> int:
    _apply_config(args, parser, ["m", "r0", "v0", "alpha0"])
    _require(args, parser, ["m", "r0", "v0", "alpha0"])
    state = _make_state(args.r0, args.v0, args.alpha0)
    solution = determination.solve_orbit(state, determination.CentralField(args.m))
    _print_json(solution.as_dict())
    return EXIT_OK


def _cmd_simulate(args, parser) -> int:
    _apply_config(args, parser, ["m", "r0", "v0", "alpha0", "dt", "steps", "decimate", "out"])
    _require(args, parser, ["m", "r0", "v0", "alpha0", "dt", "steps", "out"])
    state = _make_state(args.r0, args.v0, args.alpha0)
    record_every = 1 if args.decimate is None else args.decimate
    config = simulator.SimConfig(dt=args.dt, steps=args.steps, record_every=record_every)
    traj = simulator.integrate(state, determination.CentralField(args.m), config)
    try:
        fh = open(args.out, "w")
    except OSError as exc:
        parser.error(f"--out: cannot write {args.out!r}: {exc}")
    with fh:
        traj.write_csv(fh)
    _print_json(simulator.diagnostics(traj).as_dict())
    return EXIT_OK


def _cmd_kepler3(args, parser) -> int:
    """Scan elliptical orbits (e = 0.5, apoapsis launch) over geometrically
    spaced semi-major axes; fit log T against log X."""
    field = determination.CentralField(args.m)
    count = args.count
    if count < 2:
        parser.error("--count must be at least 2")
    x_values = [0.5 * (16.0 / 0.5) ** (i / (count - 1)) for i in range(count)]

    rows = []
    ok = True
    print("X,T_formula,T_simulated")
    for x in x_values:
        c = -field.m / x
        t_formula = 2.0 * math.pi * field.m / (-c) ** 1.5
        r0 = 1.5 * x                      # apoapsis of the e = 0.5 ellipse
        v0 = math.sqrt(c + 2.0 * field.m / r0)
        state = _make_state(r0, v0, 90.0)
        dt = 1e-5 * t_formula
        steps = int(math.ceil(1.7 * t_formula / dt))
        traj = simulator.integrate(state, field, simulator.SimConfig(dt=dt, steps=steps))
        t_sim = simulator.diagnostics(traj).observed_period
        if t_sim is None:
            ok = False
            t_sim = math.nan
        elif abs(t_sim / t_formula - 1.0) > 1e-3:
            ok = False
        rows.append((x, t_sim))
        print(f"{x:.17g},{t_formula:.17g},{t_sim:.17g}")

    slope = float(np.polyfit(np.log([x for x, _ in rows]),
                             np.log([t for _, t in rows]), 1)[0])
    print(f"slope,{slope:.17g}")
    if abs(slope - 1.5) > 5e-3:
        ok = False
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_shell_check(args, parser) -> int:
    spec = shell.ShellSpec(radius=args.a, total_mass=args.mass, g=args.g)
    computed = shell.shell_accel(spec, args.d, shell.RingDecomposition(args.rings))
    exact = shell.point_mass_accel(args.g * args.mass, args.d)
    rel_error = abs(computed - exact) / exact
    near_surface = args.d < 1.5 * args.a  # integrand peaks; tolerance not guaranteed
    out = {
        "a": args.a,
        "M": args.mass,
        "g": args.g,
        "d": args.d,
        "n_rings": args.rings,
        "computed": computed,
        "exact": exact,
        "rel_error": rel_error,
    }
    if near_surface:
        out["near_surface"] = True
    _print_json(out)
    if rel_error > args.tol and not near_surface:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_moon_check(args, parser) -> int:
    """Reproduce the moon/earth inverse-square regression with its published
    SI constants.

    The published moon-side product a*R^2 was formed from the acceleration
    rounded to two significant figures, so the replication rounds the same
    way before multiplying.
    """
    v = 2.0 * math.pi * MOON_ORBIT_RADIUS / MOON_PERIOD
    a = determination.centripetal_accel(v, MOON_ORBIT_RADIUS)
    a_rounded = _round_significant(a, 2)
    ratio_moon = a_rounded * MOON_ORBIT_RADIUS**2
    ratio_earth = EARTH_SURFACE_GRAVITY * EARTH_RADIUS**2

    checks = {
        "v_within_1pct_of_1025": abs(v - 1025.0) / 1025.0 <= 0.01,
        "a_within_3pct_of_0.0027": abs(a - 0.0027) / 0.0027 <= 0.03,
        "earth_ratio_within_1pct_of_3.97e14": abs(ratio_earth - 3.97e14) / 3.97e14 <= 0.01,
        "moon_ratio_within_1pct_of_4.00e14": abs(ratio_moon - 4.00e14) / 4.00e14 <= 0.01,
        "ratios_within_1pct_of_each_other": abs(ratio_moon - ratio_earth) / ratio_earth <= 0.01,
    }
    passed = all(checks.values())
    _print_json({
        "v": v,
        "a": a,
        "a_two_figures": a_rounded,
        "ratio_earth": ratio_earth,
        "ratio_moon": ratio_moon,
        "checks": checks,
        "pass": passed,
    })
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_geometry_check(args, parser) -> int:
    shape = geometry.ConicShape(eccentricity=args.e, semi_latus_rectum=args.ell)
    report = geometry.geometry_residuals(shape, args.samples)
    _print_json(report.as_dict())
    return EXIT_OK if report.max_residual <= args.tol else EXIT_CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyorbit",
        description="Two-body orbit toolkit: closed-form conic solutions, "
                    "impulse-polygon simulation, and geometric checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="closed-form orbit solution from initial conditions")
    p.add_argument("--m", type=float, help="field strength of a(r) = m/r^2")
    p.add_argument("--r0", type=float, help="initial distance")
    p.add_argument("--v0", type=float, help="initial speed")
    p.add_argument("--alpha0", type=float, help="launch angle in degrees, in (0, 180)")
    p.add_argument("--config", help="JSON file with the same keys as the flags")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("simulate", help="run the impulse-polygon simulator, export CSV")
    p.add_argument("--m", type=float)
    p.add_argument("--r0", type=float)
    p.add_argument("--v0", type=float)
    p.add_argument("--alpha0", type=float, help="launch angle in degrees")
    p.add_argument("--dt", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--decimate", type=int, help="record every k-th sample")
    p.add_argument("--out", help="trajectory CSV output path")
    p.add_argument("--config", help="JSON file with the same keys as the flags")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("kepler3", help="period vs semi-major-axis scaling scan")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=_cmd_kepler3)

    p = sub.add_parser("shell-check", help="ring-sum shell attraction vs point mass")
    p.add_argument("--a", type=float, required=True, help="shell radius")
    p.add_argument("--mass", type=float, required=True)
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--d", type=float, required=True, help="distance of the test point")
    p.add_argument("--rings", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_shell_check)

    p = sub.add_parser("moon-check", help="moon/earth inverse-square regression")
    p.set_defaults(func=_cmd_moon_check)

    p = sub.add_parser("geometry-check", help="conic property residuals")
    p.add_argument("--e", type=float, required=True)
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_geometry_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (DomainError, CollisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
