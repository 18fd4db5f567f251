"""Command-line front end: scenario runs, regression checks, data export.

Exit codes: 0 success, 1 check failure (residual over tolerance), 2 usage
error, 3 numeric error (collision, domain).  Angles are given in degrees on
the command line; the core works in radians.

Each command imports the modules it runs when it runs, so --help, a usage
error, classify and moon-check start without NumPy.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import stat
import sys

from .errors import CollisionError, DomainError

# SI constants of the moon/earth regression, as printed in the source text.
MOON_ORBIT_RADIUS = 3.85e8       # m
MOON_PERIOD = 2_358_720          # s (27.3 days)
EARTH_SURFACE_GRAVITY = 9.8      # m/s^2
EARTH_RADIUS = 6.367e6           # m

# kepler3 records every 400th of its ~170k steps per orbit, 0.4% of a period;
# the kernel keeps the states around each turning point, so the periods
# diagnostics reports are those of a full record.
KEPLER3_RECORD_EVERY = 400

# kepler3 integrates --count orbits of about 170k steps each: 1000 orbits
# are about 1.7e8 steps, and a larger count is a usage error (exit 2).
KEPLER3_MAX_COUNT = 1000

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _json_text(obj: dict) -> str:
    # Standard JSON has no NaN or Infinity; a non-finite result is a numeric error.
    try:
        return json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"result is not finite: {exc}") from None


def _print_json(obj: dict) -> None:
    print(_json_text(obj))


def _round_significant(x: float, figures: int) -> float:
    if x == 0.0:
        return 0.0
    return round(x, figures - 1 - math.floor(math.log10(abs(x))))


def _make_state(r0: float, v0: float, alpha0_deg: float):
    from . import determination
    from .planar import PlanarVector

    # A negative v0 would reverse the launch, as alpha0 + 180 deg would.
    if not (r0 > 0.0 and v0 > 0.0):
        raise DomainError(f"launch distance and speed must be > 0, got r0={r0}, v0={v0}")
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
    from . import determination

    _apply_config(args, parser, ["m", "r0", "v0", "alpha0"])
    _require(args, parser, ["m", "r0", "v0", "alpha0"])
    state = _make_state(args.r0, args.v0, args.alpha0)
    solution = determination.solve_orbit(state, determination.CentralField(args.m))
    _print_json(solution.as_dict())
    return EXIT_OK


def _cmd_simulate(args, parser) -> int:
    from . import determination, simulator

    _apply_config(args, parser, ["m", "r0", "v0", "alpha0", "dt", "steps", "decimate", "out"])
    _require(args, parser, ["m", "r0", "v0", "alpha0", "dt", "steps", "out"])
    state = _make_state(args.r0, args.v0, args.alpha0)
    record_every = 1 if args.decimate is None else args.decimate
    config = simulator.SimConfig(dt=args.dt, steps=args.steps, record_every=record_every)
    traj = simulator.integrate(state, determination.CentralField(args.m), config)
    # Every check runs before the export, so a failed run writes nothing.
    report = _json_text(simulator.diagnostics(traj).as_dict())
    _export_csv(traj, args.out, parser)
    print(report)
    return EXIT_OK


def _export_csv(traj, path: str, parser: argparse.ArgumentParser) -> None:
    try:
        try:
            old = os.lstat(path)
        except FileNotFoundError:
            old = None
        if old is None or _replaceable(old):
            _replace_with_csv(traj, path, old)
        else:
            with open(path, "wb") as fh:
                traj.write_csv(fh)
    except OSError as exc:
        parser.error(f"--out: cannot write {path!r}: {exc}")


def _replaceable(old: os.stat_result) -> bool:
    # A new file renamed over `path` differs from the old one only in its
    # inode if the old one is a regular file with one link and our owner and
    # group.  A device, a FIFO, a symlink or a shared file is written through.
    return (stat.S_ISREG(old.st_mode) and old.st_nlink == 1
            and old.st_uid == os.geteuid() and old.st_gid == os.getegid())


def _replace_with_csv(traj, path: str, old: os.stat_result | None) -> None:
    # Write a new file beside `path`, then rename it over `path`: an export
    # that fails leaves no partial file and an old `path` as it was.
    tmp = os.path.join(os.path.dirname(path), f".polyorbit-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # less the umask, as open()
    try:
        with os.fdopen(fd, "wb") as fh:
            if old is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(old.st_mode))
            traj.write_csv(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _cmd_kepler3(args, parser) -> int:
    """Scan elliptical orbits (e = 0.5, apoapsis launch) over geometrically
    spaced semi-major axes; fit log T against log X."""
    import numpy as np

    from . import determination, simulator

    field = determination.CentralField(args.m)
    count = args.count
    if not 2 <= count <= KEPLER3_MAX_COUNT:
        parser.error(f"--count must be in [2, {KEPLER3_MAX_COUNT}], got {count}")
    x_values = [0.5 * (16.0 / 0.5) ** (i / (count - 1)) for i in range(count)]

    # Every orbit is set up, and its formula period checked, before the
    # first one is integrated.
    orbits = []
    for x in x_values:
        # The e = 0.5 ellipse of semi-major axis x: C = -m/x, ell = 0.75 x.
        pair = determination.ConservedPair(C=-field.m / x, Q=0.75 * x * field.m)
        t_formula = determination.period(pair, field)
        r0 = 1.5 * x                      # apoapsis of the e = 0.5 ellipse
        v0 = math.sqrt(pair.C + 2.0 * field.m / r0)
        state = _make_state(r0, v0, 90.0)
        dt = 1e-5 * t_formula
        steps = int(math.ceil(1.7 * t_formula / dt))
        config = simulator.SimConfig(dt=dt, steps=steps, record_every=KEPLER3_RECORD_EVERY)
        orbits.append((x, t_formula, state, config))

    rows = []
    ok = True
    print("X,T_formula,T_simulated")
    for x, t_formula, state, config in orbits:
        traj = simulator.integrate(state, field, config)
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


def _require_tolerance(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    # A NaN tolerance would pass every check: residual > nan is False.
    if not args.tol >= 0.0:
        parser.error(f"--tol must be >= 0, got {args.tol}")


def _cmd_shell_check(args, parser) -> int:
    from . import shell

    _require_tolerance(args, parser)
    spec = shell.ShellSpec(radius=args.a, total_mass=args.mass, g=args.g)
    computed = shell.shell_accel(spec, args.d, shell.RingDecomposition(args.rings))
    exact = shell.point_mass_accel(args.g * args.mass, args.d)
    if not 0.0 < exact < math.inf:
        raise DomainError(
            f"the point-mass value gM/d^2 = {exact:g} is outside the double range, "
            "so the relative error is undefined"
        )
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
    from . import determination

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
    from . import geometry

    _require_tolerance(args, parser)
    shape = geometry.ConicShape(eccentricity=args.e, semi_latus_rectum=args.ell)
    report = geometry.geometry_residuals(shape, args.samples)
    _print_json(report.as_dict())
    return EXIT_OK if report.max_residual <= args.tol else EXIT_CHECK_FAILED


@functools.cache  # built on the first main() call, then reused: parsing keeps no state
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
    p.set_defaults(func=_cmd_classify, parser=p)

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
    p.set_defaults(func=_cmd_simulate, parser=p)

    p = sub.add_parser("kepler3", help="period vs semi-major-axis scaling scan")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=_cmd_kepler3, parser=p)

    p = sub.add_parser("shell-check", help="ring-sum shell attraction vs point mass")
    p.add_argument("--a", type=float, required=True, help="shell radius")
    p.add_argument("--mass", type=float, required=True)
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--d", type=float, required=True, help="distance of the test point")
    p.add_argument("--rings", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_shell_check, parser=p)

    p = sub.add_parser("moon-check", help="moon/earth inverse-square regression")
    p.set_defaults(func=_cmd_moon_check, parser=p)

    p = sub.add_parser("geometry-check", help="conic property residuals")
    p.add_argument("--e", type=float, required=True)
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_geometry_check, parser=p)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # A handler's usage errors print its own subcommand's usage.
        return args.func(args, args.parser)
    except (DomainError, CollisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
