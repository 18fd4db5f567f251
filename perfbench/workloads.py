"""The benchmark's workloads: the argv lists each one passes to
``polyorbit.cli.main``, drawn from the seed, and the checks their outputs
must pass.

Seed 0 gives the reference argv; any other seed draws the launch parameters
from fixed ranges on which every command succeeds.  The amount of work (steps,
samples, rings) never depends on the seed, so runs with different seeds stay
comparable.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

SIMULATE_STEPS = 200_000
CSV_HEADER = b"t,x,y,vx,vy,r,v,alpha\n"
SWEPT_AREA_LIMIT = 1e-12
RESIDUAL_LIMIT = 1e-9


@dataclass(frozen=True)
class Output:
    """What one ``cli.main`` call left behind."""

    exit_code: int | None
    stdout: str
    error: str | None = None  # the exception that escaped cli.main, if any


def _draw(rng: random.Random, seed: int, default: float, low: float, high: float) -> str:
    if seed == 0:
        return repr(default)
    return repr(round(rng.uniform(low, high), 3))


def _json(out: Output) -> dict:
    return json.loads(out.stdout)


class Workload:
    """A seeded list of CLI commands that one iteration runs in order.

    ``work_count`` names the traced count that ``steps_per_s`` divides by
    wall time; ``layers`` are the layers the traced run must see called.
    """

    name = ""
    work_count = ""
    layers: tuple[str, ...] = ()
    commands: list[list[str]]

    def check(self, outputs: list[Output]) -> list[str]:
        """Errors found in one iteration's outputs; empty when it passed."""
        errors = []
        for argv, out in zip(self.commands, outputs):
            if out.error is not None:
                errors.append(f"{argv[0]}: raised {out.error}")
            elif out.exit_code != 0:
                errors.append(f"{argv[0]}: exit code {out.exit_code}")
        if errors:
            return errors
        try:
            return self.check_outputs(outputs)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]

    def check_outputs(self, outputs: list[Output]) -> list[str]:
        return []


class SimulateFull(Workload):
    """Simulate and export every step as CSV."""

    name = "simulate_full"
    work_count = "kernel.steps"
    layers = ("cli", "integrate", "kernel", "write_csv", "diagnostics")

    def __init__(self, seed: int, scratch: str):
        rng = random.Random(seed)
        self.out = os.path.join(scratch, "trajectory.csv")
        self.commands = [[
            "simulate", "--m", "1", "--r0", "1", "--v0", "1",
            "--alpha0", _draw(rng, seed, 60.0, 50.0, 70.0),
            "--dt", "1e-4", "--steps", str(SIMULATE_STEPS), "--out", self.out,
        ]]
        self._digest: str | None = None

    def check_outputs(self, outputs):
        errors = []
        deviation = _json(outputs[0])["max_swept_area_deviation"]
        if not (isinstance(deviation, float) and deviation < SWEPT_AREA_LIMIT):
            errors.append(f"max_swept_area_deviation {deviation!r} is not < {SWEPT_AREA_LIMIT}")
        digest, header, rows = _scan_csv(self.out)
        if header != CSV_HEADER:
            errors.append(f"CSV header {header!r}")
        if rows != SIMULATE_STEPS + 1:
            errors.append(f"CSV has {rows} data rows, expected {SIMULATE_STEPS + 1}")
        if self._digest is None:
            self._digest = digest
        elif digest != self._digest:
            errors.append("CSV bytes differ from the first iteration's")
        return errors


def _scan_csv(path: str) -> tuple[str, bytes, int]:
    """SHA-256, first line and data-row count of a CSV, read in chunks."""
    sha = hashlib.sha256()
    newlines = 0
    with open(path, "rb") as fh:
        header = fh.readline()
        sha.update(header)
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            sha.update(chunk)
            newlines += chunk.count(b"\n")
    return sha.hexdigest(), header, newlines


class Kepler3Scan(Workload):
    """Six full-record orbits with diagnostics on each, nothing exported.

    ``kepler3`` exits non-zero itself when a period misses its formula by more
    than 1e-3 or the fitted slope misses 1.5 by more than 5e-3.
    """

    name = "kepler3_scan"
    work_count = "kernel.steps"
    layers = ("cli", "integrate", "kernel", "diagnostics")

    def __init__(self, seed: int, scratch: str):
        rng = random.Random(seed)
        self.commands = [["kepler3", "--m", _draw(rng, seed, 1.0, 0.5, 2.0), "--count", "6"]]


class ConicChecks(Workload):
    """Closed-form and geometric checks: residual loops, ring sum, classify."""

    name = "conic_checks"
    work_count = "geometry_residuals.samples"
    layers = ("cli", "geometry_residuals", "shell_accel", "solve_orbit")

    def __init__(self, seed: int, scratch: str):
        rng = random.Random(seed)
        ell = _draw(rng, seed, 0.75, 0.5, 1.0)
        eccentricities = [_draw(rng, seed, 0.5, 0.3, 0.7), "1", _draw(rng, seed, 1.5, 1.2, 1.8)]
        self.alpha0 = float(_draw(rng, seed, 60.0, 30.0, 150.0))
        self.commands = [
            ["geometry-check", "--e", e, "--ell", ell, "--samples", "50000"]
            for e in eccentricities
        ] + [
            ["shell-check", "--a", "1", "--mass", "1", "--g", "1",
             "--d", _draw(rng, seed, 2.0, 1.6, 3.0), "--rings", "1000000"],
            ["classify", "--m", "1", "--r0", "1", "--v0", "1", "--alpha0", repr(self.alpha0)],
            ["moon-check"],
        ]
        self.expected_orbit = self._solve_orbit(self.alpha0)
        # With m = r0 = v0 = 1 the orbit is an ellipse of semi-major axis 1:
        # C = -1, Q = sin^2(alpha), e = |cos(alpha)|, T = 2 pi.
        alpha = math.radians(self.alpha0)
        e = abs(math.cos(alpha))
        self.formula_orbit = {
            "C": -1.0, "Q": math.sin(alpha) ** 2, "e": e, "ell": math.sin(alpha) ** 2,
            "semi_major": 1.0, "semi_minor": math.sin(alpha), "period": 2.0 * math.pi,
            "periapsis": 1.0 - e, "apoapsis": 1.0 + e,
        }

    @staticmethod
    def _solve_orbit(alpha0_deg: float) -> dict:
        from polyorbit import determination
        from polyorbit.planar import PlanarVector

        # The launch state classify builds from r0 = v0 = 1, m = 1.
        alpha = math.radians(alpha0_deg)
        state = determination.OrbitState(
            position=PlanarVector(1.0, 0.0),
            velocity=PlanarVector(math.cos(alpha), math.sin(alpha)),
        )
        solution = determination.solve_orbit(state, determination.CentralField(1.0))
        return json.loads(json.dumps(solution.as_dict()))

    def check_outputs(self, outputs):
        errors = []
        for argv, out in zip(self.commands[:3], outputs[:3]):
            residual = _json(out)["max_residual"]
            if not residual <= RESIDUAL_LIMIT:
                errors.append(f"geometry-check --e {argv[2]}: max_residual {residual!r}")
        orbit = _json(outputs[4])
        if orbit != self.expected_orbit:
            errors.append("classify output differs from solve_orbit")
        for key, value in self.formula_orbit.items():
            if not math.isclose(orbit[key], value, rel_tol=1e-9, abs_tol=1e-9):
                errors.append(f"classify {key} {orbit[key]!r}, the formula gives {value!r}")
        if _json(outputs[5])["pass"] is not True:
            errors.append("moon-check did not pass")
        return errors


WORKLOADS = {w.name: w for w in (SimulateFull, Kepler3Scan, ConicChecks)}
