"""Acceptance suite: every headline numerical claim, one test per criterion.

Each test prints a single `ACCEPT pass|fail <name>` line (bypassing capture)
so the whole gate can be read off a plain pytest run.
"""

import json
import math
import sys
import time

import numpy as np

from polyorbit import (
    CentralField,
    ConicShape,
    NoSuchPointError,
    OrbitState,
    PlanarVector,
    SimConfig,
    axes_from_focal,
    cli,
    conserved_from_state,
    csc2_alpha,
    csc2_predicted,
    diagnostics,
    ellipse_area,
    energy_area,
    energy_area_quadrature,
    focal_from_axes,
    geometry_residuals,
    integrate,
    solve_orbit,
    speed_at_radius,
    swept_areas,
)
from polyorbit.geometry import conic_point

UNIT_FIELD = CentralField(1.0)


def make_state(r0, v0, alpha_deg):
    a = math.radians(alpha_deg)
    return OrbitState(
        position=PlanarVector(r0, 0.0),
        velocity=PlanarVector(v0 * math.cos(a), v0 * math.sin(a)),
    )


CANONICAL = make_state(1.0, 1.0, 60.0)


def report(name, ok):
    print(f"ACCEPT {'pass' if ok else 'fail'} {name}", file=sys.__stdout__, flush=True)
    assert ok, name


def timed_under(budget, started):
    return (time.perf_counter() - started) < budget


def test_01_moon_regression(capsys):
    started = time.perf_counter()
    code = cli.main(["moon-check"])
    data = json.loads(capsys.readouterr().out)
    ok = (
        code == cli.EXIT_OK
        and abs(data["v"] - 1025.0) / 1025.0 <= 0.01
        and abs(data["a"] - 0.0027) / 0.0027 <= 0.03
        and abs(data["ratio_earth"] - 3.97e14) / 3.97e14 <= 0.01
        and abs(data["ratio_moon"] - 4.00e14) / 4.00e14 <= 0.01
        and timed_under(0.1, started)
    )
    report("moon-regression", ok)


def test_02_exact_discrete_equal_areas():
    started = time.perf_counter()
    traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-4, steps=10**5))
    areas = swept_areas(traj)
    area_dev = float(np.max(np.abs(areas - areas[0])) / areas[0])
    cross = traj.angular_momentum
    cross_dev = float(np.max(np.abs(cross - cross[0])) / abs(cross[0]))
    ok = area_dev < 1e-12 and cross_dev < 1e-12 and timed_under(2.0, started)
    report("exact-discrete-equal-areas", ok)


def test_03_closed_form_vs_simulated():
    started = time.perf_counter()
    ok = True

    traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-4, steps=120000))
    d = diagnostics(traj)
    ok &= abs(d.observed_periapsis - 0.5) / 0.5 < 1e-4
    ok &= abs(d.observed_apoapsis - 1.5) / 1.5 < 1e-4

    # hyperbolic scenario launched inbound so it passes periapsis
    c45 = math.sqrt(2.0) / 2.0
    hyper = OrbitState(PlanarVector(1.0, 0.0), PlanarVector(-2 * c45, 2 * c45))
    traj = integrate(hyper, UNIT_FIELD, SimConfig(dt=1e-4, steps=40000))
    r_min = float(traj.r.min())
    ok &= abs(r_min - (math.sqrt(5.0) - 1.0) / 2.0) < 1e-4

    steps = int(round(2 * math.pi / 1e-4))
    traj = integrate(make_state(1, 1, 90), UNIT_FIELD, SimConfig(dt=1e-4, steps=steps))
    ok &= float(np.max(np.abs(traj.r - 1.0))) < 1e-4

    ok &= timed_under(5.0, started)
    report("closed-form-vs-simulated", bool(ok))


def test_04_csc2_residual_and_convergence():
    residuals = {}
    for dt in (1e-4, 5e-5):
        steps = int(round(2 * math.pi / dt))
        d = diagnostics(integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=dt, steps=steps)))
        residuals[dt] = d.csc2_max_residual
    ok = residuals[1e-4] < 1e-3 and residuals[5e-5] < residuals[1e-4]
    report("csc2-identity-residual", ok)


def test_05_energy_area_law():
    traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-4, steps=70000))
    r = traj.r
    v2 = traj.vx**2 + traj.vy**2
    k_apo = int(np.argmax(r))
    idx = np.arange(0, k_apo, 250)
    sim_change = v2[idx] - v2[0]
    predicted = np.array([
        2.0 * energy_area(UNIT_FIELD, float(r[0]), float(ri)) for ri in r[idx]
    ])
    ok = float(np.max(np.abs(sim_change - predicted))) < 1e-3

    quad = energy_area_quadrature(UNIT_FIELD, 0.5, 1.5, 10**6)
    ok = ok and abs(quad - energy_area(UNIT_FIELD, 0.5, 1.5)) < 1e-8
    report("energy-area-law", ok)


def test_06_kepler3(capsys):
    started = time.perf_counter()
    code = cli.main(["kepler3", "--m", "1", "--count", "6"])
    lines = capsys.readouterr().out.strip().splitlines()
    slope = float(lines[-1].split(",")[1])
    period_ok = all(
        abs(float(t_sim) / float(t_formula) - 1.0) <= 1e-3
        for _, t_formula, t_sim in (row.split(",") for row in lines[1:-1])
    )
    ok = (
        code == cli.EXIT_OK
        and abs(slope - 1.5) <= 5e-3
        and period_ok
        and timed_under(60.0, started)
    )
    report("kepler3-scaling", ok)


def test_07_c_drift_convergence():
    drifts = []
    for dt in (2e-4, 1e-4, 5e-5):
        steps = int(round(2 * math.pi / dt))
        d = diagnostics(integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=dt, steps=steps)))
        drifts.append(d.C_drift)
    ratios = [b / a for a, b in zip(drifts, drifts[1:])]
    ok = all(0.3 < ratio < 0.7 for ratio in ratios)
    report("c-drift-first-order", ok)


def test_08_shell_theorem():
    from polyorbit import RingDecomposition, ShellSpec, point_mass_accel, shell_accel, sphere_accel

    started = time.perf_counter()
    spec = ShellSpec(radius=1.0, total_mass=1.0, g=1.0)
    ok = True
    for d in (1.5, 2.0, 4.0, 8.0):
        exact = point_mass_accel(1.0, d)
        computed = shell_accel(spec, d, RingDecomposition(10**4))
        ok &= abs(computed - exact) / exact < 1e-6

    exact = point_mass_accel(1.0, 2.0)
    err_n = abs(shell_accel(spec, 2.0, RingDecomposition(500)) - exact)
    err_4n = abs(shell_accel(spec, 2.0, RingDecomposition(2000)) - exact)
    ok &= 12.0 < err_n / err_4n < 20.0

    solid = sphere_accel(1.0, 1.0, 1.0, 2.0, 100, RingDecomposition(2000))
    ok &= abs(solid - exact) / exact < 1e-5

    ok &= timed_under(1.0, started)
    report("shell-theorem", bool(ok))


def test_09_conic_geometry_suite():
    started = time.perf_counter()
    ok = True
    for e, a_o in ((0.3, 2.0), (0.5, 1.5), (0.9, 4.0)):
        axes = axes_from_focal(e, a_o)
        e_back, a_o_back = focal_from_axes(axes)
        ok &= abs(e_back - e) < 1e-12 and abs(a_o_back - a_o) / a_o < 1e-12
        ok &= abs(
            ellipse_area(e, a_o) - math.pi * axes.semi_major * axes.semi_minor
        ) / ellipse_area(e, a_o) < 1e-12

    for e in (0.1, 0.5, 0.9, 1.0, 1.5, 3.0):
        rep = geometry_residuals(ConicShape(e, 1.0), 100)
        ok &= rep.max_residual < 1e-9

    ok &= timed_under(1.0, started)
    report("conic-geometry-suite", bool(ok))


def test_10_csv_determinism(tmp_path, capsys):
    argv = [
        "simulate", "--m", "1", "--r0", "1", "--v0", "1", "--alpha0", "60",
        "--dt", "1e-4", "--steps", "5000",
    ]
    outputs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code = cli.main(argv + ["--out", str(path)])
        capsys.readouterr()
        assert code == cli.EXIT_OK
        outputs.append(path.read_bytes())
    report("csv-determinism", outputs[0] == outputs[1])


def test_11_conserved_pair_fixes_the_conic():
    started = time.perf_counter()
    ok = True

    # The tangent-angle law from the pair, csc^2(alpha) = (C/Q) r^2 + (2m/Q) r,
    # is the focus-directrix law of the solved conic.
    sol = solve_orbit(CANONICAL, UNIT_FIELD)
    for r in (0.5, 0.75, 1.0, 1.25, 1.5):
        ok &= math.isclose(csc2_predicted(sol.conserved, UNIT_FIELD, r),
                           csc2_alpha(sol.shape, r), rel_tol=1e-12, abs_tol=1e-12)

    # A state anywhere on the solved conic, with the speed and tangent angle
    # the pair gives at its radius, has that pair: two ellipses and a
    # hyperbola, every 5 degrees of polar angle that has a point.
    for r0, v0, alpha in ((1.0, 1.0, 60.0), (2.0, 0.9, 110.0), (1.0, 2.0, 45.0)):
        sol = solve_orbit(make_state(r0, v0, alpha), UNIT_FIELD)
        pair = sol.conserved
        for k in range(72):
            try:
                p = conic_point(sol.shape, math.radians(5.0 * k - 180.0))
            except NoSuchPointError:  # beyond the hyperbola's asymptotes
                continue
            r = p.norm()
            v = speed_at_radius(pair, UNIT_FIELD, r)
            sin_a = 1.0 / math.sqrt(csc2_predicted(pair, UNIT_FIELD, r))
            cos_a = math.sqrt(max(0.0, 1.0 - sin_a * sin_a))
            r_hat = p.unit()
            phi_hat = PlanarVector(-r_hat.y, r_hat.x)
            vel = v * (cos_a * r_hat + sin_a * phi_hat)
            back = conserved_from_state(OrbitState(p, vel), UNIT_FIELD)
            ok &= math.isclose(back.C, pair.C, rel_tol=1e-10, abs_tol=1e-10)
            ok &= math.isclose(back.Q, pair.Q, rel_tol=1e-10)

    # A polygon step sweeps sweep_rate * dt = sqrt(Q)/2 * dt: its kick lies
    # along the radius, so it leaves cross(p, v) as it was.
    dt = 1e-6
    traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=dt, steps=100))
    pair = conserved_from_state(CANONICAL, UNIT_FIELD)
    ok &= math.isclose(swept_areas(traj)[0], pair.sweep_rate * dt, rel_tol=1e-12)

    ok &= timed_under(1.0, started)
    report("conserved-pair-fixes-the-conic", bool(ok))


def test_12_period_second_order_half_kick():
    # The canonical launch with its velocity half a kick back, v0 - a0 dt/2
    # with a0 = -m p / r^3 at the launch, so that the first kick lands on
    # the mid-step velocity: the period read off the periapsides, the
    # polygon's nearest vertices, converges at second order in dt.
    started = time.perf_counter()
    x, y = CANONICAL.position.x, CANONICAL.position.y
    k = UNIT_FIELD.m / math.hypot(x, y) ** 3
    errors = []
    for dt in (2e-3, 1e-3, 5e-4):
        launch = OrbitState(CANONICAL.position,
                            PlanarVector(CANONICAL.velocity.x + k * x * dt / 2.0,
                                         CANONICAL.velocity.y + k * y * dt / 2.0))
        steps = math.ceil(2.2 * 2.0 * math.pi / dt)  # two periapsides
        d = diagnostics(integrate(launch, UNIT_FIELD, SimConfig(dt=dt, steps=steps)))
        errors.append(abs(d.observed_period - 2.0 * math.pi))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    ok = all(3.0 < ratio < 5.0 for ratio in ratios) and timed_under(2.0, started)
    report("period-second-order-half-kick", ok)
