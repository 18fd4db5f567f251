"""Tests for the impulse-polygon simulator and its diagnostics."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyorbit import (
    CentralField,
    CollisionError,
    DomainError,
    OrbitState,
    PlanarVector,
    SimConfig,
    backend,
    diagnostics,
    integrate,
    solve_orbit,
    step,
    swept_areas,
    uniform_accel_displacement,
    uniform_accel_displacement_sum,
)
from polyorbit import _propagate_py
from polyorbit.simulator import _CSV_BLOCK_ROWS, CSV_HEADER, MAX_SAMPLES, Trajectory

UNIT_FIELD = CentralField(1.0)


def make_state(r0, v0, alpha_deg):
    a = math.radians(alpha_deg)
    return OrbitState(
        position=PlanarVector(r0, 0.0),
        velocity=PlanarVector(v0 * math.cos(a), v0 * math.sin(a)),
    )


CANONICAL = make_state(1.0, 1.0, 60.0)

# A launch where a hypot/r*r*r step and the kernel's sqrt(r2)/r2*r step
# differ in the last bit of vx.
ROUNDING_SENSITIVE = OrbitState(
    position=PlanarVector(-0.10255468462619409, 0.28669936474634045),
    velocity=PlanarVector(-0.3122066137899723, -0.2561309219401078),
)


class TestStep:
    def test_single_step_hand_oracle(self):
        # kick f = m/r^3*dt = 1e-3 at r = 1, then drift; worked by hand
        out = step(CANONICAL, UNIT_FIELD, 1e-3)
        assert out.velocity.x == pytest.approx(0.499, rel=1e-15)
        assert out.velocity.y == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-15)
        assert out.position.x == pytest.approx(1.000499, rel=1e-15)
        assert out.position.y == pytest.approx(0.0008660254037844386, rel=1e-15)
        assert abs(out.r - 1.0) < 1.2e-3

    def test_zero_field_limit(self):
        tiny = CentralField(1e-300)
        out = step(CANONICAL, tiny, 1e-3)
        expected = CANONICAL.position + 1e-3 * CANONICAL.velocity
        assert out.position.x == pytest.approx(expected.x, rel=1e-14)
        assert out.position.y == pytest.approx(expected.y, rel=1e-14)

    def test_impulse_antiparallel_to_position(self):
        out = step(CANONICAL, UNIT_FIELD, 1e-3)
        dv = out.velocity - CANONICAL.velocity
        assert abs(dv.unit().cross(CANONICAL.position.unit())) < 1e-15
        assert dv.dot(CANONICAL.position) < 0.0

    def test_collision_radius(self):
        close = OrbitState(PlanarVector(1e-12, 0.0), PlanarVector(0.0, 1.0))
        with pytest.raises(CollisionError) as exc_info:
            step(close, UNIT_FIELD, 1e-3)
        # same step index integrate(steps=1) reports
        assert exc_info.value.step == 1

    @pytest.mark.parametrize(
        "dt, collision_radius",
        [(-1e-3, 1e-9), (0.0, 1e-9), (1e-3, math.nan)],
        ids=["negative-dt", "zero-dt", "nan-radius"],
    )
    def test_bad_inputs_rejected(self, dt, collision_radius):
        with pytest.raises(DomainError):
            step(CANONICAL, UNIT_FIELD, dt, collision_radius=collision_radius)

    @pytest.mark.parametrize(
        "state, m, dt",
        [(CANONICAL, 1.0, 1e-3),
         (ROUNDING_SENSITIVE, 3.3562627079848544, 0.007187745212957374)],
        ids=["canonical", "rounding-sensitive"],
    )
    def test_matches_kernel(self, state, m, dt):
        field = CentralField(m)
        traj = integrate(state, field, SimConfig(dt=dt, steps=1))
        out = step(state, field, dt)
        assert traj.x[1] == out.position.x
        assert traj.y[1] == out.position.y
        assert traj.vx[1] == out.velocity.x
        assert traj.vy[1] == out.velocity.y


class TestIntegrate:
    def test_canonical_apsides(self):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-4, steps=130000))
        r = traj.r
        assert r.min() == pytest.approx(0.5, rel=1e-4)
        assert r.max() == pytest.approx(1.5, rel=1e-4)

    def test_circular_stays_circular(self):
        steps = int(2 * math.pi / 1e-4)
        traj = integrate(make_state(1, 1, 90), UNIT_FIELD, SimConfig(dt=1e-4, steps=steps))
        assert np.max(np.abs(traj.r - 1.0)) < 1e-4

    def test_hyperbolic_escapes(self):
        # inward launch so the periapsis lies ahead of the start
        c45 = math.sqrt(2.0) / 2.0
        state = OrbitState(PlanarVector(1.0, 0.0), PlanarVector(-2 * c45, 2 * c45))
        traj = integrate(state, UNIT_FIELD, SimConfig(dt=1e-4, steps=100000))
        r = traj.r
        periapsis = (math.sqrt(5.0) - 1.0) / 2.0
        assert r.min() > periapsis - 1e-4
        k = int(np.argmin(r))
        assert np.all(np.diff(r[k:]) > 0.0)

    def test_sample_times_accumulate(self):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=0.5, steps=10))
        assert np.all(np.diff(traj.t) > 0.0)
        assert traj.t[0] == 0.0
        assert traj.t[-1] == pytest.approx(5.0, rel=1e-14)

    def test_decimation(self):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-3, steps=100, record_every=10))
        assert len(traj) == 11
        assert traj.is_decimated

    def test_collision_reports_step(self):
        # head-on with a slight transverse component so Q > 0; the step
        # length near r = 0.05 is ~0.012, so the guard disk cannot be skipped
        state = OrbitState(PlanarVector(1.0, 0.0), PlanarVector(-10.0, 1e-8))
        with pytest.raises(CollisionError) as exc_info:
            integrate(state, UNIT_FIELD, SimConfig(dt=1e-3, steps=10**4, collision_radius=0.05))
        assert exc_info.value.step > 0

    def test_step_cap(self):
        with pytest.raises(DomainError):
            SimConfig(dt=1e-3, steps=10**9)
        with pytest.raises(DomainError):
            SimConfig(dt=1e-3, steps=1, collision_radius=math.nan)

    def test_sample_cap(self):
        # only the config is built: integrate would preallocate 5 x 80 MB
        SimConfig(dt=1e-3, steps=MAX_SAMPLES - 1)
        with pytest.raises(DomainError, match="record_every"):
            SimConfig(dt=1e-3, steps=MAX_SAMPLES)
        with pytest.raises(DomainError):
            SimConfig(dt=1e-3, steps=10**8)
        SimConfig(dt=1e-3, steps=10**8, record_every=20)


class TestBackends:
    def test_backend_reported(self):
        assert backend() == "python"

    def test_python_kernel_matches_active_backend(self):
        cfg = SimConfig(dt=1e-3, steps=5000)
        traj = integrate(CANONICAL, UNIT_FIELD, cfg)
        t, x, y, vx, vy, collided = _propagate_py.propagate_kernel(
            CANONICAL.position.x, CANONICAL.position.y,
            CANONICAL.velocity.x, CANONICAL.velocity.y,
            1.0, cfg.dt, cfg.steps, 1, cfg.collision_radius,
        )
        assert collided == -1
        # the two kernels are operation-identical; results match bitwise
        assert np.array_equal(traj.x, x)
        assert np.array_equal(traj.y, y)
        assert np.array_equal(traj.vx, vx)
        assert np.array_equal(traj.vy, vy)


class TestSweptAreas:
    def test_exactly_equal(self):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-4, steps=10**5))
        areas = swept_areas(traj)
        assert np.max(np.abs(areas - areas[0]) / areas[0]) < 1e-12

    def test_first_area_is_post_impulse_triangle(self):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-3, steps=10))
        v1 = PlanarVector(float(traj.vx[1]), float(traj.vy[1]))
        expected = 0.5 * abs(CANONICAL.position.cross(v1)) * 1e-3
        assert swept_areas(traj)[0] == pytest.approx(expected, rel=1e-14)

    def test_small_dt_limit_is_sweep_rate(self):
        # area per step -> (sqrt(Q)/2) * dt
        dt = 1e-6
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=dt, steps=100))
        w = math.sqrt(0.75) / 2.0
        assert swept_areas(traj)[0] == pytest.approx(w * dt, rel=1e-5)

    def test_decimated_rejected(self):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-3, steps=100, record_every=10))
        with pytest.raises(DomainError):
            swept_areas(traj)


class TestDiagnostics:
    def test_canonical(self):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-4, steps=120000))
        d = diagnostics(traj)
        assert d.Q_drift < 1e-12
        assert d.C_drift < 5e-4
        assert d.csc2_max_residual < 1e-3
        assert d.observed_periapsis == pytest.approx(0.5, rel=1e-4)
        assert d.observed_apoapsis == pytest.approx(1.5, rel=1e-4)
        assert d.observed_period == pytest.approx(2 * math.pi, rel=1e-3)

    def test_first_order_convergence(self):
        drifts = {}
        for dt in (1e-4, 5e-5):
            steps = int(round(2 * math.pi / dt))
            d = diagnostics(integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=dt, steps=steps)))
            drifts[dt] = d.C_drift
        assert 0.3 < drifts[5e-5] / drifts[1e-4] < 0.7

    def test_circular_residual_against_unity(self):
        steps = int(2 * math.pi / 1e-4)
        d = diagnostics(integrate(make_state(1, 1, 90), UNIT_FIELD, SimConfig(dt=1e-4, steps=steps)))
        assert d.csc2_max_residual < 1e-3

    def test_too_few_passages_gives_no_period(self):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-4, steps=1000))
        assert diagnostics(traj).observed_period is None

    def test_too_few_samples_rejected(self):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-4, steps=5))
        with pytest.raises(DomainError):
            diagnostics(traj)

    def test_json_field_names(self):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-4, steps=1000))
        d = diagnostics(traj).as_dict()
        assert list(d) == [
            "max_swept_area_deviation", "Q_drift", "C_drift", "csc2_max_residual",
            "observed_periapsis", "observed_apoapsis", "observed_period",
        ]


class TestTrajectoryConicAgreement:
    def _max_radial_deviation(self, dt):
        steps = int(round(2 * math.pi / dt))
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=dt, steps=steps))
        sol = solve_orbit(CANONICAL, UNIT_FIELD)
        e = sol.shape.eccentricity
        ell = sol.shape.semi_latus_rectum
        # eccentricity vector gives the periapsis direction in the sim frame
        p0, v0 = CANONICAL.position, CANONICAL.velocity
        r0 = p0.norm()
        ex = (v0.dot(v0) - 1.0 / r0) * p0.x - p0.dot(v0) * v0.x
        ey = (v0.dot(v0) - 1.0 / r0) * p0.y - p0.dot(v0) * v0.y
        e_norm = math.hypot(ex, ey)
        r = traj.r
        cos_f = (traj.x * ex + traj.y * ey) / (r * e_norm)
        r_conic = ell / (1.0 + e * np.clip(cos_f, -1.0, 1.0))
        return float(np.max(np.abs(r - r_conic)))

    def test_samples_lie_on_solved_conic(self):
        assert self._max_radial_deviation(1e-4) < 1e-3

    def test_deviation_shrinks_with_dt(self):
        assert self._max_radial_deviation(5e-5) < self._max_radial_deviation(1e-4)


class TestEnergyAreaAlongTrajectory:
    def test_v2_change_matches_closed_form(self):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-4, steps=120000))
        r = traj.r
        v2 = traj.vx**2 + traj.vy**2
        # monotone outward arc: launch (alpha=60 deg) to first apoapsis
        k_apo = int(np.argmax(r[:70000]))
        idx = np.arange(0, k_apo, 500)
        lhs = v2[idx] - v2[0]
        rhs = 2.0 * (1.0 / r[idx] - 1.0 / r[0])
        assert np.max(np.abs(lhs - rhs)) < 1e-3

    def test_boundedness_matches_classification(self):
        # C < 0 stays within apoapsis + delta; C > 0 exceeds any fixed radius
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-3, steps=20000))
        assert traj.r.max() < 1.5 + 1e-2
        hyper = make_state(1.0, 2.0, 45.0)
        traj = integrate(hyper, UNIT_FIELD, SimConfig(dt=1e-3, steps=20000))
        assert traj.r.max() > 20.0


class TestUniformAccel:
    def test_closed_form(self):
        assert uniform_accel_displacement(2.0, 3.0) == 9.0

    def test_zero_accel(self):
        assert uniform_accel_displacement(0.0, 5.0) == 0.0

    def test_discrete_sum_converges(self):
        approx = uniform_accel_displacement_sum(1.0, 1.0, 10**6)
        assert approx == pytest.approx(0.5, abs=1e-6)

    def test_discrete_sum_closed_form(self):
        # the partial sum equals a*T^2*N(N+1)/(2N^2)
        n = 1000
        assert uniform_accel_displacement_sum(2.0, 3.0, n) == pytest.approx(
            2.0 * 9.0 * n * (n + 1) / (2.0 * n * n), rel=1e-12
        )


class TestCsvExport:
    def test_header_and_shape(self):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-3, steps=10))
        buf = io.StringIO()
        traj.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 12
        assert all(len(line.split(",")) == 8 for line in lines[1:])

    def test_round_trip_precision(self):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-3, steps=10))
        buf = io.StringIO()
        traj.write_csv(buf)
        row = buf.getvalue().splitlines()[5].split(",")
        assert float(row[1]) == traj.x[4]
        assert float(row[3]) == traj.vx[4]

    def test_deterministic(self):
        out = []
        for _ in range(2):
            traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-3, steps=100))
            buf = io.StringIO()
            traj.write_csv(buf)
            out.append(buf.getvalue())
        assert out[0] == out[1]

    # The per-value writer that write_csv replaced, kept as the byte oracle.
    @staticmethod
    def reference_csv(traj):
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        r, v, alpha = traj.r, traj.speed, traj.alpha
        for i in range(len(traj.t)):
            row = (traj.t[i], traj.x[i], traj.y[i], traj.vx[i], traj.vy[i],
                   r[i], v[i], alpha[i])
            buf.write(",".join(f"{val:.17g}" for val in row) + "\n")
        return buf.getvalue()

    @staticmethod
    def written_csv(traj):
        buf = io.StringIO()
        traj.write_csv(buf)
        return buf.getvalue()

    @pytest.mark.parametrize("rows", [
        _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS + 1,
    ])
    def test_matches_reference_across_blocks(self, rows):
        traj = integrate(CANONICAL, UNIT_FIELD, SimConfig(dt=1e-3, steps=rows - 1))
        assert len(traj) == rows
        assert self.written_csv(traj) == self.reference_csv(traj)

    def test_matches_reference_decimated(self):
        traj = integrate(CANONICAL, UNIT_FIELD,
                         SimConfig(dt=1e-3, steps=3 * _CSV_BLOCK_ROWS, record_every=7))
        assert self.written_csv(traj) == self.reference_csv(traj)

    EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                   1e308, -1e308, math.inf, -math.inf, math.nan, 1.0, -0.1]

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_matches_reference_on_edge_values(self, data):
        n = data.draw(st.integers(1, 2 * _CSV_BLOCK_ROWS + 3))
        value = st.one_of(st.sampled_from(self.EDGE_VALUES), st.floats())
        cols = [np.array(data.draw(st.lists(value, min_size=n, max_size=n)))
                for _ in range(5)]
        traj = Trajectory(*cols, field=UNIT_FIELD,
                          config=SimConfig(dt=1e-3, steps=max(n - 1, 1)))
        with np.errstate(all="ignore"):  # r, v, alpha of inf/nan columns
            assert self.written_csv(traj) == self.reference_csv(traj)
