"""Tests for conserved quantities and closed-form orbit determination."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyorbit import (
    CentralField,
    ConicClass,
    ConicShape,
    ConservedPair,
    DegenerateOrbitError,
    DomainError,
    NoSuchPointError,
    OrbitState,
    PlanarVector,
    UnboundedOrbitError,
    UnreachableRadiusError,
    apsides,
    centripetal_accel,
    classify_orbit,
    conserved_from_state,
    csc2_alpha,
    csc2_predicted,
    energy_area,
    energy_area_quadrature,
    period,
    radius_at_angle,
    ring_area,
    solve_orbit,
    speed_at_radius,
    speed_squared_change,
)
from polyorbit.geometry import conic_point, sample_points

UNIT_FIELD = CentralField(1.0)


def make_state(r0, v0, alpha_deg):
    a = math.radians(alpha_deg)
    return OrbitState(
        position=PlanarVector(r0, 0.0),
        velocity=PlanarVector(v0 * math.cos(a), v0 * math.sin(a)),
    )


CANONICAL = make_state(1.0, 1.0, 60.0)       # C = -1, Q = 0.75, e = 0.5
ESCAPE = make_state(1.0, math.sqrt(2), 90.0)  # C = 0, Q = 2
CIRCULAR = make_state(1.0, 1.0, 90.0)         # C = -1, Q = 1


class TestConservedFromState:
    def test_canonical(self):
        pair = conserved_from_state(CANONICAL, UNIT_FIELD)
        assert pair.C == pytest.approx(-1.0, rel=1e-14)
        assert pair.Q == pytest.approx(0.75, rel=1e-14)

    def test_escape_speed(self):
        pair = conserved_from_state(ESCAPE, UNIT_FIELD)
        assert pair.C == pytest.approx(0.0, abs=1e-15)
        assert pair.Q == pytest.approx(2.0, rel=1e-14)

    def test_circular(self):
        pair = conserved_from_state(CIRCULAR, UNIT_FIELD)
        assert pair.C == pytest.approx(-1.0, rel=1e-14)
        assert pair.Q == pytest.approx(1.0, rel=1e-14)

    def test_sweep_rate_is_half_root_q(self):
        pair = ConservedPair(C=-1.0, Q=0.75)
        assert pair.sweep_rate == pytest.approx(math.sqrt(0.75) / 2.0)
        assert pair.time_per_area == pytest.approx(2.0 / math.sqrt(0.75))

    def test_direction_symmetric(self):
        cw = OrbitState(PlanarVector(1, 0), PlanarVector(0.5, -math.sqrt(3) / 2))
        pair_cw = conserved_from_state(cw, UNIT_FIELD)
        pair_ccw = conserved_from_state(CANONICAL, UNIT_FIELD)
        assert pair_cw.Q == pytest.approx(pair_ccw.Q, rel=1e-14)
        assert pair_cw.C == pytest.approx(pair_ccw.C, rel=1e-14)


class TestClassifyOrbit:
    def test_ellipse(self):
        assert classify_orbit(ConservedPair(-1.0, 0.75), UNIT_FIELD) is ConicClass.ELLIPSE

    def test_parabola(self):
        assert classify_orbit(ConservedPair(0.0, 2.0), UNIT_FIELD) is ConicClass.PARABOLA

    def test_circle(self):
        assert classify_orbit(ConservedPair(-1.0, 1.0), UNIT_FIELD) is ConicClass.CIRCLE

    def test_hyperbola(self):
        assert classify_orbit(ConservedPair(2.0, 2.0), UNIT_FIELD) is ConicClass.HYPERBOLA

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(DomainError):
            classify_orbit(ConservedPair(-2.0, 1.0), UNIT_FIELD)

    @given(
        r=st.floats(0.1, 50.0),
        v=st.floats(0.05, 10.0),
        alpha=st.floats(0.01, math.pi - 0.01),
        m=st.floats(0.1, 10.0),
    )
    def test_conserved_pair_bound(self, r, v, alpha, m):
        # QC + m^2 >= 0 for every physical state (equality only when circular)
        state = OrbitState(
            PlanarVector(r, 0.0),
            PlanarVector(v * math.cos(alpha), v * math.sin(alpha)),
        )
        field = CentralField(m)
        pair = conserved_from_state(state, field)
        assert pair.Q * pair.C + m * m >= -1e-12 * m * m
        classify_orbit(pair, field)  # must never raise for a real state


class TestSolveOrbit:
    def test_canonical_ellipse(self):
        sol = solve_orbit(CANONICAL, UNIT_FIELD)
        assert sol.conic_class is ConicClass.ELLIPSE
        assert sol.shape.eccentricity == pytest.approx(0.5, rel=1e-12)
        assert sol.aO == pytest.approx(1.5, rel=1e-12)
        assert sol.shape.semi_latus_rectum == pytest.approx(0.75, rel=1e-14)
        assert sol.periapsis == pytest.approx(0.5, rel=1e-12)
        assert sol.apoapsis == pytest.approx(1.5, rel=1e-12)
        assert sol.semi_major == pytest.approx(1.0, rel=1e-12)
        assert sol.semi_minor == pytest.approx(math.sqrt(0.75), rel=1e-12)
        assert sol.period == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_hyperbola(self):
        sol = solve_orbit(make_state(1.0, 2.0, 45.0), UNIT_FIELD)
        assert sol.conic_class is ConicClass.HYPERBOLA
        assert sol.shape.eccentricity == pytest.approx(math.sqrt(5.0), rel=1e-12)
        assert sol.aO == pytest.approx(2.0 / math.sqrt(5.0), rel=1e-12)
        assert sol.periapsis == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, rel=1e-12)
        assert sol.apoapsis is None
        assert sol.period is None

    def test_circle(self):
        sol = solve_orbit(CIRCULAR, UNIT_FIELD)
        assert sol.conic_class is ConicClass.CIRCLE
        assert sol.shape.eccentricity == 0.0
        assert sol.periapsis == pytest.approx(1.0, rel=1e-12)
        assert sol.apoapsis == pytest.approx(1.0, rel=1e-12)
        assert sol.period == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_radial_launch_rejected(self):
        radial = OrbitState(PlanarVector(1.0, 0.0), PlanarVector(1.0, 0.0))
        with pytest.raises(DegenerateOrbitError):
            solve_orbit(radial, UNIT_FIELD)

    def test_ellipse_apsis_axis_identities(self):
        sol = solve_orbit(make_state(1.0, 0.9, 75.0), UNIT_FIELD)
        assert sol.periapsis + sol.apoapsis == pytest.approx(2.0 * sol.semi_major, rel=1e-12)
        assert sol.periapsis == pytest.approx(
            sol.semi_major * (1.0 - sol.shape.eccentricity), rel=1e-12
        )
        assert sol.apoapsis == pytest.approx(
            sol.semi_major * (1.0 + sol.shape.eccentricity), rel=1e-12
        )

    def test_json_keys(self):
        d = solve_orbit(CANONICAL, UNIT_FIELD).as_dict()
        assert list(d) == ["class", "e", "ell", "aO", "periapsis", "apoapsis",
                           "semi_major", "semi_minor", "period", "C", "Q", "m"]
        assert d["class"] == "ellipse"


class TestApsides:
    def test_ellipse(self):
        assert apsides(ConservedPair(-1.0, 0.75), UNIT_FIELD) == pytest.approx((0.5, 1.5))

    def test_parabola(self):
        r_min, r_max = apsides(ConservedPair(0.0, 2.0), UNIT_FIELD)
        assert r_min == pytest.approx(1.0)
        assert r_max is None

    def test_hyperbola(self):
        r_min, r_max = apsides(ConservedPair(2.0, 2.0), UNIT_FIELD)
        assert r_min == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, rel=1e-14)
        assert r_max is None

    def test_radial_rejected(self):
        with pytest.raises(DegenerateOrbitError):
            apsides(ConservedPair(-1.0, 0.0), UNIT_FIELD)


class TestPeriod:
    def test_canonical(self):
        assert period(ConservedPair(-1.0, 0.75), UNIT_FIELD) == pytest.approx(2 * math.pi)

    def test_c_056(self):
        assert period(ConservedPair(-0.56, 0.5), UNIT_FIELD) == pytest.approx(
            14.993320610381371, rel=1e-12
        )

    def test_scaling(self):
        t1 = period(ConservedPair(-1.0, 0.75), UNIT_FIELD)
        t2 = period(ConservedPair(-0.5, 0.75), UNIT_FIELD)
        assert t2 / t1 == pytest.approx(2.0**1.5, rel=1e-12)

    def test_unbounded_rejected(self):
        with pytest.raises(UnboundedOrbitError):
            period(ConservedPair(0.0, 2.0), UNIT_FIELD)

    @pytest.mark.parametrize("c, m", [
        (-1e300, 1.0),     # (-C)^1.5 raises OverflowError
        (-1e-300, 1.0),    # (-C)^1.5 underflows to 0
        (-1e-200, 1e150),  # T overflows to inf
        (-1e200, 1e-100),  # T underflows to 0
        (-1e-214, 1e-300),  # (-C)^1.5 is subnormal; T = 6e21 would have lost bits
    ], ids=["power-overflow", "power-underflow", "period-overflow", "period-underflow",
            "power-subnormal"])
    def test_outside_double_range_rejected(self, c, m):
        with pytest.raises(DomainError, match="period"):
            period(ConservedPair(c, 1.0), CentralField(m))

    def test_kepler3_constant(self):
        # T^2 / X^3 = 4 pi^2 / m across orbits of one field
        m = 2.7
        field = CentralField(m)
        for c in (-0.3, -1.0, -2.5):
            pair = ConservedPair(c, 0.5)
            x = m / (-c)
            t = period(pair, field)
            assert t * t / x**3 == pytest.approx(4 * math.pi**2 / m, rel=1e-10)


class TestCsc2Predicted:
    def test_launch_state(self):
        val = csc2_predicted(ConservedPair(-1.0, 0.75), UNIT_FIELD, 1.0)
        assert val == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert 1.0 / math.sqrt(val) == pytest.approx(math.sin(math.radians(60)), rel=1e-12)

    def test_unity_at_periapsis(self):
        assert csc2_predicted(ConservedPair(-1.0, 0.75), UNIT_FIELD, 0.5) == pytest.approx(1.0)

    def test_circular_always_unity(self):
        assert csc2_predicted(ConservedPair(-1.0, 1.0), UNIT_FIELD, 1.0) == pytest.approx(1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            csc2_predicted(ConservedPair(-1.0, 0.75), UNIT_FIELD, 2.0)

    def test_interior_above_unity(self):
        pair = ConservedPair(-1.0, 0.75)
        for r in (0.6, 1.0, 1.4):
            assert csc2_predicted(pair, UNIT_FIELD, r) > 1.0

    def test_matches_conic_geometry(self):
        # Theorem-level coefficient matching: conserved-pair prediction equals
        # the focus-directrix csc^2 of the solved shape.
        sol = solve_orbit(CANONICAL, UNIT_FIELD)
        pair = sol.conserved
        for r in (0.5, 0.75, 1.0, 1.25, 1.5):
            assert csc2_predicted(pair, UNIT_FIELD, r) == pytest.approx(
                csc2_alpha(sol.shape, r), rel=1e-12, abs=1e-12
            )


class TestSpeedAtRadius:
    def test_periapsis_speed(self):
        v = speed_at_radius(ConservedPair(-1.0, 0.75), UNIT_FIELD, 0.5)
        assert v == pytest.approx(math.sqrt(3.0), rel=1e-14)

    def test_apoapsis_speed(self):
        v = speed_at_radius(ConservedPair(-1.0, 0.75), UNIT_FIELD, 1.5)
        assert v == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-14)

    def test_angular_momentum_constancy_across_apsides(self):
        pair = ConservedPair(-1.0, 0.75)
        r_min, r_max = apsides(pair, UNIT_FIELD)
        h_min = r_min * speed_at_radius(pair, UNIT_FIELD, r_min)
        h_max = r_max * speed_at_radius(pair, UNIT_FIELD, r_max)
        assert h_min == pytest.approx(math.sqrt(pair.Q), rel=1e-12)
        assert h_max == pytest.approx(math.sqrt(pair.Q), rel=1e-12)

    def test_parabolic_limit(self):
        assert speed_at_radius(ConservedPair(0.0, 2.0), UNIT_FIELD, 1e12) == pytest.approx(
            0.0, abs=2e-6
        )

    def test_unreachable_rejected(self):
        with pytest.raises(UnreachableRadiusError):
            speed_at_radius(ConservedPair(-1.0, 0.75), UNIT_FIELD, 10.0)


@pytest.mark.parametrize("call, error", [
    (lambda: radius_at_angle(ConicShape(0.5, 0.75), math.nan), NoSuchPointError),
    (lambda: csc2_alpha(ConicShape(0.5, 0.75), math.nan), DomainError),
    (lambda: csc2_alpha(ConicShape(0.5, 0.75), math.inf), DomainError),
    (lambda: csc2_predicted(ConservedPair(-1.0, 0.75), UNIT_FIELD, math.nan), DomainError),
    (lambda: speed_at_radius(ConservedPair(-1.0, 0.75), UNIT_FIELD, math.nan), DomainError),
    (lambda: ring_area(math.inf, 0.0, 0.1), DomainError),
    (lambda: speed_at_radius(ConservedPair(math.nan, 0.75), UNIT_FIELD, 1.0), DomainError),
    (lambda: apsides(ConservedPair(math.nan, 0.75), UNIT_FIELD), DomainError),
    (lambda: period(ConservedPair(-1.0, math.nan), UNIT_FIELD), DomainError),
], ids=["radius_at_angle-nan", "csc2_alpha-nan", "csc2_alpha-inf", "csc2_predicted-nan",
        "speed_at_radius-nan", "ring_area-inf", "speed_at_radius-nan-C", "apsides-nan-C",
        "period-nan-Q"])
def test_no_input_gives_a_silent_nan(call, error):
    with pytest.raises(error):
        call()


class TestEnergyArea:
    def test_basic(self):
        assert energy_area(UNIT_FIELD, 2.0, 1.0) == pytest.approx(0.5, rel=1e-14)
        assert speed_squared_change(UNIT_FIELD, 2.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_empty_interval(self):
        assert energy_area(UNIT_FIELD, 1.5, 1.5) == 0.0

    def test_antisymmetry(self):
        assert energy_area(UNIT_FIELD, 1.0, 2.0) == pytest.approx(-0.5, rel=1e-14)

    def test_quadrature_converges(self):
        approx = energy_area_quadrature(UNIT_FIELD, 2.0, 1.0, 10**6)
        assert approx == pytest.approx(0.5, abs=1e-8)

    def test_quadrature_signed(self):
        approx = energy_area_quadrature(UNIT_FIELD, 1.0, 2.0, 10**5)
        assert approx == pytest.approx(-0.5, abs=1e-8)

    def test_quadrature_second_order(self):
        e1 = abs(energy_area_quadrature(UNIT_FIELD, 2.0, 1.0, 100) - 0.5)
        e2 = abs(energy_area_quadrature(UNIT_FIELD, 2.0, 1.0, 400) - 0.5)
        assert 12.0 < e1 / e2 < 20.0

    def test_bad_radius_rejected(self):
        with pytest.raises(DomainError):
            energy_area(UNIT_FIELD, -1.0, 1.0)


class TestCentripetalAccel:
    def test_moon_numbers(self):
        assert centripetal_accel(1025.0, 3.85e8) == pytest.approx(0.002729, abs=2e-6)

    def test_zero_speed(self):
        assert centripetal_accel(0.0, 1.0) == 0.0

    def test_unit(self):
        assert centripetal_accel(1.0, 1.0) == 1.0

    def test_bad_radius(self):
        with pytest.raises(DomainError):
            centripetal_accel(1.0, 0.0)


class TestConservationClosure:
    @pytest.mark.parametrize("r0,v0,alpha", [(1.0, 1.0, 60.0), (2.0, 0.9, 110.0), (1.0, 2.0, 45.0)])
    def test_states_on_solved_conic_reproduce_pair(self, r0, v0, alpha):
        state = make_state(r0, v0, alpha)
        sol = solve_orbit(state, UNIT_FIELD)
        pair = sol.conserved
        for _, p in sample_points(sol.shape, 37):
            r = p.norm()
            v = speed_at_radius(pair, UNIT_FIELD, r)
            sin_a = 1.0 / math.sqrt(csc2_predicted(pair, UNIT_FIELD, r))
            cos_a = math.sqrt(max(0.0, 1.0 - sin_a * sin_a))
            r_hat = p.unit()
            phi_hat = PlanarVector(-r_hat.y, r_hat.x)
            vel = v * (cos_a * r_hat + sin_a * phi_hat)
            back = conserved_from_state(OrbitState(p, vel), UNIT_FIELD)
            assert back.C == pytest.approx(pair.C, rel=1e-10, abs=1e-10)
            assert back.Q == pytest.approx(pair.Q, rel=1e-10)

    def test_ellipse_area_identity(self):
        # area of the solved ellipse equals pi * m * sqrt(Q) / (-C)^(3/2)
        from polyorbit import ellipse_area

        sol = solve_orbit(CANONICAL, UNIT_FIELD)
        pair = sol.conserved
        expected = math.pi * UNIT_FIELD.m * math.sqrt(pair.Q) / (-pair.C) ** 1.5
        assert ellipse_area(sol.shape.eccentricity, sol.aO) == pytest.approx(
            expected, rel=1e-12
        )
