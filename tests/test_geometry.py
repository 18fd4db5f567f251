"""Tests for the focus-directrix conic module."""

import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyorbit import (
    ConicClass,
    ConicShape,
    DomainError,
    EllipseAxes,
    NoSuchPointError,
    NotAnEllipseError,
    PlanarVector,
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
from polyorbit import _propagate_py, geometry, simulator
from polyorbit.geometry import (
    _PARALLEL_EPS,
    _RESIDUAL_BLOCK,
    _branch_anomaly_limit,
    _polar_form,
    _second_focus,
    conic_point,
)


CANONICAL = ConicShape(eccentricity=0.5, semi_latus_rectum=0.75)  # aO = 1.5


def scalar_thetas(shape, n):
    f_lim = _branch_anomaly_limit(shape)
    if shape.eccentricity < 1.0:
        return [-0.5 * math.pi + 2.0 * f_lim * i / n for i in range(n)]
    return [-0.5 * math.pi - f_lim + 2.0 * f_lim * i / (n - 1) for i in range(n)]


# Oracles: radius_at_angle and conic_point written out on math.sin/math.cos,
# apart from the polar form geometry shares with its array path, and the
# analytic tangent, which only tests use.
def reference_radius_at_angle(shape, theta):
    e = shape.eccentricity
    if e == 0.0:
        raise DomainError("polar form requires e > 0 (a circle has no directrix)")
    denom = 1.0 - e * math.sin(theta)
    if denom <= 0.0:
        raise NoSuchPointError(
            f"no point at theta={theta:g}: 1 - e*sin(theta) = {denom:g} <= 0 "
            "(beyond the asymptote / open side of the branch)"
        )
    return shape.semi_latus_rectum / denom


def reference_conic_point(shape, theta):
    r = reference_radius_at_angle(shape, theta)
    return PlanarVector(r * math.cos(theta), r * math.sin(theta))


def conic_tangent(shape, theta):
    """Analytic tangent dP/dtheta at polar angle theta (not normalized)."""
    e, ell = shape.eccentricity, shape.semi_latus_rectum
    r = reference_radius_at_angle(shape, theta)
    dr = e * math.cos(theta) * r * r / ell
    c, s = math.cos(theta), math.sin(theta)
    return PlanarVector(dr * c - r * s, dr * s + r * c)


class TestClassify:
    def test_ellipse(self):
        assert classify_eccentricity(0.5) is ConicClass.ELLIPSE

    def test_parabola(self):
        assert classify_eccentricity(1.0) is ConicClass.PARABOLA

    def test_circle(self):
        assert classify_eccentricity(0.0) is ConicClass.CIRCLE

    def test_hyperbola(self):
        assert classify_eccentricity(3.0) is ConicClass.HYPERBOLA

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            classify_eccentricity(-0.1)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            classify_eccentricity(math.nan)

    def test_order_tracks_eccentricity(self):
        assert ConicClass.CIRCLE < ConicClass.ELLIPSE < ConicClass.PARABOLA < ConicClass.HYPERBOLA


class TestRadiusAtAngle:
    def test_periapsis(self):
        assert radius_at_angle(CANONICAL, -math.pi / 2) == pytest.approx(0.5, rel=1e-14)

    def test_apoapsis(self):
        assert radius_at_angle(CANONICAL, math.pi / 2) == pytest.approx(1.5, rel=1e-14)

    def test_semi_latus_rectum_at_zero(self):
        assert radius_at_angle(CANONICAL, 0.0) == pytest.approx(0.75, rel=1e-15)

    def test_open_branch_rejected(self):
        # e = 2: asymptote at sin(theta) = 1/2
        shape = ConicShape(2.0, 1.0)
        with pytest.raises(NoSuchPointError):
            radius_at_angle(shape, math.pi / 2)

    def test_circle_rejected(self):
        with pytest.raises(DomainError):
            radius_at_angle(ConicShape(0.0, 1.0), 0.0)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf])
    @pytest.mark.parametrize("at", [radius_at_angle, conic_point])
    def test_infinite_angle_has_no_point(self, at, theta):
        # math.sin(+-inf) would raise a bare ValueError; such an angle names no point
        with pytest.raises(NoSuchPointError, match=f"no point at theta={theta:g}"):
            at(CANONICAL, theta)

    @pytest.mark.parametrize("e,ell", [(0.3, 0.5), (1.0, 1e-300), (2.0, 1e300), (1e6, 1.0)])
    def test_matches_reference_bitwise(self, e, ell):
        shape = ConicShape(e, ell)
        for theta in scalar_thetas(shape, 101):
            assert radius_at_angle(shape, theta) == reference_radius_at_angle(shape, theta)
            assert conic_point(shape, theta) == reference_conic_point(shape, theta)


class TestCsc2Alpha:
    def test_unity_at_periapsis(self):
        assert csc2_alpha(CANONICAL, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_unity_at_apoapsis(self):
        assert csc2_alpha(CANONICAL, 1.5) == pytest.approx(1.0, abs=1e-12)

    def test_interior_value(self):
        # sin^2(alpha) = 0.8 at the semi-latus rectum radius
        assert csc2_alpha(CANONICAL, 0.75) == pytest.approx(1.25, rel=1e-14)

    def test_out_of_range_names_interval(self):
        with pytest.raises(DomainError, match=r"\[0\.5, 1\.5\]"):
            csc2_alpha(CANONICAL, 3.0)

    def test_at_least_one_between_apsides(self):
        for frac in (0.01, 0.3, 0.77, 0.99):
            r = 0.5 + frac * (1.5 - 0.5)
            assert csc2_alpha(CANONICAL, r) >= 1.0 - 1e-12


class TestAxes:
    def test_canonical(self):
        axes = axes_from_focal(0.5, 1.5)
        assert axes.semi_major == pytest.approx(1.0, rel=1e-14)
        assert axes.semi_minor == pytest.approx(math.sqrt(0.75), rel=1e-14)

    def test_e06(self):
        axes = axes_from_focal(0.6, 1.0)
        assert axes.semi_major == pytest.approx(0.9375, rel=1e-14)
        assert axes.semi_minor == pytest.approx(0.75, rel=1e-14)

    def test_circle_limit(self):
        # e -> 0 with ell = e*aO held at 1
        e = 1e-8
        axes = axes_from_focal(e, 1.0 / e)
        assert axes.semi_major == pytest.approx(1.0, rel=1e-7)
        assert axes.semi_minor == pytest.approx(1.0, rel=1e-7)

    def test_parabola_rejected(self):
        with pytest.raises(NotAnEllipseError):
            axes_from_focal(1.0, 1.0)

    def test_inverse_53(self):
        e, a_o = focal_from_axes(EllipseAxes(5.0, 3.0))
        assert e == pytest.approx(0.8, rel=1e-14)
        assert a_o == pytest.approx(2.25, rel=1e-14)

    def test_inverse_canonical(self):
        e, a_o = focal_from_axes(EllipseAxes(1.0, math.sqrt(0.75)))
        assert e == pytest.approx(0.5, rel=1e-12)
        assert a_o == pytest.approx(1.5, rel=1e-12)

    def test_circle_has_no_directrix(self):
        e, a_o = focal_from_axes(EllipseAxes(2.0, 2.0))
        assert e == 0.0
        assert a_o is None

    def test_swapped_axes_rejected(self):
        with pytest.raises(DomainError):
            EllipseAxes(3.0, 5.0)

    @given(
        e=st.floats(0.01, 0.99),
        a_o=st.floats(0.1, 100.0),
    )
    def test_round_trip(self, e, a_o):
        # X^2 - Y^2 cancels badly as e -> 0, so allow a few lost digits
        axes = axes_from_focal(e, a_o)
        e_back, a_o_back = focal_from_axes(axes)
        assert e_back == pytest.approx(e, rel=1e-9)
        assert a_o_back == pytest.approx(a_o, rel=1e-9)


class TestEllipseArea:
    def test_canonical(self):
        assert ellipse_area(0.5, 1.5) == pytest.approx(2.7206990463513265, rel=1e-14)

    def test_e06(self):
        assert ellipse_area(0.6, 1.0) == pytest.approx(2.2089323345553233, rel=1e-14)

    def test_parabola_rejected(self):
        with pytest.raises(NotAnEllipseError):
            ellipse_area(1.0, 1.0)

    @given(e=st.floats(0.01, 0.99), a_o=st.floats(0.1, 100.0))
    def test_matches_pi_x_y(self, e, a_o):
        axes = axes_from_focal(e, a_o)
        assert ellipse_area(e, a_o) == pytest.approx(
            math.pi * axes.semi_major * axes.semi_minor, rel=1e-12
        )


class TestSamplePoints:
    def test_includes_periapsis(self):
        pts = sample_points(CANONICAL, 4)
        theta0, p0 = pts[0]
        assert theta0 == pytest.approx(-math.pi / 2)
        assert p0.norm() == pytest.approx(0.5, rel=1e-14)

    def test_parabola_branch(self):
        shape = ConicShape(1.0, 1.0)
        for theta, _ in sample_points(shape, 3):
            assert 1.0 - math.sin(theta) > 0.0

    def test_hyperbola_avoids_asymptotes(self):
        shape = ConicShape(2.0, 1.0)
        for theta, _ in sample_points(shape, 8):
            assert 1.0 - 2.0 * math.sin(theta) > 0.0

    def test_too_few_rejected(self):
        with pytest.raises(DomainError):
            sample_points(CANONICAL, 2)

    @pytest.mark.parametrize("e", [0.5, 1.0, 2.0])
    def test_thetas_match_scalar_expression(self, e):
        shape = ConicShape(e, 1.0)
        thetas = [theta for theta, _ in sample_points(shape, 1000)]
        assert thetas == scalar_thetas(shape, 1000)


class TestPolarFormConsistency:
    @pytest.mark.parametrize("e,ell", [(0.3, 0.5), (0.5, 0.75), (1.0, 1.0), (2.0, 1.0)])
    def test_csc2_matches_tangent_angle(self, e, ell):
        # csc^2 from the closed form vs the angle of the analytic tangent
        shape = ConicShape(e, ell)
        for theta, p in sample_points(shape, 50):
            t_hat = conic_tangent(shape, theta).unit()
            sin_a = abs(p.unit().cross(t_hat))
            assert csc2_alpha(shape, p.norm()) == pytest.approx(
                1.0 / sin_a**2, abs=1e-9, rel=1e-9
            )


# The per-sample loop that geometry_residuals replaced, kept as the oracle.
def reference_residuals(shape, n):
    if n < 10:
        raise DomainError(f"need at least 10 samples, got {n}")
    e = shape.eccentricity
    if e == 0.0:
        raise DomainError("residual checks require e > 0")
    if shape.periapsis * shape.periapsis < sys.float_info.min:  # r*r in the tangent underflows
        raise DomainError("ell is too small")
    ell = shape.semi_latus_rectum
    aO = shape.focal_directrix_distance
    kind = shape.conic_class

    if kind is ConicClass.ELLIPSE:
        semi_major = ell / (1.0 - e * e)
        focus2 = PlanarVector(0.0, 2.0 * e * semi_major)
        focal_constant = 2.0 * semi_major
    elif kind is ConicClass.HYPERBOLA:
        semi_major = ell / (e * e - 1.0)
        focus2 = PlanarVector(0.0, -2.0 * e * semi_major)
        focal_constant = 2.0 * semi_major
    else:
        focus2 = None
        focal_constant = None

    focal_res = 0.0
    refl_res = 0.0
    right_res = 0.0
    skipped = 0
    points = [(theta, reference_conic_point(shape, theta)) for theta in scalar_thetas(shape, n)]
    for theta, p in points:
        r = p.norm()
        t_hat = conic_tangent(shape, theta).unit()

        if kind is ConicClass.PARABOLA:
            focal_res = max(focal_res, abs(r - (p.y + aO)))
            other_ray = PlanarVector(0.0, 1.0)
        elif kind is ConicClass.ELLIPSE:
            focal_res = max(focal_res, abs(r + (focus2 - p).norm() - focal_constant))
            other_ray = (focus2 - p).unit()
        else:
            focal_res = max(focal_res, abs(abs((focus2 - p).norm() - r) - focal_constant))
            other_ray = (focus2 - p).unit()

        sin1 = abs(t_hat.cross(p.unit()))
        sin2 = abs(t_hat.cross(other_ray))
        refl_res = max(refl_res, abs(sin1 - sin2))

        if abs(t_hat.y) < _PARALLEL_EPS:
            skipped += 1
            continue
        s = (-aO - p.y) / t_hat.y
        intersection = PlanarVector(p.x + s * t_hat.x, -aO)
        right_res = max(right_res, abs(p.unit().dot(intersection.unit())))

    return ResidualReport(
        conic_class=kind,
        n_samples=n,
        focal_residual=focal_res,
        reflection_residual=refl_res,
        right_angle_residual=right_res,
        right_angle_skipped=skipped,
    )


def assert_matches_reference(shape, n):
    # np.hypot and math.hypot may differ in the last bit.
    tol = 1e-14 * max(1.0, shape.semi_latus_rectum)
    try:
        expected = reference_residuals(shape, n)
    except DomainError as exc:
        with pytest.raises(DomainError) as exc_info:
            geometry_residuals(shape, n)
        assert type(exc_info.value) is type(exc)
        return
    got = geometry_residuals(shape, n)
    assert got.conic_class is expected.conic_class
    assert got.n_samples == expected.n_samples
    assert got.right_angle_skipped == expected.right_angle_skipped
    for field in ("focal_residual", "reflection_residual", "right_angle_residual"):
        assert getattr(got, field) == pytest.approx(getattr(expected, field), rel=0, abs=tol)


class TestGeometryResiduals:
    @pytest.mark.parametrize("e", [0.1, 0.5, 0.9, 1.0, 1.5, 3.0])
    @pytest.mark.parametrize("ell", [0.5, 1.0, 10.0])
    def test_all_below_tolerance(self, e, ell):
        report = geometry_residuals(ConicShape(e, ell), 100)
        assert report.focal_residual < 1e-9
        assert report.reflection_residual < 1e-9
        assert report.right_angle_residual < 1e-9

    def test_parabola_equidistance(self):
        report = geometry_residuals(ConicShape(1.0, 1.0), 100)
        assert report.focal_residual < 1e-9

    def test_hyperbola_focal_difference(self):
        report = geometry_residuals(ConicShape(2.0, 1.0), 100)
        assert report.focal_residual < 1e-9

    def test_too_few_samples_rejected(self):
        with pytest.raises(DomainError):
            geometry_residuals(CANONICAL, 5)

    @pytest.mark.parametrize("e", [0.5, 1.0, 2.0], ids=["ellipse", "parabola", "hyperbola"])
    @pytest.mark.parametrize("n", [
        _RESIDUAL_BLOCK - 1, _RESIDUAL_BLOCK, _RESIDUAL_BLOCK + 1, 2 * _RESIDUAL_BLOCK + 1,
    ])
    def test_matches_reference_across_blocks(self, e, n):
        assert_matches_reference(ConicShape(e, 0.75), n)

    def test_blocks_cover_every_sample_once(self, monkeypatch):
        # the NumPy loops, whose blocks all reach _block_residuals
        monkeypatch.setattr(simulator, "_kernel", _propagate_py)
        seen = []
        block_residuals = _propagate_py._block_residuals

        def spy(shape, theta, *args):
            seen.append(theta.copy())
            return block_residuals(shape, theta, *args)

        monkeypatch.setattr(_propagate_py, "_block_residuals", spy)
        n = 2 * _RESIDUAL_BLOCK + 1
        geometry_residuals(CANONICAL, n)
        assert [len(theta) for theta in seen] == [_RESIDUAL_BLOCK, _RESIDUAL_BLOCK, 1]
        assert np.concatenate(seen).tolist() == scalar_thetas(CANONICAL, n)

    @pytest.mark.parametrize("e", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("ell", [1e-300, 1.0, 1e300])
    def test_matches_reference_on_extreme_scales(self, e, ell):
        assert_matches_reference(ConicShape(e, ell), 100)

    # A periapsis whose square is below the smallest normal double: r*r in
    # the tangent's dr/dtheta is subnormal or 0.  Such shapes used to report
    # a residual of 5.4e-4 (ell = 1e-160) or 0.50 (ell = 1e-170), a false
    # check failure.
    @pytest.mark.parametrize("loops", ["numpy", "c"])
    @pytest.mark.parametrize("e, ell", [(0.5, 1e-156), (0.5, 1e-160), (0.5, 1e-170),
                                        (1.5, 2.3e-154), (3.0, 1e-300), (1e12, 1e-150)])
    def test_tiny_periapsis_rejected_before_any_loop(self, request, monkeypatch, loops, e,
                                                     ell):
        kernel = _propagate_py if loops == "numpy" else request.getfixturevalue("c_library")
        calls = []
        monkeypatch.setattr(kernel, "conic_residuals", lambda *args: calls.append(args))
        monkeypatch.setattr(simulator, "_kernel", kernel)
        with pytest.raises(DomainError, match=rf"^ell must give a periapsis ell / \(1 \+ e\) "
                                              rf"with a square of at least 2.22507e-308, "
                                              rf"got ell = {ell} \(periapsis "):
            geometry_residuals(ConicShape(e, ell), 100)
        assert calls == []

    # The smallest shapes still accepted keep small residuals on both loops.
    @pytest.mark.parametrize("e, ell", [(0.5, 2.3e-154), (1.0, 3e-154), (1.5, 1e-153)])
    def test_smallest_accepted_periapsis_passes(self, c_and_numpy, e, ell):
        shape = ConicShape(e, ell)
        assert shape.periapsis**2 >= sys.float_info.min
        got, want = c_and_numpy(report_outcome, shape, 50000)
        assert got == want
        assert geometry_residuals(shape, 50000).max_residual < 1e-14

    @settings(max_examples=100, deadline=None)
    @given(log_e=st.floats(-12.0, 12.0), log_ell=st.floats(-300.0, 300.0),
           n=st.integers(10, 200))
    def test_matches_reference_on_wide_shapes(self, log_e, log_ell, n):
        assert_matches_reference(ConicShape(10.0**log_e, 10.0**log_ell), n)


def report_outcome(shape, n):
    # The report with its residuals' bits, or the type and message of the error.
    try:
        report = geometry_residuals(shape, n)
    except DomainError as exc:
        return type(exc), str(exc)
    return (report.conic_class, report.n_samples, report.focal_residual.hex(),
            report.reflection_residual.hex(), report.right_angle_residual.hex(),
            report.right_angle_skipped)


def block_outcome(shape, n, focus2_y, focal_constant):
    # The installed residual loop on all n samples, or its error; under the
    # errstate of geometry_residuals.
    try:
        with np.errstate(all="ignore"):
            focal, reflection, right, skipped = simulator._kernel.conic_residuals(
                shape, n, 0, n, focus2_y, focal_constant)
    except DomainError as exc:
        return type(exc), str(exc)
    return focal.hex(), reflection.hex(), right.hex(), skipped


class TestCompiledResiduals:
    """conic_residuals in the C library against _propagate_py.conic_residuals,
    the NumPy loop: the same maxima and skipped counts, bit for bit, or the
    same error."""

    @pytest.mark.parametrize("n", [10, _RESIDUAL_BLOCK - 1, _RESIDUAL_BLOCK,
                                   _RESIDUAL_BLOCK + 1, 2 * _RESIDUAL_BLOCK + 1])
    @pytest.mark.parametrize("e", [0.5, 1.0, 1.5, 1.0 - 2.0**-52, 1.0 + 2.0**-52],
                             ids=["ellipse", "parabola", "hyperbola", "1-ulp", "1+ulp"])
    @pytest.mark.parametrize("ell", [0.75, 1e-300, 1e300])
    def test_same_report(self, c_and_numpy, ell, e, n):
        got, want = c_and_numpy(report_outcome, ConicShape(e, ell), n)
        assert got == want

    # Each error of _block_residuals, from a shape, or a grid of polar
    # angles and a second focus or focal constant made to raise it.  A
    # search of 6 million angles on shapes with aO = 0 found no zero
    # intersection; _block_residuals says why it has no zero-point or NaN
    # reflection or right-angle check.
    @pytest.mark.parametrize("e, ell, grid, focus, error", [
        (1.5, 1.0, (0.5 * math.pi, 0.0, 1), None, "no point at theta=1.5708"),
        (0.5, 1.7e308, None, None, "conic point at theta="),
        (0.5, 1e300, None, None, "tangent at theta="),
        (10.0, 5e-324, None, None, "cannot normalize the zero tangent"),
        (0.5, 1.0, None, (math.inf, 3.0), "second-focus ray at theta="),
        (0.5, 1e-308, (-0.5 * math.pi, 0.0, 1), "at py", "cannot normalize the zero "
                                                        "second-focus ray"),
        (1e-310, 1.0, None, None, "tangent-directrix intersection at theta="),
        (0.5, 1.0, None, (1.0, math.nan), "focal residual is not a number"),
    ], ids=["no-point", "point", "tangent", "zero-tangent", "second-focus-ray",
            "zero-second-focus-ray", "intersection", "focal-nan"])
    def test_same_error(self, c_and_numpy, monkeypatch, e, ell, grid, focus, error):
        shape = ConicShape(e, ell)
        if grid is not None:  # every sample at one polar angle
            monkeypatch.setattr(geometry, "_theta_grid", lambda shape, n: grid)
        if focus == "at py":  # the second focus on the sample: a zero ray
            theta = grid[0]
            focus = (_polar_form(shape, theta, math.sin(theta), math.cos(theta))[2], 3.0)
        got, want = c_and_numpy(block_outcome, shape, 10, *(focus or _second_focus(shape)))
        assert got == want
        assert issubclass(got[0], DomainError) and error in got[1]

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(log_e=st.floats(-12.0, 12.0), log_ell=st.floats(-300.0, 300.0),
           n=st.integers(10, _RESIDUAL_BLOCK + 1))
    def test_same_report_on_drawn_shapes(self, c_and_numpy, log_e, log_ell, n):
        got, want = c_and_numpy(report_outcome, ConicShape(10.0**log_e, 10.0**log_ell), n)
        assert got == want


class TestConicShape:
    def test_focal_directrix_distance(self):
        assert CANONICAL.focal_directrix_distance == pytest.approx(1.5)

    def test_circle_distance_undefined(self):
        with pytest.raises(DomainError, match="circle"):
            _ = ConicShape(0.0, 1.0).focal_directrix_distance

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DomainError):
            ConicShape(-0.5, 1.0)
        with pytest.raises(DomainError):
            ConicShape(0.5, 0.0)

    def test_unbounded_apoapsis_none(self):
        assert ConicShape(1.0, 1.0).apoapsis is None
        assert ConicShape(2.0, 1.0).apoapsis is None
