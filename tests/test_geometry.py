"""Tests for the focus-directrix conic module."""

import ctypes
import math
import sys
from decimal import Decimal, localcontext

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
)
from polyorbit import _propagate_py, geometry, simulator
from polyorbit._propagate_py import _ANGLE_GROUP, _RESIDUAL_BLOCK
from polyorbit.geometry import (
    _PARALLEL_EPS,
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


# Oracles: the focal radius and conic_point written out on math.sin/math.cos,
# apart from the polar form geometry shares with its array path, and the
# analytic tangent, which only tests use.
def reference_focal_radius(shape, theta):
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
    r = reference_focal_radius(shape, theta)
    return PlanarVector(r * math.cos(theta), r * math.sin(theta))


def conic_tangent(shape, theta):
    """Analytic tangent dP/dtheta at polar angle theta (not normalized)."""
    e, ell = shape.eccentricity, shape.semi_latus_rectum
    r = reference_focal_radius(shape, theta)
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
    """The focal radius of conic_point at a polar angle."""

    def test_periapsis(self):
        assert conic_point(CANONICAL, -math.pi / 2).norm() == pytest.approx(0.5, rel=1e-14)

    def test_apoapsis(self):
        assert conic_point(CANONICAL, math.pi / 2).norm() == pytest.approx(1.5, rel=1e-14)

    def test_semi_latus_rectum_at_zero(self):
        assert conic_point(CANONICAL, 0.0).norm() == pytest.approx(0.75, rel=1e-15)

    def test_open_branch_rejected(self):
        # e = 2: asymptote at sin(theta) = 1/2
        shape = ConicShape(2.0, 1.0)
        with pytest.raises(NoSuchPointError):
            conic_point(shape, math.pi / 2)

    def test_circle_rejected(self):
        with pytest.raises(DomainError):
            conic_point(ConicShape(0.0, 1.0), 0.0)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf])
    @pytest.mark.parametrize("at", [conic_point])
    def test_infinite_angle_has_no_point(self, at, theta):
        # math.sin(+-inf) would raise a bare ValueError; such an angle names no point
        with pytest.raises(NoSuchPointError, match=f"no point at theta={theta:g}"):
            at(CANONICAL, theta)

    @pytest.mark.parametrize("e,ell", [(0.3, 0.5), (1.0, 1e-300), (2.0, 1e300), (1e6, 1.0)])
    def test_matches_reference_bitwise(self, e, ell):
        shape = ConicShape(e, ell)
        for theta in scalar_thetas(shape, 101):
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

    @pytest.mark.parametrize("x, y", [(math.inf, 1.0), (math.inf, math.inf)])
    def test_non_finite_axes_rejected(self, x, y):
        with pytest.raises(DomainError):
            EllipseAxes(x, y)

    # e rounds to 1 (1 - e is 5e-401 and 5e-17), or aO underflows to 0
    @pytest.mark.parametrize("x, y", [(1e200, 1.0), (1e8, 1.0), (1e-323, 5e-324)])
    def test_axes_past_double_precision_rejected(self, x, y):
        with pytest.raises(DomainError):
            focal_from_axes(EllipseAxes(x, y))

    # X^2 overflows, or X^2 and Y^2 underflow: the same e, and aO scaled
    @pytest.mark.parametrize("scale", [1e299, 1e-201])
    def test_axes_whose_squares_leave_double_precision(self, scale):
        e, a_o = focal_from_axes(EllipseAxes(10.0 * scale, scale))
        e_unit, a_o_unit = focal_from_axes(EllipseAxes(10.0, 1.0))
        assert e == pytest.approx(e_unit, rel=1e-15)
        assert a_o == pytest.approx(a_o_unit * scale, rel=1e-15)

    # Nearly equal axes, where sqrt(X*X - Y*Y) put e and aO 7.4e-4 and 0.28%
    # off: both against 60-digit values of sqrt(X^2 - Y^2)/X and
    # Y^2/sqrt(X^2 - Y^2), within 3 ulps.
    @pytest.mark.parametrize("x, y", [(3.0, 2.9999999999999),
                                      (2.1927385446915047e-56, 2.1927385446914685e-56)])
    def test_near_circular_axes_within_three_ulps(self, x, y):
        e, a_o = focal_from_axes(EllipseAxes(x, y))
        with localcontext() as ctx:
            ctx.prec = 60
            big, small = Decimal(x), Decimal(y)
            d = (big * big - small * small).sqrt()
            assert abs(Decimal(e) - d / big) <= 3 * Decimal(math.ulp(e))
            assert abs(Decimal(a_o) - small * small / d) <= 3 * Decimal(math.ulp(a_o))

    @given(
        e=st.floats(0.01, 0.99),
        a_o=st.floats(0.1, 100.0),
    )
    def test_round_trip(self, e, a_o):
        # Rounding the axes to doubles moves e by about 1/e^2 times their
        # relative error (2e-12 at e = 0.01), so allow a few lost digits
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


def sample_thetas(shape, n):
    # the polar angles of geometry_residuals' n samples
    return _propagate_py._sample_thetas(shape, n, 0, n).tolist()


class TestSamplePoints:
    """The polar angles at which geometry_residuals samples the conic."""

    def test_includes_periapsis(self):
        theta0 = sample_thetas(CANONICAL, 4)[0]
        assert theta0 == pytest.approx(-math.pi / 2)
        assert conic_point(CANONICAL, theta0).norm() == pytest.approx(0.5, rel=1e-14)

    def test_parabola_branch(self):
        shape = ConicShape(1.0, 1.0)
        for theta in sample_thetas(shape, 3):
            assert 1.0 - math.sin(theta) > 0.0

    def test_hyperbola_avoids_asymptotes(self):
        shape = ConicShape(2.0, 1.0)
        for theta in sample_thetas(shape, 8):
            assert 1.0 - 2.0 * math.sin(theta) > 0.0

    @pytest.mark.parametrize("e", [0.5, 1.0, 2.0])
    def test_thetas_match_scalar_expression(self, e):
        shape = ConicShape(e, 1.0)
        assert sample_thetas(shape, 1000) == scalar_thetas(shape, 1000)


class TestPolarFormConsistency:
    @pytest.mark.parametrize("e,ell", [(0.3, 0.5), (0.5, 0.75), (1.0, 1.0), (2.0, 1.0)])
    def test_csc2_matches_tangent_angle(self, e, ell):
        # csc^2 from the closed form vs the angle of the analytic tangent
        shape = ConicShape(e, ell)
        for theta in sample_thetas(shape, 50):
            p = conic_point(shape, theta)
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
    scale = ell if focal_constant is None else focal_constant  # the focal residual's unit
    if not sys.float_info.min <= scale < math.inf:
        raise DomainError("the focal constant is not a normal double > 0")

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
    if skipped == n:
        raise DomainError("no right angle was checked")

    return ResidualReport(
        conic_class=kind,
        n_samples=n,
        focal_residual=focal_res / scale,
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
    # the focal residual is a length divided by 2a or ell; tol bounds the length
    focal_constant = _second_focus(shape)[1]
    scale = shape.semi_latus_rectum if focal_constant is None else focal_constant
    for field, bound in (("focal_residual", tol / scale), ("reflection_residual", tol),
                         ("right_angle_residual", tol)):
        assert getattr(got, field) == pytest.approx(getattr(expected, field), rel=0, abs=bound)


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

        def spy(shape, n, start, stop, *args):
            seen.append(_propagate_py._sample_thetas(shape, n, start, stop))
            return block_residuals(shape, n, start, stop, *args)

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

    # Every tangent is parallel to the directrix, so the right-angle check
    # took no sample: the report read a residual of 0.0 with all n skipped.
    def test_every_right_angle_sample_skipped_rejected(self, residuals_c_and_numpy):
        got, want = residuals_c_and_numpy(report_outcome, ConicShape(1e12, 1.0), 1000)
        assert got == want == (DomainError, "every one of the 1000 samples has a tangent "
                                            "parallel to the directrix, so no right angle "
                                            "was checked")

    # The smallest shapes still accepted keep small residuals on both loops.
    @pytest.mark.parametrize("e, ell", [(0.5, 2.3e-154), (1.0, 3e-154), (1.5, 1e-153)])
    def test_smallest_accepted_periapsis_passes(self, residuals_c_and_numpy, e, ell):
        shape = ConicShape(e, ell)
        assert shape.periapsis**2 >= sys.float_info.min
        got, want = residuals_c_and_numpy(report_outcome, shape, 50000)
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
                shape, n, focus2_y, focal_constant)
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
    def test_same_report(self, residuals_c_and_numpy, ell, e, n):
        got, want = residuals_c_and_numpy(report_outcome, ConicShape(e, ell), n)
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
    def test_same_error(self, residuals_c_and_numpy, monkeypatch, e, ell, grid, focus, error):
        shape = ConicShape(e, ell)
        if grid is not None:  # every sample at one polar angle
            monkeypatch.setattr(geometry, "_theta_grid", lambda shape, n: grid)
        if focus == "at py":  # the second focus on the sample: a zero ray
            theta = grid[0]
            focus = (_polar_form(shape, theta, math.sin(theta), math.cos(theta))[2], 3.0)
        got, want = residuals_c_and_numpy(block_outcome, shape, 10,
                                          *(focus or _second_focus(shape)))
        assert got == want
        assert issubclass(got[0], DomainError) and error in got[1]

    # The C loop takes its skip threshold from geometry._PARALLEL_EPS, as the
    # NumPy loop does: at 0.3 both skip the same samples of each shape.
    @pytest.mark.parametrize("e", [0.5, 1.0, 1.5], ids=["ellipse", "parabola", "hyperbola"])
    def test_same_skips_at_another_parallel_threshold(self, residuals_c_and_numpy,
                                                      monkeypatch, e):
        monkeypatch.setattr(geometry, "_PARALLEL_EPS", 0.3)
        shape = ConicShape(e, 0.75)
        got, want = residuals_c_and_numpy(block_outcome, shape, 1000, *_second_focus(shape))
        assert got == want and got[3] > 0

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(log_e=st.floats(-12.0, 12.0), log_ell=st.floats(-300.0, 300.0),
           n=st.integers(10, _RESIDUAL_BLOCK + 1))
    def test_same_report_on_drawn_shapes(self, residuals_c_and_numpy, log_e, log_ell, n):
        got, want = residuals_c_and_numpy(report_outcome,
                                          ConicShape(10.0**log_e, 10.0**log_ell), n)
        assert got == want


# The workload's three shapes, whose samples take their sines and cosines by
# angle addition, and the first samples of ranges and blocks that start
# inside a group of _ANGLE_GROUP samples.
ADDITION_SHAPES = [(0.5, 0.75), (1.0, 0.75), (1.5, 0.75)]
ADDITION_IDS = ["ellipse", "parabola", "hyperbola"]
INSIDE_A_GROUP = [1, 77, _ANGLE_GROUP - 1, _ANGLE_GROUP + 1, _RESIDUAL_BLOCK - 5,
                  _RESIDUAL_BLOCK + 200]


def per_angle_sin_cos(shape, n, start, stop):
    # one np.sin and one np.cos of each sample's own angle
    theta = _propagate_py._sample_thetas(shape, n, start, stop)
    return np.sin(theta), np.cos(theta)


def bits(arrays):
    return [a.tobytes() for a in arrays]


class TestResidualAngles:
    """The residual loops take each sample's sine and cosine by angle
    addition, from one np.sin and one np.cos value per group of
    _ANGLE_GROUP samples and a table of the offsets in a group, on the
    shapes _propagate_py._by_addition admits: the values against libm's at
    each sample's own angle, a group's first sample, ranges and blocks that
    start inside a group, the skipped count, and the shapes that keep one
    sine and cosine per sample, in both loops."""

    # Against math.sin and math.cos at _sample_thetas' rounded angle, the
    # absolute error is within 16 * 2^-53: 15.5 * 2^-53 is the most
    # measured, here and at n = 1000, 4099, 65537, 131073 and 10^6.  The
    # group's angle, the offset's and the sample's own (|theta| < 4.72) are
    # each rounded up to three times, and libm's four values and the
    # addition's two products and sum add a few 2^-53 more; the errors do
    # not line up.
    @pytest.mark.parametrize("n", [10, 127, 128, 129, 50000])
    @pytest.mark.parametrize("e, ell", ADDITION_SHAPES, ids=ADDITION_IDS)
    def test_sin_cos_within_16_units_of_libm(self, e, ell, n):
        shape = ConicShape(e, ell)
        sin_t, cos_t = _propagate_py._sample_sin_cos(shape, n, 0, n)
        theta = sample_thetas(shape, n)
        assert np.max(np.abs(sin_t - [math.sin(x) for x in theta])) <= 16 * 2.0**-53
        assert np.max(np.abs(cos_t - [math.cos(x) for x in theta])) <= 16 * 2.0**-53

    # A group's first sample, at offset 0, keeps libm's bits: among them the
    # ellipse's periapsis, sample 0 at theta = -pi/2.
    @pytest.mark.parametrize("e, ell", ADDITION_SHAPES, ids=ADDITION_IDS)
    def test_first_sample_of_each_group_is_libms(self, e, ell):
        shape, n = ConicShape(e, ell), 50000
        got = _propagate_py._sample_sin_cos(shape, n, 0, n)
        want = per_angle_sin_cos(shape, n, 0, n)
        assert bits(a[::_ANGLE_GROUP] for a in got) == bits(a[::_ANGLE_GROUP] for a in want)
        if e < 1.0:
            assert (got[0][0], got[1][0]) == (math.sin(-0.5 * math.pi), math.cos(-0.5 * math.pi))

    # Groups are aligned to the sample index, not to the first sample of a
    # call, so a range from inside a group, across a block's end, has the
    # whole grid's bits, and so do the NumPy block and the C range over it.
    @pytest.mark.parametrize("first", INSIDE_A_GROUP)
    @pytest.mark.parametrize("e, ell", ADDITION_SHAPES, ids=ADDITION_IDS)
    def test_values_from_inside_a_group(self, e, ell, first):
        shape, n = ConicShape(e, ell), 3 * _RESIDUAL_BLOCK
        stop = first + _RESIDUAL_BLOCK + 300
        whole = _propagate_py._sample_sin_cos(shape, n, 0, n)
        got = _propagate_py._sample_sin_cos(shape, n, first, stop)
        assert bits(got) == bits(a[first:stop] for a in whole)

    @pytest.mark.parametrize("first", INSIDE_A_GROUP)
    @pytest.mark.parametrize("e, ell", ADDITION_SHAPES, ids=ADDITION_IDS)
    def test_c_range_from_inside_a_group(self, c_residuals, e, ell, first):
        shape, n = ConicShape(e, ell), 3 * _RESIDUAL_BLOCK
        stop = first + _RESIDUAL_BLOCK + 300
        focus = _second_focus(shape)
        theta0, span, div = geometry._theta_grid(shape, n)
        maxima, skipped = (ctypes.c_double * 3)(), ctypes.c_int64()
        assert c_residuals._conic_residuals(
            shape.eccentricity, shape.semi_latus_rectum, shape.focal_directrix_distance,
            shape.conic_class.value, focus[0] or 0.0, focus[1] or 0.0, theta0, span, div,
            _PARALLEL_EPS, first, stop, maxima, ctypes.byref(skipped)) == 0
        with np.errstate(all="ignore"):
            want = _propagate_py._block_residuals(shape, n, first, stop, *focus)
        got = (*maxima, skipped.value)
        assert [x.hex() for x in got[:3]] + [got[3]] == [x.hex() for x in want[:3]] + [want[3]]

    # The workload's right_angle_skipped, 2, 0 and 0, is that of one np.sin
    # and one np.cos per sample.
    @pytest.mark.parametrize("e, ell, skipped", [(*shape, skipped) for shape, skipped
                                                 in zip(ADDITION_SHAPES, [2, 0, 0])],
                             ids=ADDITION_IDS)
    def test_skipped_count_unchanged(self, monkeypatch, e, ell, skipped):
        shape = ConicShape(e, ell)
        got = geometry_residuals(shape, 50000).right_angle_skipped
        monkeypatch.setattr(simulator, "_kernel", _propagate_py)
        monkeypatch.setattr(_propagate_py, "_sample_sin_cos", per_angle_sin_cos)
        assert got == geometry_residuals(shape, 50000).right_angle_skipped == skipped

    # Where the residuals are rounding noise that grows with 2a / ell or e,
    # each sample keeps one np.sin and one np.cos: near-parabolic ellipses
    # and hyperbolas, and e past 16, as the three commands of large
    # residuals in ROADMAP.
    @pytest.mark.parametrize("e", [0.75, 0.9, 0.99999999, 0.9999999999999999, 1.02, 1.2,
                                   math.nextafter(16.0, math.inf), 1000.0, 3e6])
    def test_ill_conditioned_shapes_keep_per_angle_libm(self, e):
        shape, n = ConicShape(e, 1.0), 1000
        assert not _propagate_py._by_addition(e)
        got = _propagate_py._sample_sin_cos(shape, n, 0, n)
        assert bits(got) == bits(per_angle_sin_cos(shape, n, 0, n))

    # On both sides of each bound of _by_addition, |1 - e^2| = 1/2 and
    # e = 16, the C loop takes the NumPy loop's choice and bits.
    @pytest.mark.parametrize("bound", [math.sqrt(0.5), math.sqrt(1.5), 16.0])
    def test_c_takes_the_same_choice_at_each_bound(self, residuals_c_and_numpy, bound):
        around = [math.nextafter(bound, 0.0), bound, math.nextafter(bound, math.inf)]
        assert len({_propagate_py._by_addition(e) for e in around}) == 2
        for e in around:
            got, want = residuals_c_and_numpy(report_outcome, ConicShape(e, 0.75), 1000)
            assert got == want, e


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
