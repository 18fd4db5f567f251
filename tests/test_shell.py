"""Tests for the ring-sum shell-attraction quadrature."""

import ctypes
import io
import math
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from polyorbit import (
    DomainError,
    OutsideOnlyError,
    RingDecomposition,
    ShellSpec,
    point_mass_accel,
    shell_accel,
    sphere_accel,
)
from polyorbit import _propagate_py, cli, shell, simulator
from polyorbit._propagate_py import _ANGLE_GROUP, _RING_BLOCK

UNIT_SHELL = ShellSpec(radius=1.0, total_mass=1.0, g=1.0)


def addition_angles(n, dtheta):
    # sin and cos of every ring's angle as ring_terms makes them, by angle
    # addition: ring i = g + k, g = i - i % 128 the first ring of its group,
    # at (g + 0.5) * dtheta + k * dtheta
    i = np.arange(n)
    k = i % _ANGLE_GROUP
    theta_g = (i - k + 0.5) * dtheta
    phi = np.arange(_ANGLE_GROUP) * dtheta
    sin_g, cos_g = np.sin(theta_g), np.cos(theta_g)
    cos_k, sin_k = np.cos(phi)[k], np.sin(phi)[k]
    return sin_g * cos_k + cos_g * sin_k, cos_g * cos_k - sin_g * sin_k


def libm_angles(n, dtheta):
    # sin and cos of every ring's angle (i + 0.5) * dtheta, one call each
    theta = (np.arange(n) + 0.5) * dtheta
    return np.sin(theta), np.cos(theta)


def reference_terms(a, d, dtheta, width, scale, n, angles=addition_angles):
    # every ring's term, from one array of all the angles
    sin_t, cos_t = angles(n, dtheta)
    with np.errstate(all="ignore"):
        areas = 2.0 * math.pi * (a * sin_t) * width
        s2 = d * d + a * a - 2.0 * a * d * cos_t
        s = np.sqrt(s2)
        axial = (d - a * cos_t) / s
        return scale * areas / s2 * axial


# The whole-array shell_accel that the blocked one replaced, kept as the
# bit-for-bit oracle: math.fsum of an array of every ring's term.  With
# angles=libm_angles it is the shell_accel that took one sin and one cos
# per ring.
def reference_shell_accel(shell, d, rings, angles=addition_angles):
    a = shell.radius
    if d <= a:
        raise OutsideOnlyError(
            f"point must lie outside the shell: d={d:g} <= a={a:g}"
        )
    n = rings.n_rings
    dtheta = math.pi / n
    # At extreme scales s2 or the products overflow or underflow; the sum is
    # then inf or nan, or fsum raises, which is rejected below.
    terms = reference_terms(a, d, dtheta, a * dtheta, shell.g * shell.surface_density, n,
                            angles)
    try:
        total = math.fsum(terms.tolist())
    except (OverflowError, ValueError):
        total = math.nan
    if not math.isfinite(total):
        raise DomainError(
            f"the ring sum is not finite for a = {a:g}, d = {d:g}: "
            "the scales are outside the double range"
        )
    return total


def outcome(accel, *args):
    # The result's bits, or the type and message of the error raised.
    try:
        return accel(*args).hex()
    except DomainError as exc:
        return type(exc), str(exc)


class TestShellAccel:
    def test_d2_quarter(self):
        accel = shell_accel(UNIT_SHELL, 2.0, RingDecomposition(10**4))
        assert accel == pytest.approx(0.25, rel=1e-6)

    @pytest.mark.parametrize("d", [1.5, 2.0, 4.0, 8.0])
    def test_matches_point_mass(self, d):
        accel = shell_accel(UNIT_SHELL, d, RingDecomposition(10**4))
        assert abs(accel - point_mass_accel(1.0, d)) / point_mass_accel(1.0, d) < 1e-6

    def test_inverse_square_ratio(self):
        rings = RingDecomposition(10**4)
        a2 = shell_accel(UNIT_SHELL, 2.0, rings)
        a4 = shell_accel(UNIT_SHELL, 4.0, rings)
        assert a2 / a4 == pytest.approx(4.0, rel=1e-5)

    def test_scales_with_g_and_mass(self):
        rings = RingDecomposition(1000)
        base = shell_accel(UNIT_SHELL, 3.0, rings)
        scaled = shell_accel(ShellSpec(1.0, 5.0, 2.0), 3.0, rings)
        assert scaled == pytest.approx(10.0 * base, rel=1e-12)

    def test_second_order_convergence(self):
        # midpoint rule: error drops ~16x when the ring count quadruples
        exact = point_mass_accel(1.0, 2.0)
        err_n = abs(shell_accel(UNIT_SHELL, 2.0, RingDecomposition(400)) - exact)
        err_4n = abs(shell_accel(UNIT_SHELL, 2.0, RingDecomposition(1600)) - exact)
        assert err_n / err_4n == pytest.approx(16.0, rel=0.05)

    def test_inside_rejected(self):
        with pytest.raises(OutsideOnlyError):
            shell_accel(UNIT_SHELL, 0.5, RingDecomposition(100))

    def test_on_surface_rejected(self):
        with pytest.raises(OutsideOnlyError):
            shell_accel(UNIT_SHELL, 1.0, RingDecomposition(100))

    # A NaN or infinite d used to reach the ring sum, whose error blamed the
    # double range of the scales.
    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
    def test_non_finite_distance_rejected(self, d):
        with pytest.raises(DomainError, match=f"^the distance d must be finite, got {d}$"):
            shell_accel(UNIT_SHELL, d, RingDecomposition(100))


class TestBlockedRingSum:
    """shell_accel evaluates the rings _RING_BLOCK at a time; its sum keeps
    every bit of the whole-array one."""

    @pytest.mark.parametrize("n", [1, 2, 3, _RING_BLOCK - 1, _RING_BLOCK, _RING_BLOCK + 1,
                                   2 * _RING_BLOCK + 1, 10**6])
    @pytest.mark.parametrize("d", [1.01, 2.0, 100.0])
    def test_matches_reference_across_blocks(self, n, d):
        args = (ShellSpec(1.5, 2.0, 0.7), 1.5 * d, RingDecomposition(n))
        assert shell_accel(*args).hex() == reference_shell_accel(*args).hex()

    @settings(max_examples=100, deadline=None)
    @given(log_a=st.floats(-160.0, 200.0), log_excess=st.floats(-6.0, 6.0),
           log_mass=st.floats(-300.0, 300.0), log_g=st.floats(-300.0, 300.0),
           n=st.integers(1, 3 * _RING_BLOCK))
    def test_matches_reference_on_drawn_shells(self, log_a, log_excess, log_mass, log_g, n):
        try:
            spec = ShellSpec(10.0**log_a, 10.0**log_mass, 10.0**log_g)
        except DomainError:  # a^2 underflows to 0
            assume(False)
        args = (spec, spec.radius * (1.0 + 10.0**log_excess), RingDecomposition(n))
        assert outcome(shell_accel, *args) == outcome(reference_shell_accel, *args)

    @pytest.mark.parametrize("spec, d", [
        (ShellSpec(1e199, 1.0, 1.0), 1e200),      # 2ad overflows
        (ShellSpec(1e-161, 1.0, 1.0), 1e-160),    # s^2 underflows to 0
        (ShellSpec(1.0, 10.0, 1e308), 2.0),       # the sum overflows
    ], ids=["ring-overflow", "ring-underflow", "sum-overflow"])
    def test_same_error_at_extreme_scales(self, spec, d):
        args = (spec, d, RingDecomposition(_RING_BLOCK + 1))
        got = outcome(shell_accel, *args)
        assert got[0] is DomainError and got == outcome(reference_shell_accel, *args)

    def test_memory_is_flat_in_the_ring_count(self, monkeypatch):
        # The NumPy loop, wherever the C one loads: one block's terms and
        # temporaries, about 4 MB at any ring count; np.sum of an array of
        # all the terms peaked at 11.7 MB at 10^6 rings and 80 MB at 10^7
        monkeypatch.setattr(simulator, "_kernel", _propagate_py)
        for n in (10**6, 4 * 10**6):
            tracemalloc.start()
            try:
                shell_accel(UNIT_SHELL, 2.0, RingDecomposition(n))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * 1024 * 1024, n


# First rings of ranges that start inside a group of _ANGLE_GROUP rings.
INSIDE_A_GROUP = [1, 77, _ANGLE_GROUP - 1, _ANGLE_GROUP + 1, _RING_BLOCK - 5,
                  2 * _RING_BLOCK + 200]


class TestRingAngles:
    """ring_terms takes each ring's sine and cosine by angle addition from
    one np.sin and one np.cos value per group of _ANGLE_GROUP rings and a
    table of the offsets in a group: the values against libm's at each
    ring's own angle, the ring total against the one of those values, and
    the terms of a range that starts inside a group."""

    # Against math.sin and math.cos at the rounded (i + 0.5) * dtheta, the
    # absolute error is within 8 * 2^-53.  The three rounded angles (the
    # group's, the offset's and the ring's own, all below 4) are each within
    # 2 * 2^-53 of the exact ones; libm's four values and the rounding of
    # the two products and their sum add a few 2^-53 more.  The errors do
    # not line up: 5 * 2^-53 is the most measured at these n.
    @pytest.mark.parametrize("n", [1, 2, 3, 127, 128, 129, 65537, 10**6])
    def test_sin_cos_within_8_units_of_libm(self, n):
        dtheta = math.pi / n
        theta_g = (np.arange(0, n, _ANGLE_GROUP) + 0.5) * dtheta
        sin_t, cos_t = _propagate_py.angle_addition(theta_g, dtheta, 0, n)
        theta = ((np.arange(n) + 0.5) * dtheta).tolist()
        assert np.max(np.abs(sin_t - [math.sin(x) for x in theta])) <= 8 * 2.0**-53
        assert np.max(np.abs(cos_t - [math.cos(x) for x in theta])) <= 8 * 2.0**-53

    # The total against the one of a sine and a cosine per ring
    # (libm_angles), relative: within 2^-51 from 1.2a out, where 2.0e-16 is
    # the most measured and most totals are equal.
    @pytest.mark.parametrize("n", [3, 10**4, 65537, 10**6])
    @pytest.mark.parametrize("ratio", [1.2, 1.5, 2.0, 10.0, 1000.0])
    def test_shell_accel_near_per_angle_libm(self, ratio, n):
        args = (ShellSpec(1.5, 2.0, 0.7), 1.5 * ratio, RingDecomposition(n))
        want = reference_shell_accel(*args, libm_angles)
        assert abs(shell_accel(*args) - want) <= 2.0**-51 * want

    # Near the surface s^2 = d^2 + a^2 - 2ad cos(theta) cancels, and a ring's
    # change of a few 2^-53 in cos(theta) grows by about 2ad / (d - a)^2:
    # 3.3e-13 measured at 1.01a and 6.5e-11 at 1.001a.  Both totals are as
    # far from 40-digit sums of the same terms (at 10^4 rings, up to 9.1e-13
    # and 1.0e-10), and far closer to them than the midpoint rule is to the
    # point-mass pull there, where shell-check promises no tolerance.
    @pytest.mark.parametrize("n", [3, 10**4, 65537, 10**6])
    @pytest.mark.parametrize("ratio, bound", [(1.01, 1e-12), (1.001, 2e-10)])
    def test_shell_accel_near_per_angle_libm_at_the_surface(self, ratio, bound, n):
        args = (ShellSpec(1.5, 2.0, 0.7), 1.5 * ratio, RingDecomposition(n))
        want = reference_shell_accel(*args, libm_angles)
        assert abs(shell_accel(*args) - want) <= bound * want

    # Groups are aligned to the ring index, not to the first ring of a call,
    # so a range from inside a group, across a block's end, has the
    # whole-array terms' bits.
    @pytest.mark.parametrize("first", INSIDE_A_GROUP)
    def test_terms_from_inside_a_group(self, first):
        n = 4 * _RING_BLOCK
        args = (1.5, 2.25, math.pi / n, 1.5 * math.pi / n, 0.7)
        got = _propagate_py.ring_terms(*args, np.empty(_RING_BLOCK + 300), first)
        want = reference_terms(*args, n)[first:first + _RING_BLOCK + 300]
        assert got.tobytes() == want.tobytes()


def shell_check(argv):
    # cli.main's exit code, stdout and stderr
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["shell-check", *argv])
    return code, out.getvalue(), err.getvalue()


class TestCompiledRingTerms:
    """ring_terms and ring_sum in the C library against _propagate_py's
    ring_terms and ring_sum, the NumPy loops: the same terms and totals, bit
    for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, _RING_BLOCK - 1, _RING_BLOCK, _RING_BLOCK + 1,
                                   10**6])
    def test_same_terms(self, c_ring_sum, n):
        args = (1.5, 2.25, math.pi / n, 1.5 * math.pi / n, 0.7)
        got, want = np.empty(n), np.empty(n)
        c_ring_sum._ring_terms(*args, 0, n, got.ctypes.data)
        _propagate_py.ring_terms(*args, want)
        assert got.tobytes() == want.tobytes()

    # Groups are aligned to the ring index in C too, as in the NumPy test of
    # TestRingAngles.
    @pytest.mark.parametrize("first", INSIDE_A_GROUP)
    def test_same_terms_from_inside_a_group(self, c_ring_sum, first):
        n, m = 4 * _RING_BLOCK, _RING_BLOCK + 300
        args = (1.5, 2.25, math.pi / n, 1.5 * math.pi / n, 0.7)
        got, want = np.empty(m), np.empty(m)
        c_ring_sum._ring_terms(*args, first, first + m, got.ctypes.data)
        _propagate_py.ring_terms(*args, want, first)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [10**6, shell.MAX_RINGS])
    def test_c_shell_accel_holds_no_term_array(self, c_ring_sum, monkeypatch, n):
        # 8 MB of terms at 10^6 rings: the C sum allocates only the threads
        # of its split
        monkeypatch.setattr(simulator, "_kernel", c_ring_sum)
        tracemalloc.start()
        try:
            shell_accel(UNIT_SHELL, 2.0, RingDecomposition(n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("n", [1, 2, 3, _RING_BLOCK - 1, _RING_BLOCK, _RING_BLOCK + 1,
                                   10**6])
    @pytest.mark.parametrize("d", [1.01, 2.0, 100.0])
    def test_same_total(self, ring_sum_c_and_numpy, n, d):
        got, want = ring_sum_c_and_numpy(outcome, shell_accel, ShellSpec(1.5, 2.0, 0.7),
                                         1.5 * d, RingDecomposition(n))
        assert got == want

    # The extreme-scale rows of tests/test_cli.py, and a non-finite d.
    @pytest.mark.parametrize("extra", [
        ["--a", "1", "--d", "1e300"],
        ["--a", "1e-200", "--d", "1e-170"],
        ["--a", "1e199", "--d", "1e200"],
        ["--a", "1e-161", "--d", "1e-160"],
        ["--a", "1", "--d", "2", "--g", "1e308", "--mass", "10"],
        ["--a", "1", "--d", "nan"],
        ["--a", "1", "--d", "inf"],
    ], ids=["point-mass-underflow", "radius-underflow", "ring-overflow", "ring-underflow",
            "sum-overflow", "d-nan", "d-inf"])
    def test_same_shell_check_at_extreme_scales(self, ring_sum_c_and_numpy, extra):
        argv = {"--a": "1", "--mass": "1", "--g": "1", "--rings": "100"}
        argv.update(zip(extra[::2], extra[1::2]))
        got, want = ring_sum_c_and_numpy(shell_check, [*sum(argv.items(), ())])
        assert got == want and got[0] == cli.EXIT_NUMERIC

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(log_a=st.floats(-160.0, 200.0), log_excess=st.floats(-6.0, 6.0),
           log_mass=st.floats(-300.0, 300.0), log_g=st.floats(-300.0, 300.0),
           n=st.integers(1, 3 * _RING_BLOCK))
    def test_same_total_on_drawn_shells(self, ring_sum_c_and_numpy, log_a, log_excess, log_mass,
                                        log_g, n):
        try:
            spec = ShellSpec(10.0**log_a, 10.0**log_mass, 10.0**log_g)
        except DomainError:  # a^2 underflows to 0
            assume(False)
        got, want = ring_sum_c_and_numpy(outcome, shell_accel, spec,
                                         spec.radius * (1.0 + 10.0**log_excess),
                                         RingDecomposition(n))
        assert got == want


def exact_sums(compiled, args, n):
    """(C total, NumPy total, math.fsum of the terms) of the ring sum with
    arguments args over n rings, as hex; for up to 257 rings the sum of the
    terms as fractions, rounded once, must be the fsum."""
    terms = np.empty(n)
    _propagate_py.ring_terms(*args, terms)
    want = math.fsum(terms.tolist())
    if n <= 257:
        assert float(sum(map(Fraction, terms.tolist()))) == want
    return (compiled.ring_sum(*args, n).hex(), _propagate_py.ring_sum(*args, n).hex(),
            want.hex())


class TestExactRingSum:
    """The ring total is the correctly rounded sum of ring_terms' terms, the
    value math.fsum gives, on the C loop however its ranges split and on the
    NumPy one."""

    # Fewer terms than one C buffer, 128 and one past, a few buffers, the
    # thresholds of two ranges (2 * 2^14 rings) and the benchmark's 10^6
    # rings.
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 136, 255, 256, 257,
                                   2 * (1 << 14) - 1, 2 * (1 << 14), 2 * (1 << 14) + 1, 10**6])
    @pytest.mark.parametrize("workers", [1, 2, 3], ids=["W1", "W2", "W3"])
    def test_sum_is_fsum_of_the_terms(self, c_ring_sum, monkeypatch, workers, n):
        monkeypatch.setattr(c_ring_sum, "_WORKERS", workers)
        args = (1.5, 2.25, math.pi / n, 1.5 * math.pi / n, 0.7)
        c, numpy, want = exact_sums(c_ring_sum, args, n)
        assert c == numpy == want

    # Terms of both signs (d < a), negative terms (a negative scale), and
    # subnormal terms of both signs: a carry that is not balanced leaves a
    # negative total as a large positive chunk less a borrow from the next.
    @pytest.mark.parametrize("a, d, scale", [(1.648, 1.601, 0.3), (1.5, 2.25, -0.7),
                                             (4.123, 2.874, -1e-310)],
                             ids=["d-below-a", "negative-scale", "d-below-a-subnormal"])
    @pytest.mark.parametrize("n", [40, 126, 3 * (1 << 14) + 1])
    @pytest.mark.parametrize("workers", [1, 2, 3], ids=["W1", "W2", "W3"])
    def test_sum_of_negative_and_mixed_terms_is_fsum(self, c_ring_sum, monkeypatch, workers, n,
                                                     a, d, scale):
        monkeypatch.setattr(c_ring_sum, "_WORKERS", workers)
        c, numpy, want = exact_sums(c_ring_sum, (a, d, math.pi / n, a * math.pi / n, scale), n)
        assert c == numpy == want


    # One C range's chunks hold the exact sum of its terms, so a term that
    # moved by one ulp shows here, where the rounded total would hide it:
    # ranges that start inside a group, as a split of 10^6 rings in two
    # does (at ring 500,000).
    @pytest.mark.parametrize("first", [*INSIDE_A_GROUP, 500_000])
    def test_range_from_inside_a_group_holds_the_exact_sum(self, c_ring_sum, first):
        n, m = 10**6, 300
        args = (1.5, 2.25, math.pi / n, 1.5 * math.pi / n, 0.7)
        chunks = (ctypes.c_double * c_ring_sum._RING_CHUNKS)()
        assert c_ring_sum._ring_sum(*args, first, first + m, chunks) == 0
        terms = _propagate_py.ring_terms(*args, np.empty(m), first)
        assert sum(map(Fraction, chunks)) == sum(map(Fraction, terms.tolist()))


class TestSphereAccel:
    def test_matches_point_mass(self):
        accel = sphere_accel(1.0, 1.0, 1.0, 2.0, 100, RingDecomposition(2000))
        assert accel == pytest.approx(0.25, rel=1e-5)

    def test_single_shell_limit(self):
        # one shell of a thin-walled decomposition behaves like shell_accel
        # at the mid radius
        accel = sphere_accel(1.0, 1.0, 1.0, 5.0, 1, RingDecomposition(2000))
        expected = shell_accel(ShellSpec(0.5, 1.0, 1.0), 5.0, RingDecomposition(2000))
        assert accel == pytest.approx(expected, rel=1e-12)

    def test_mass_weights_sum(self):
        # total over shells is conserved: far field equals gM/d^2 regardless
        # of the shell count
        far = 50.0
        for n_shells in (1, 3, 10):
            accel = sphere_accel(1.0, 2.0, 1.0, far, n_shells, RingDecomposition(500))
            assert accel == pytest.approx(point_mass_accel(2.0, far), rel=1e-5)

    def test_inside_rejected(self):
        with pytest.raises(OutsideOnlyError):
            sphere_accel(1.0, 1.0, 1.0, 0.9, 10, RingDecomposition(100))

    def test_bad_counts_rejected(self):
        with pytest.raises(DomainError):
            sphere_accel(1.0, 1.0, 1.0, 2.0, 0, RingDecomposition(100))
        with pytest.raises(DomainError):
            RingDecomposition(0)


class TestSpecValidation:
    def test_surface_density(self):
        assert UNIT_SHELL.surface_density == pytest.approx(1.0 / (4.0 * math.pi))

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            ShellSpec(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            ShellSpec(1.0, -1.0, 1.0)
        with pytest.raises(DomainError):  # radius^2 underflows to 0
            ShellSpec(1e-200, 1.0, 1.0)

    def test_point_mass_accel_domain(self):
        with pytest.raises(DomainError):
            point_mass_accel(1.0, 0.0)
        with pytest.raises(DomainError):  # d^2 underflows to 0
            point_mass_accel(1.0, 1e-200)
