"""Closed forms against exact values.

Each function's result is checked against a 60-digit decimal evaluation of
the same formula on the same double inputs, within the ulp bound its
docstring states: an error in units in the last place of the exact value
rounded to a double.  Where the function refuses its inputs instead, the
exact values must show the reason it gives: an intermediate or the result
outside the double range.  Doubles from 60-digit Decimals are exact, and so
are their products and sums unless the exponents differ by 600 orders.

Hypothesis draws the inputs over the whole double range, subnormals
included, mixed with the hard cases: C near -(2.2e-308)^(2/3), where the
period's (-C)^1.5 leaves the normal range; m at both ends of the double
range; C + 2m/r and v^2 - 2m/r cancelling; and launches near the radius.
An example marked "was" names the value the function returned for it,
far outside its bound, before it refused such inputs.
"""

import math
import sys
from decimal import Context, Decimal, localcontext

from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyorbit import (
    CentralField,
    ConservedPair,
    DomainError,
    OrbitState,
    PlanarVector,
    UnreachableRadiusError,
    conserved_from_state,
    period,
    speed_at_radius,
)

TINY = sys.float_info.min
HUGE = sys.float_info.max

PI = Decimal("3.141592653589793238462643383279502884197169399375105820974944592")

# Past an edge of the double range by more than the rounding of the
# function's own intermediates, which may cross the edge where the exact
# value does not.
_SLACK = Decimal(2) ** -48


def below_normal(value):
    return value < Decimal(TINY) * (1 + _SLACK)


def past_largest(value):
    return abs(value) > Decimal(HUGE) * (1 - _SLACK)


def ulps(got, exact):
    """|got - exact| in ulps of exact rounded to a double."""
    return abs(Decimal(got) - exact) / Decimal(math.ulp(float(exact)))


# The unit roundoff of a double.
EPS = Decimal(2) ** -53

# The context of every exact evaluation.
SIXTY_DIGITS = Context(prec=60)


# The C where (-C)^1.5 crosses the smallest normal double, and the m where
# 2 pi m does.
C_GUARD = -(TINY ** (2.0 / 3.0))
M_GUARD = TINY / (2.0 * math.pi)

POSITIVE = st.floats(min_value=5e-324, max_value=HUGE)

M = st.one_of(
    POSITIVE,
    st.floats(min_value=5e-324, max_value=1e-300),
    st.floats(min_value=1e300, max_value=HUGE),
    st.floats(min_value=M_GUARD * (1 - 1e-12), max_value=M_GUARD * (1 + 1e-12)),
    st.sampled_from([5e-324, TINY, M_GUARD, HUGE, 1.0]),
)

NEGATIVE_C = st.one_of(
    st.floats(min_value=-HUGE, max_value=-5e-324),
    st.floats(min_value=C_GUARD * (1 + 1e-12), max_value=C_GUARD * (1 - 1e-12)),
)


class TestPeriod:
    """period: T = 2 pi m / (-C)^1.5 within 4 ulps."""

    @settings(max_examples=400, deadline=None)
    @given(m=M, c=NEGATIVE_C)
    @example(m=1.0, c=-1.0)
    @example(m=1.0, c=C_GUARD)
    @example(m=1.0, c=math.nextafter(C_GUARD, 0.0))
    @example(m=1.0, c=math.nextafter(C_GUARD, -math.inf))
    @example(m=5e-324, c=-1e-200)  # 2 pi m subnormal: was 2.4e14 ulps off
    @example(m=M_GUARD, c=-1.0)
    @example(m=HUGE, c=-1e200)
    @example(m=HUGE, c=-HUGE)
    @example(m=8.807135485608135e-215, c=-8.807135485608135e-215 / 16.0)
    def test_within_four_ulps_or_refused(self, m, c):
        with localcontext(SIXTY_DIGITS):
            scaled_m = 2 * PI * Decimal(m)
            power = -Decimal(c) * (-Decimal(c)).sqrt()
            exact = scaled_m / power
            try:
                t = period(ConservedPair(c, 1.0), CentralField(m))
            except DomainError:
                assert (below_normal(scaled_m) or past_largest(scaled_m) or below_normal(power)
                        or past_largest(power) or past_largest(exact)
                        or exact < Decimal(5e-324) * (1 + _SLACK))
                return
            assert ulps(t, exact) <= 4


@st.composite
def speed_inputs(draw):
    """(m, r, C): C of either sign across the range, or a multiple of -2m/r,
    near -1 where the sum C + 2m/r cancels."""
    m, r = draw(M), draw(POSITIVE)
    scale = draw(st.one_of(
        st.floats(min_value=-1.0 - 1e-6, max_value=-1.0 + 1e-6),
        st.floats(min_value=-2.0, max_value=2.0),
    ))
    near = scale * (2.0 * m / r) if 2.0 * m / r < HUGE else -1.0
    c = draw(st.one_of(st.floats(min_value=-HUGE, max_value=HUGE), st.just(near)))
    return m, r, c


class TestSpeedAtRadius:
    """speed_at_radius: v = sqrt(C + 2m/r) within (k + 3)/2 ulps, k the
    condition number (|C| + 2m/r) / (C + 2m/r) of the sum."""

    @settings(max_examples=400, deadline=None)
    @given(speed_inputs())
    @example((1.0, 1.0, -1.0))
    @example((1.0, 0.5, -1.0))
    @example((1.0, 1.0, -2.0))                   # v = 0 at the apsis
    @example((1.0, 1.0, -2.0 * (1.0 - 2.0**-40)))
    @example((5e-324, 3.0, 0.0))   # 2m/r subnormal and all of the sum: was 2.22e-162 for 1.81e-162
    @example((5e-324, 3.0, 1.0))   # 2m/r subnormal beside a normal C
    @example((HUGE, 10.0, -1.0))   # 2m overflows: was inf
    @example((1.0, 1e12, 0.0))
    def test_within_bound_or_refused(self, drawn):
        m, r, c = drawn
        with localcontext(SIXTY_DIGITS):
            w = 2 * Decimal(m) / Decimal(r)
            v2 = Decimal(c) + w
            try:
                v = speed_at_radius(ConservedPair(c, 1.0), CentralField(m), r)
            except UnreachableRadiusError:
                # the sum rounded below 0: it is, or it cancels to within
                # the rounding of 2m/r
                assert v2 < _SLACK * w
                return
            except DomainError:
                assert (past_largest(2 * Decimal(m)) or past_largest(w) or past_largest(v2)
                        or (below_normal(w) and below_normal(v2)))
                return
            if v2 <= 0:
                # k is infinite: the sum is 0, or below it by the rounding of
                # 2m/r, and so is the square of the speed returned
                assert -v2 < _SLACK * w and Decimal(v) ** 2 < _SLACK * w
                return
            k = (abs(Decimal(c)) + w) / v2
            assert ulps(v, v2.sqrt()) <= (k + 3) / 2


COMPONENT = st.one_of(
    st.floats(min_value=-HUGE, max_value=HUGE),
    st.floats(min_value=-1e3, max_value=1e3),
)


@st.composite
def state_inputs(draw):
    """(m, x, y, vx, vy): components across the range, or a velocity nearly
    along the position (x vy - y vx cancels), or a speed nearly the escape
    speed (v^2 - 2m/r cancels)."""
    m = draw(M)
    x, y, vx, vy = (draw(COMPONENT) for _ in range(4))
    shape = draw(st.sampled_from(["drawn", "radial", "parabolic"]))
    tilt = draw(st.floats(min_value=-1e-9, max_value=1e-9))
    if shape == "radial":
        vx, vy = x * vx, y * vx * (1.0 + tilt)
    elif shape == "parabolic":
        r, v = math.hypot(x, y), math.hypot(vx, vy)
        if 0.0 < r and 0.0 < v < HUGE and 2.0 * m / r < HUGE:
            scale = math.sqrt(2.0 * m / r) * (1.0 + tilt) / v
            vx, vy = vx * scale, vy * scale
    return m, x, y, vx, vy


class TestConservedFromState:
    """conserved_from_state: C = v^2 - 2m/r within 3k + 1 ulps and
    Q = (x vy - y vx)^2 within ((1 + (k' + 1)eps)^2 (1 + eps) - 1)/eps ulps,
    2k' + 3 to first order, k and k' the condition numbers of the two
    differences and eps = 2^-53."""

    @settings(max_examples=400, deadline=None)
    @given(state_inputs())
    @example((1.0, 1.0, 0.0, 0.5, math.sqrt(3.0) / 2.0))    # C = -1, Q = 0.75
    @example((1.0, 1.0, 0.0, 0.0, math.sqrt(2.0)))          # C = 0 to rounding
    @example((1.0, 3.0, 4.0, 3.0 * 1e-3, 4.0 * (1e-3 + 1e-18)))  # nearly radial
    @example((5e-324, 1.0, 0.0, 0.0, 1.0))
    @example((HUGE, 10.0, 0.0, 0.0, 1.0))                    # 2m overflows
    @example((1e-300, 1e-320, 1e-320, 0.0, 1e10))           # r rounded: C was 4.4e-4 off
    @example((1e-300, 1e-320, 0.0, 0.0, 1e10))              # r subnormal and exact
    @example((1.0, 1.5e308, 1.5e308, 0.0, 1e-160))          # r = inf: C was 1e-320
    @example((1.0, 1e200, 1e200, -1e200, 1e200))            # v^2 and x vy overflow
    def test_within_bound_or_refused(self, drawn):
        m, x, y, vx, vy = drawn
        try:
            state = OrbitState(PlanarVector(x, y), PlanarVector(vx, vy))
        except DomainError:
            return  # a zero or non-finite position or velocity: no state
        with localcontext(SIXTY_DIGITS):
            X, Y, VX, VY = (Decimal(value) for value in (x, y, vx, vy))
            r = (X * X + Y * Y).sqrt()
            v2 = VX * VX + VY * VY
            w = 2 * Decimal(m) / r
            c, a, b = v2 - w, X * VY, Y * VX
            h = a - b
            c_out_of_range = (past_largest(v2) or past_largest(2 * Decimal(m))
                              or past_largest(w))
            q_out_of_range = past_largest(a) or past_largest(b) or past_largest(h * h)
            try:
                pair = conserved_from_state(state, CentralField(m))
            except DomainError:
                # r rounded to a subnormal or infinite, or C or Q NaN
                assert ((below_normal(r) and x != 0.0 and y != 0.0) or past_largest(r)
                        or c_out_of_range or q_out_of_range)
                return
            if math.isinf(pair.C):
                assert c_out_of_range
            elif c != 0:
                assert ulps(pair.C, c) <= 3 * (v2 + w) / abs(c) + 1
            if math.isinf(pair.Q):
                assert q_out_of_range
            elif h != 0:
                k = (abs(a) + abs(b)) / abs(h)
                assert ulps(pair.Q, h * h) <= ((1 + (k + 1) * EPS) ** 2 * (1 + EPS) - 1) / EPS
