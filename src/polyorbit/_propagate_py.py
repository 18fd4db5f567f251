"""The hot loops of polyorbit in Python: the fallbacks and the oracles.

propagate_kernel is the impulse-polygon kernel.  Each step kicks the
velocity toward the center by (m/r^3)*dt, then drifts the position by the
new velocity times dt.  simulator.integrate and simulator.step run this
loop, or kick_drift in _kick_drift.c when it loads; the two are written
statement for statement alike, and the order of operations fixes every
trajectory bit.  Recorded values are stored through memoryviews of the
float64 outputs, which take a Python float without a NumPy scalar
conversion.

format_rows formats the rows of Trajectory.write_csv, and write_rows writes
them to its stream block by block, or csv_rows in the same C library when it
loads.  The tests check both C loops against these.

ring_terms and conic_residuals are the NumPy loops of shell_accel and
geometry_residuals: ring_terms is defined in shell and bound here,
conic_residuals is defined here, so that simulator's backend names all four
loops and geometry imports no NumPy; ring_terms and conic_residuals in the
C library are their copies.
"""

from array import array
from math import isnan, nan, sqrt

import numpy as np

from . import geometry
from .errors import DomainError
from .geometry import ConicClass
from .shell import _ring_terms as ring_terms

# One CSV row: eight values at 17 significant digits.
_CSV_ROW = ",".join(["%.17g"] * 8) + "\n"


def propagate_kernel(x, y, vx, vy, m, dt, steps, record_every, collision_radius,
                     t0=0.0, max_windows=None):
    """Propagate `steps` kick-then-drift steps from (x, y, vx, vy) at time t0.

    Records every `record_every`-th state plus the initial one and returns
    (t, x, y, vx, vy, collided, windows); t is the running sum t = t + dt
    from t0.  collided is the 1-based step at which the body came within
    `collision_radius` of the center (the arrays then end at the last
    recorded state before it), or -1 if it never did.

    windows = (k, states, last): a window for every step k where
    d = x*vx + y*vy is non-zero and has the other sign at step k + 1, so the
    radial speed turns; k as int64, and the (t, x, y, vx, vy) of the states
    k - 1 .. k + 2 as float64 of shape (len(k), 4, 5), NaN (the bits of C's
    NAN) for a state before step 0 or after the last step run.  A run with
    more than `max_windows` windows returns only the first max_windows + 1.
    last is the (t, x, y, vx, vy) of the last state the run reached.
    """
    n_rec = steps // record_every + 1
    outs = [np.empty(n_rec) for _ in range(5)]
    t_out, x_out, y_out, vx_out, vy_out = (memoryview(out) for out in outs)
    kept = steps if max_windows is None else max_windows + 1
    window_k = array("q")
    window_states = array("d")  # 20 values a window
    t = t0
    n = 1
    due = record_every
    d = x * vx + y * vy
    prev = (nan,) * 5  # state k - 1, then k - 2 in before
    pending = False  # whether the last window's state k + 2 is to come

    t_out[0] = t
    x_out[0] = x
    y_out[0] = y
    vx_out[0] = vx
    vy_out[0] = vy
    collided = -1
    for k in range(1, steps + 1):
        r2 = x * x + y * y
        r = sqrt(r2)
        if r < collision_radius:
            collided = k
            break
        before, prev = prev, (t, x, y, vx, vy)
        d1 = d
        f = m / (r2 * r) * dt
        vx = vx - f * x
        vy = vy - f * y
        x = x + vx * dt
        y = y + vy * dt
        t = t + dt
        d = x * vx + y * vy
        if k == due:
            due += record_every
            t_out[n] = t
            x_out[n] = x
            y_out[n] = y
            vx_out[n] = vx
            vy_out[n] = vy
            n += 1
        if pending:
            window_states[-5:] = array("d", (t, x, y, vx, vy))
            pending = False
        if (d1 < 0.0 and d > 0.0) or (d1 > 0.0 and d < 0.0):
            if len(window_k) < kept:
                window_k.append(k - 1)
                window_states.extend((*before, *prev, t, x, y, vx, vy, nan, nan, nan, nan, nan))
                pending = True
    windows = (np.frombuffer(window_k, dtype=np.int64),
               np.frombuffer(window_states, dtype=np.float64).reshape(-1, 4, 5),
               np.array([t, x, y, vx, vy]))
    return (*(out[:n] for out in outs), collided, windows)


def format_rows(columns, start, stop):
    """Rows [start, stop) of the eight equal-length float64 columns as CSV
    text, each value printed with %.17g; start and stop slice as in Python."""
    rows = zip(*[col[start:stop].tolist() for col in columns])
    return "".join([_CSV_ROW % row for row in rows])


def write_rows(block_columns, n, block_rows, stream):
    """Write rows [0, n) as ASCII bytes to the binary stream, block_rows at
    a time: the rows of block_columns(start, stop), eight float64 columns,
    for each block [start, stop).  format_rows holds the GIL, so one thread
    writes every block."""
    for start in range(0, n, block_rows):
        columns = block_columns(start, min(start + block_rows, n))
        stream.write(format_rows(columns, 0, len(columns[0])).encode("ascii"))


def _sample_thetas(shape, n, start, stop):
    """Polar angles of samples start..stop-1 of n on the real branch."""
    theta0, span, div = geometry._theta_grid(shape, n)
    return theta0 + span * np.arange(start, stop, dtype=np.float64) / div


def _require_finite(what, theta, x, y):
    bad = ~(np.isfinite(x) & np.isfinite(y))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(
            f"{what} at theta={theta[i]:g} is not finite: ({float(x[i])}, {float(y[i])})"
        )


def _require_nonzero(what, theta, norm):
    if not norm.all():
        i = int(np.argmin(norm))
        raise DomainError(f"cannot normalize the zero {what} at theta={theta[i]:g}")


def _block_residuals(shape, theta, focus2_y, focal_constant):
    """(focal, reflection, right-angle) maxima and the skipped count over the
    samples at angles theta; the arithmetic of geometry.conic_point, the
    analytic tangent dP/dtheta and PlanarVector, elementwise.

    Three checks are left out because they cannot fail.  The conic point
    is not zero: max(|c|, |s|) >= 0.7, so r*c and r*s both round to 0 only
    for r = 0, where dr is 0 too and the zero tangent is rejected first.
    The reflection and right-angle residuals are not NaN: they are sums of
    products of unit-vector components, each a finite coordinate divided by
    its non-zero norm, so at most 1 in size.
    """
    aO = shape.focal_directrix_distance
    s, c = np.sin(theta), np.cos(theta)
    r, px, py, dr = geometry._polar_form(shape, theta, s, c)
    _require_finite("conic point", theta, px, py)
    tx, ty = dr * c - r * s, dr * s + r * c
    _require_finite("tangent", theta, tx, ty)
    t_norm = np.hypot(tx, ty)
    _require_nonzero("tangent", theta, t_norm)
    tux, tuy = tx / t_norm, ty / t_norm
    p_norm = np.hypot(px, py)
    pux, puy = px / p_norm, py / p_norm

    kind = shape.conic_class
    if kind is ConicClass.PARABOLA:
        focal = np.abs(p_norm - (py + aO))
        ray_x, ray_y = 0.0, 1.0  # incoming beam parallel to axis
    else:
        dx, dy = 0.0 - px, focus2_y - py
        _require_finite("second-focus ray", theta, dx, dy)
        d_norm = np.hypot(dx, dy)
        _require_nonzero("second-focus ray", theta, d_norm)
        if kind is ConicClass.ELLIPSE:
            focal = np.abs(p_norm + d_norm - focal_constant)
        else:
            focal = np.abs(np.abs(d_norm - p_norm) - focal_constant)
        ray_x, ray_y = dx / d_norm, dy / d_norm

    # Reflection: the two rays make equal (unsigned) angles with the tangent.
    sin1 = np.abs(tux * puy - tuy * pux)
    sin2 = np.abs(tux * ray_y - tuy * ray_x)
    reflection = np.abs(sin1 - sin2)

    # Tangent meets the directrix at l; angle p-focus-l is right.  Samples
    # whose tangent is parallel to the directrix (apsis line) are skipped.
    keep = np.abs(tuy) >= geometry._PARALLEL_EPS
    skipped = len(theta) - int(np.count_nonzero(keep))
    theta_k, px_k, py_k = theta[keep], px[keep], py[keep]
    tux_k, tuy_k, pux_k, puy_k = tux[keep], tuy[keep], pux[keep], puy[keep]
    lx = px_k + (-aO - py_k) / tuy_k * tux_k
    ly = np.full_like(lx, -aO)
    _require_finite("tangent-directrix intersection", theta_k, lx, ly)
    l_norm = np.hypot(lx, ly)
    _require_nonzero("tangent-directrix intersection", theta_k, l_norm)
    right = np.abs(pux_k * (lx / l_norm) + puy_k * (ly / l_norm))

    # np.max propagates NaN, where Python's max(0.0, nan) would drop it.
    focal_max = float(np.max(focal, initial=0.0))
    if isnan(focal_max):
        raise DomainError("focal residual is not a number")
    return (focal_max, float(np.max(reflection, initial=0.0)),
            float(np.max(right, initial=0.0)), skipped)


def conic_residuals(shape, n, start, stop, focus2_y, focal_constant):
    """_block_residuals over samples start..stop-1 of n: the NumPy loop of
    geometry.geometry_residuals, whose copy in C is conic_residuals in
    _kick_drift.c."""
    with np.errstate(all="ignore"):  # non-finite values are tested explicitly
        return _block_residuals(shape, _sample_thetas(shape, n, start, stop), focus2_y,
                                focal_constant)
