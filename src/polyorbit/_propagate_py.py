"""The hot loops of polyorbit in Python: the fallbacks and the oracles.

propagate_kernel is the impulse-polygon kernel.  Each step kicks the
velocity toward the center by (m/r^3)*dt, then drifts the position by the
new velocity times dt.  simulator.integrate runs this loop, or kick_drift
in _kick_drift.c when it loads; the two are written statement for
statement alike, and the order of operations fixes every trajectory bit.
Recorded values are stored through memoryviews of the float64 outputs,
which take a Python float without a NumPy scalar conversion.

format_rows formats the rows of Trajectory.write_csv, and write_rows writes
them to its stream _CSV_CHUNK_ROWS rows at a time: each chunk slices the
five columns that write_csv converts to float64 once (integrate's arrays
with no copy, any other column by a whole-column copy), and derives its r,
v and alpha from its x, y, vx and vy by derive_columns, the one NumPy
definition of those columns (the Trajectory properties use it too).  In C,
derive_columns and csv_rows in the same library are their copies, with
NumPy's arccos between them.  The tests check the C loops against these.

Each loop here and its copy in _propagate_c take the same arguments.

ring_sum and conic_residuals are the NumPy loops of shell.shell_accel
and geometry.geometry_residuals, here so that simulator binds all four
loops from one module and geometry imports no NumPy; ring_sum (over
ring_terms) and conic_residuals in the C library are their copies.  The
ring total is math.fsum of the terms, so its bits depend on them alone.
The ring and residual loops take one sin and one cos per group of
_ANGLE_GROUP rings or samples and each one's by angle addition
(angle_addition, add_angle in C).
"""

from array import array
from itertools import chain
from math import fsum, isnan, pi, sqrt

import numpy as np

from . import geometry
from .errors import DomainError
from .geometry import ConicClass

# One CSV row: eight values at 17 significant digits.
_CSV_ROW = ",".join(["%.17g"] * 8) + "\n"

# Rows per chunk of the CSV export, in both write_rows: one stream.write
# each.  The C export of 200,001 rows to a file took a median 39-43 ms in
# 1024-row chunks, 36-40 ms in 2048 and 36-41 ms in 4096 (21-31 alternating
# runs of each, five times, on a shared 2-vCPU host), but its tracemalloc
# peak grows with the chunk: 0.70, 1.39 and 2.76 MB.  1024 rows keep the
# export under the 1 MB that test_export_memory_is_one_block holds it to.
_CSV_CHUNK_ROWS = 1024

# Rings evaluated per block of ring_terms: each temporary of a block is 512 kB.
_RING_BLOCK = 1 << 16

# Samples evaluated per block of conic_residuals: a block holds a few dozen
# float64 arrays of this length, so memory is flat in n.
_RESIDUAL_BLOCK = 1 << 16

# Rings or samples per group of angle_addition, whose sines and cosines come
# from one np.sin and one np.cos value (ANGLE_GROUP in _kick_drift.c).
# Blocks of ring_sum and conic_residuals start on a group, so each group's
# value is made once.
_ANGLE_GROUP = 128
assert _RING_BLOCK % _ANGLE_GROUP == 0 and _RESIDUAL_BLOCK % _ANGLE_GROUP == 0


def propagate_kernel(x, y, vx, vy, m, dt, steps, record_every, collision_radius,
                     max_windows=None):
    """Propagate `steps` kick-then-drift steps from (x, y, vx, vy) at time 0.

    Records every `record_every`-th state plus the initial one and returns
    (t, x, y, vx, vy, collided, windows); t is the running sum t = t + dt
    from 0.0.  collided is the 1-based step at which the body came within
    `collision_radius` of the center (the arrays then end at the last
    recorded state before it), or -1 if it never did.

    windows = (states, last).  states holds a window for each vertex j of
    the polygon nearer to or farther from the center than both its
    neighbours: the state where r2 = x*x + y*y turns, so that the last non-zero change of r2 up to
    state j and the change from j to j + 1 have opposite signs.  A window is
    the (t, x, y) of the states j - 1, j and j + 1, which have all run, so
    1 <= j <= steps - 1; states is float64 of shape (windows, 3, 3).  A run
    with more than `max_windows` windows returns only the first
    max_windows + 1.  last is the (t, x, y, vx, vy) of the last state the
    run reached.
    """
    n_rec = steps // record_every + 1
    outs = [np.empty(n_rec) for _ in range(5)]
    t_out, x_out, y_out, vx_out, vy_out = (memoryview(out) for out in outs)
    kept = steps if max_windows is None else max_windows + 1
    window_states = array("d")  # 9 values a window
    t = 0.0
    n = 1
    due = record_every
    r2 = x * x + y * y
    rise = 0.0  # the last non-zero change of r2
    before = prev = (t, x, y)  # state k - 1, then k - 2 in before

    t_out[0] = t
    x_out[0] = x
    y_out[0] = y
    vx_out[0] = vx
    vy_out[0] = vy
    collided = -1
    for k in range(1, steps + 1):
        r = sqrt(r2)
        if r < collision_radius:
            collided = k
            break
        f = m / (r2 * r) * dt
        vx = vx - f * x
        vy = vy - f * y
        x = x + vx * dt
        y = y + vy * dt
        t = t + dt
        r2_before = r2
        r2 = x * x + y * y
        change = r2 - r2_before
        if k == due:
            due += record_every
            t_out[n] = t
            x_out[n] = x
            y_out[n] = y
            vx_out[n] = vx
            vy_out[n] = vy
            n += 1
        if (rise < 0.0 and change > 0.0) or (rise > 0.0 and change < 0.0):
            if len(window_states) < 9 * kept:
                window_states.extend((*before, *prev, t, x, y))
        if change != 0.0:
            rise = change
        before, prev = prev, (t, x, y)
    windows = (np.frombuffer(window_states, dtype=np.float64).reshape(-1, 3, 3),
               np.array([t, x, y, vx, vy]))
    return (*(out[:n] for out in outs), collided, windows)


def derive_columns(x, y, vx, vy):
    """(r, v, alpha) of the states (x, y, vx, vy), elementwise:
    r = hypot(x, y), v = hypot(vx, vy) and alpha = arccos((x*vx + y*vy) /
    (r*v)) in radians, its cosine clipped to [-1, 1], with no warning: r or
    v is inf where the hypot overflows, and alpha NaN where r*v is 0 (a
    state at the center or at rest has no angle) and where x*vx + y*vy or
    r*v is not finite.  The columns of the CSV export and the Trajectory r,
    speed and alpha properties; derive_columns in _kick_drift.c is its copy
    in C, all but the arccos."""
    with np.errstate(all="ignore"):
        r = np.hypot(x, y)
        v = np.hypot(vx, vy)
        cos_alpha = np.clip((x * vx + y * vy) / (r * v), -1.0, 1.0)
    return r, v, np.arccos(cos_alpha)


def format_rows(columns):
    """The rows of the eight equal-length float64 columns as CSV text, each
    value printed with %.17g."""
    rows = zip(*[col.tolist() for col in columns])
    return "".join([_CSV_ROW % row for row in rows])


def write_rows(columns, stream):
    """Write the rows of the five float64 columns t, x, y, vx and vy,
    followed by their derive_columns, as ASCII bytes to the binary stream,
    _CSV_CHUNK_ROWS at a time, each chunk a slice of every column.
    format_rows holds the GIL, so one thread writes every chunk."""
    for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
        t, x, y, vx, vy = (col[start:start + _CSV_CHUNK_ROWS] for col in columns)
        stream.write(format_rows([t, x, y, vx, vy, *derive_columns(x, y, vx, vy)]).encode("ascii"))


def angle_addition(theta_g, step, start, stop):
    """sin and cos of the angles of the rings or samples i = start .. stop - 1,
    by angle addition.  Item i = g + k, with g = i - i % _ANGLE_GROUP the
    first item of its group, is at theta_g + k * step; theta_g holds the
    angles of the groups from start's to stop - 1's, and np.sin and np.cos
    are taken of each once.  The offsets' cos(k * step) and sin(k * step)
    come from one table of the _ANGLE_GROUP offsets.  At k = 0 the values
    are those of theta_g.  angle_table and add_angle in _kick_drift.c are
    its copy in C."""
    phi = np.arange(_ANGLE_GROUP) * step
    cos_k, sin_k = np.cos(phi), np.sin(phi)
    sin_g, cos_g = np.sin(theta_g)[:, None], np.cos(theta_g)[:, None]
    # one row per group, from g0 = start - first; item i is at i - g0
    first = start % _ANGLE_GROUP
    sin_t = (sin_g * cos_k + cos_g * sin_k).ravel()[first:first + stop - start]
    cos_t = (cos_g * cos_k - sin_g * sin_k).ravel()[first:first + stop - start]
    return sin_t, cos_t


def ring_terms(a, d, dtheta, width, scale, terms, first=0):
    """Fills terms[i] with the axial pull of ring first + i, at polar angle
    (first + i + 0.5) * dtheta, _RING_BLOCK rings at a time; returns terms.
    The angle's sine and cosine are angle_addition's, from the angles
    (g + 0.5) * dtheta of the groups' first rings g.

    The terms of ring_sum: ring_terms in _kick_drift.c is its copy in C.
    """
    # At extreme scales s2 or the products overflow or underflow; the sum is
    # then inf or nan, which shell_accel rejects.
    with np.errstate(all="ignore"):
        for start in range(first, first + len(terms), _RING_BLOCK):
            stop = min(start + _RING_BLOCK, first + len(terms))
            g = np.arange(start - start % _ANGLE_GROUP, stop, _ANGLE_GROUP)
            sin_t, cos_t = angle_addition((g + 0.5) * dtheta, dtheta, start, stop)
            # thin-ring areas 2*pi*x*w, x = a*sin(theta) the ring's distance
            # to the axis (with 1 to 3 rings, w is not below a)
            areas = 2.0 * pi * (a * sin_t) * width
            s2 = d * d + a * a - 2.0 * a * d * cos_t
            s = np.sqrt(s2)
            axial = (d - a * cos_t) / s
            np.multiply(scale * areas / s2, axial, out=terms[start - first:stop - first])
    return terms


def ring_sum(a, d, dtheta, width, scale, n):
    """math.fsum of the n terms of ring_terms, made _RING_BLOCK at a time:
    the NumPy loop of shell.shell_accel, whose copy in C is ring_sum in
    _kick_drift.c.  Where a term is not finite or the sum overflows, the sum
    is inf or nan, or fsum raises OverflowError or ValueError."""
    block = np.empty(min(n, _RING_BLOCK))
    return fsum(chain.from_iterable(
        memoryview(ring_terms(a, d, dtheta, width, scale, block[:n - first], first))
        for first in range(0, n, _RING_BLOCK)))


def _sample_thetas(shape, n, start, stop, every=1):
    """Polar angles of samples start, start + every, ... below stop, of n on
    the real branch."""
    theta0, span, div = geometry._theta_grid(shape, n)
    return theta0 + span * np.arange(start, stop, every, dtype=np.float64) / div


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


def _by_addition(e):
    """Whether the residual loops take the samples' sines and cosines by
    angle addition: for a parabola, and for an ellipse or hyperbola with
    |1 - e^2| >= 1/2 (a focal constant 2a of at most 4 ell) and e <= 16.
    Elsewhere the residuals are rounding noise that grows with 2a / ell or
    with e: angle addition's few units of 2^-53 in sin and cos moved them by
    up to 2.2 times 1e-14 ell against one np.sin and np.cos per sample at
    e = 0.9, and 5.4 times at e = 1000 (inside the bounds 0.34 times at
    most, over n = 10 to 65537 and ell = 1e-3 to 1e3), so each sample keeps
    its own there.  by_addition in _kick_drift.c is its copy in C."""
    return e <= 16.0 and (e == 1.0 or abs(1.0 - e * e) >= 0.5)


def _sample_sin_cos(shape, n, start, stop):
    """sin and cos of the polar angles of samples start .. stop - 1 of n, as
    the residual loops take them.  Where _by_addition holds, they are
    angle_addition's, from the angles _sample_thetas gives the groups' first
    samples and the step span / div of geometry._theta_grid; elsewhere they
    are np.sin and np.cos of each sample's angle."""
    if not _by_addition(shape.eccentricity):
        theta = _sample_thetas(shape, n, start, stop)
        return np.sin(theta), np.cos(theta)
    _, span, div = geometry._theta_grid(shape, n)
    theta_g = _sample_thetas(shape, n, start - start % _ANGLE_GROUP, stop, _ANGLE_GROUP)
    return angle_addition(theta_g, span / div, start, stop)


def _block_residuals(shape, n, start, stop, focus2_y, focal_constant):
    """(focal, reflection, right-angle) maxima and the skipped count over the
    samples start .. stop - 1 of n; the arithmetic of geometry.conic_point,
    the analytic tangent dP/dtheta and PlanarVector, elementwise, on the
    sines and cosines of _sample_sin_cos.  An error names the sample's own
    angle from _sample_thetas.

    Three checks are left out because they cannot fail.  The conic point
    is not zero: max(|c|, |s|) >= 0.7, so r*c and r*s both round to 0 only
    for r = 0, where dr is 0 too and the zero tangent is rejected first.
    The reflection and right-angle residuals are not NaN: they are sums of
    products of unit-vector components, each a finite coordinate divided by
    its non-zero norm, so at most 1 in size.
    """
    aO = shape.focal_directrix_distance
    theta = _sample_thetas(shape, n, start, stop)
    s, c = _sample_sin_cos(shape, n, start, stop)
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


def conic_residuals(shape, n, focus2_y, focal_constant):
    """_block_residuals over the n samples, _RESIDUAL_BLOCK at a time,
    merged: the NumPy loop of geometry.geometry_residuals, whose copy in C
    is conic_residuals in _kick_drift.c.  The first block that fails raises
    its error."""
    focal = reflection = right = 0.0
    skipped = 0
    with np.errstate(all="ignore"):  # non-finite values are tested explicitly
        for lo in range(0, n, _RESIDUAL_BLOCK):
            block = _block_residuals(shape, n, lo, min(lo + _RESIDUAL_BLOCK, n), focus2_y,
                                     focal_constant)
            focal, reflection, right = (max(focal, block[0]), max(reflection, block[1]),
                                        max(right, block[2]))
            skipped += block[3]
    return focal, reflection, right, skipped
