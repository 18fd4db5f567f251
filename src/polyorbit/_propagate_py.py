"""The hot loops of polyorbit in Python: the fallbacks and the oracles.

propagate_kernel is the impulse-polygon kernel.  Each step kicks the
velocity toward the center by (m/r^3)*dt, then drifts the position by the
new velocity times dt.  simulator.integrate and simulator.step run this
loop, or kick_drift in _kick_drift.c when it loads; the two are written
statement for statement alike, and the order of operations fixes every
trajectory bit.  Recorded values are stored through memoryviews of the
float64 outputs, which take a Python float without a NumPy scalar
conversion.

format_rows formats the rows of Trajectory.write_csv, or csv_rows in the
same C library when it loads.  The tests check both C loops against these.

ring_terms and conic_residuals are the NumPy loops of shell_accel and
geometry_residuals, defined in shell and geometry and bound here so that
simulator's backend names all four loops; ring_terms and conic_residuals
in the C library are their copies.
"""

from array import array
from math import nan, sqrt

import numpy as np

from .geometry import _sample_residuals as conic_residuals
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
