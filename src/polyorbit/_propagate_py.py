"""The two hot loops of polyorbit in Python: the fallback and the oracle.

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
"""

from math import sqrt

import numpy as np

# One CSV row: eight values at 17 significant digits.
_CSV_ROW = ",".join(["%.17g"] * 8) + "\n"


def propagate_kernel(x, y, vx, vy, m, dt, steps, record_every, collision_radius,
                     t0=0.0):
    """Propagate `steps` kick-then-drift steps from (x, y, vx, vy) at time t0.

    Records every `record_every`-th state plus the initial one and returns
    (t, x, y, vx, vy, collided); t is the running sum t = t + dt from t0.
    collided is the 1-based step at which the body came within
    `collision_radius` of the center (the arrays then end at the last
    recorded state before it), or -1 if it never did.
    """
    n_rec = steps // record_every + 1
    outs = [np.empty(n_rec) for _ in range(5)]
    t_out, x_out, y_out, vx_out, vy_out = (memoryview(out) for out in outs)
    t = t0
    n = 1
    due = record_every

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
        f = m / (r2 * r) * dt
        vx = vx - f * x
        vy = vy - f * y
        x = x + vx * dt
        y = y + vy * dt
        t = t + dt
        if k == due:
            due += record_every
            t_out[n] = t
            x_out[n] = x
            y_out[n] = y
            vx_out[n] = vx
            vy_out[n] = vy
            n += 1
    return (*(out[:n] for out in outs), collided)


def format_rows(columns, start, stop):
    """Rows [start, stop) of the eight equal-length float64 columns as CSV
    text, each value printed with %.17g; start and stop slice as in Python."""
    rows = zip(*[col[start:stop].tolist() for col in columns])
    return "".join([_CSV_ROW % row for row in rows])
