"""Impulse-polygon propagation kernel: the one definition of the step.

Each step kicks the velocity toward the center by (m/r^3)*dt, then drifts the
position by the new velocity times dt.  simulator.integrate and
simulator.step both run this loop; the order of operations here fixes every
trajectory bit.
"""

from math import sqrt

import numpy as np


def propagate_kernel(x, y, vx, vy, m, dt, steps, record_every, collision_radius):
    """Propagate `steps` kick-then-drift steps from (x, y, vx, vy).

    Records every `record_every`-th state plus the initial one and returns
    (t, x, y, vx, vy, collided).  collided is the 1-based step at which the
    body came within `collision_radius` of the center (the arrays then end at
    the last recorded state before it), or -1 if it never did.
    """
    n_rec = steps // record_every + 1
    t_arr = np.empty(n_rec)
    x_arr = np.empty(n_rec)
    y_arr = np.empty(n_rec)
    vx_arr = np.empty(n_rec)
    vy_arr = np.empty(n_rec)

    t = 0.0
    idx = 1
    t_arr[0] = 0.0
    x_arr[0] = x
    y_arr[0] = y
    vx_arr[0] = vx
    vy_arr[0] = vy

    for k in range(1, steps + 1):
        r2 = x * x + y * y
        r = sqrt(r2)
        if r < collision_radius:
            return (t_arr[:idx], x_arr[:idx], y_arr[:idx],
                    vx_arr[:idx], vy_arr[:idx], k)
        f = m / (r2 * r) * dt
        vx = vx - f * x
        vy = vy - f * y
        x = x + vx * dt
        y = y + vy * dt
        t = t + dt
        if k % record_every == 0:
            t_arr[idx] = t
            x_arr[idx] = x
            y_arr[idx] = y
            vx_arr[idx] = vx
            vy_arr[idx] = vy
            idx += 1

    return (t_arr[:idx], x_arr[:idx], y_arr[:idx], vx_arr[:idx], vy_arr[:idx], -1)
