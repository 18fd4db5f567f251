"""Impulse-polygon propagation kernel: the one definition of the step.

Each step kicks the velocity toward the center by (m/r^3)*dt, then drifts the
position by the new velocity times dt.  simulator.integrate and
simulator.step both run this loop; the order of operations here fixes every
trajectory bit.

Storing a float into an ndarray from Python costs about 90 ns, so five
stores a step cost about as much as the step's arithmetic.  The loop keeps
recorded states in Python lists of _RECORD_BLOCK entries instead (about
10 ns a store) and copies each full list into the float64 outputs at once.
The sample times are not summed in the loop: t_k = t_{k-1} + dt is rebuilt
afterwards by np.add.accumulate, which adds in sequence and so gives the
same bits as the per-step running sum.
"""

import struct
from math import sqrt

import numpy as np

# Recorded states buffered per output copy, and steps summed per block when
# the sample times are rebuilt.
_RECORD_BLOCK = 4096

# Converts one full buffer of floats to float64 bytes, bit for bit, in about
# 12 ns per value; np.fromiter takes about 30.
_pack_block = struct.Struct(f"{_RECORD_BLOCK}d").pack


def _flush(outs, bufs, idx):
    # Copy each buffer whole to outs[...][idx:idx + len(buffer)].
    n = len(bufs[0])
    pack = _pack_block if n == _RECORD_BLOCK else struct.Struct(f"{n}d").pack
    for out, buf in zip(outs, bufs):
        out[idx:idx + n] = np.frombuffer(pack(*buf))


def _sample_times(dt, record_every, n, t0=0.0):
    """Times of the first n recorded states: t at steps 0, record_every, ...

    Each is the running sum t = t + dt from t = t0 over every step, added in
    step order one block of steps at a time, so a decimated run never holds
    the time of every step.  A run restarted from a recorded state with t0 set
    to its time continues the same running sum, bit for bit.
    """
    t = np.empty(n)
    last = (n - 1) * record_every          # step of the last recorded state
    block = np.empty(min(_RECORD_BLOCK, last + 1))
    t_k0 = t0                              # time at step k0
    k0 = 0
    while k0 <= last:
        seg = block[:last + 1 - k0]
        seg.fill(dt)
        seg[0] = t_k0
        np.add.accumulate(seg, out=seg)    # seg[i] is the time at step k0 + i
        first = -k0 % record_every         # offset of the first recorded step
        picked = seg[first::record_every]
        i = (k0 + first) // record_every
        t[i:i + len(picked)] = picked
        t_k0 = float(seg[-1]) + dt
        k0 += len(seg)
    return t


def propagate_kernel(x, y, vx, vy, m, dt, steps, record_every, collision_radius,
                     t0=0.0):
    """Propagate `steps` kick-then-drift steps from (x, y, vx, vy) at time t0.

    Records every `record_every`-th state plus the initial one and returns
    (t, x, y, vx, vy, collided).  collided is the 1-based step at which the
    body came within `collision_radius` of the center (the arrays then end at
    the last recorded state before it), or -1 if it never did.
    """
    n_rec = steps // record_every + 1
    outs = (np.empty(n_rec), np.empty(n_rec), np.empty(n_rec), np.empty(n_rec))
    bx, by, bvx, bvy = bufs = tuple([0.0] * _RECORD_BLOCK for _ in range(4))
    bx[0] = x
    by[0] = y
    bvx[0] = vx
    bvy[0] = vy
    j = 1          # entries filled in the buffers
    idx = 0        # outputs filled
    due = record_every
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
        if k == due:
            due += record_every
            bx[j] = x
            by[j] = y
            bvx[j] = vx
            bvy[j] = vy
            j += 1
            if j == _RECORD_BLOCK:
                _flush(outs, bufs, idx)
                idx += j
                j = 0

    for buf in bufs:
        del buf[j:]
    _flush(outs, bufs, idx)
    idx += j
    x_arr, y_arr, vx_arr, vy_arr = (out[:idx] for out in outs)
    return (_sample_times(dt, record_every, idx, t0), x_arr, y_arr, vx_arr, vy_arr,
            collided)
