"""The four hot loops compiled from _kick_drift.c and called through ctypes.

One library holds them: kick_drift, the propagation kernel; csv_rows, the
CSV row formatter, with derive_columns, which writes each CSV chunk's r, v
and cos alpha, both called by write_rows alone; ring_sum, the shell's ring
sum; and conic_residuals, the conic residual samples.  The first import
compiles the C file into this package's __pycache__, the way the
interpreter writes bytecode; later imports load the cached library.  Its
name carries a hash of the source, the compiler command, the flags and the
platform, so a change to any of them builds a new one.  The C file uses no
Python headers, so no build step or extension module is needed.  csv_rows
is passed a table of powers of ten that the import builds from exact
integers, so no table is committed.

Importing this module raises ImportError only when the library cannot be
built or loaded: no compiler, a failed compile, an unwritable cache or a
load error.  probe() then says, for each loop, whether it gives
_propagate_py's bits or bytes on short probe inputs, and simulator binds
each loop that does and _propagate_py's copy of each other one; csv_rows
and derive_columns are probed through write_rows, the path every export
runs.  The ring and residual loops and derive_columns call libm's sin, cos
and hypot where NumPy calls its own float64 loops, so their probes differ
where those give other bits.  derive_columns leaves the arccos to NumPy,
whose float64 loop can give other bits than libm's acos, as its AVX-512
loop does.

Each loop here takes the arguments of its copy in _propagate_py.  ring_sum
and conic_residuals split their rings or samples into contiguous ranges,
one for each CPU this process may use (_WORKERS), and write_rows its rows
into the chunks of _propagate_py._CSV_CHUNK_ROWS rows that the Python
export writes, each a start row and a row count over the five columns that
Trajectory.write_csv converts to float64 once (integrate's arrays with no
copy, any other column by a whole-column copy) and write_rows checks once:
one derive_columns call, one in-place NumPy arccos and one csv_rows call
on buffers made once per export.  One scheduler, _in_order, runs them on
the caller and on threads started for the call, and the caller takes the
results in order.  ctypes releases the GIL for each C call.  Every ring
term, sample and row depends on its index alone, so the maxima have the
bits of one call and the text its bytes.
Each of ring_sum's ranges adds its terms exactly, and the caller rounds the
sum of them all once with math.fsum, so the total is the correctly rounded
sum of the terms however they are split.  The first range or chunk that
raises, on whichever thread, ends the call after the results before it.
The kernel runs on the caller alone.
"""

import ctypes
import importlib.util
import io
import math
import os
import struct
import sysconfig
import tempfile
import threading

import numpy as np

from . import _propagate_py, geometry

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_kick_drift.c")
_CACHE = os.path.join(_HERE, "__pycache__")

# Every step must round as the Python kernel does.  -ffp-contract=off stops
# the compiler from fusing a multiply and an add into one FMA, which rounds
# once instead of twice; -ffast-math or -march could reorder or fuse too.
_FLAGS = ("-O2", "-fPIC", "-shared", "-std=c99", "-ffp-contract=off")
_LIBS = ("-lm",)

# propagate_kernel arguments for the load-time probe: a launch on which a
# hypot-based step and the kernel's sqrt(r2) / (r2 * r) step differ in the
# last bit, and on which a fused multiply-add changes the result, with a
# decimation.  Its one window is whole: states 12, 13 and 14, the last.
_PROBE = (-0.10255468462619409, 0.28669936474634045, -0.3122066137899723,
          -0.2561309219401078, 3.3562627079848544, 0.007187745212957374, 14, 3, 1e-9)

# write_rows values for the load-time probe, eight rows of t, x, y, vx and
# vy: 17th-digit ties that round to even (down, then up, at 1e15 and at
# 1e14, with both signs), +-0, subnormals, +-inf, NaN of both signs and
# +-DBL_MAX; then values that csv_rows prints without snprintf, in fixed
# and exponent notation: 10 (whose exponent is first estimated as 0), 1e-14
# and 1e98 (whose 17 digits round up to 10^17) and a subnormal; and
# 1.3076622631878654e65, 3.7e-20 units past a tie at its 17th digit, which
# goes to snprintf.
_PROBE_VALUES = (
    1000000000000000.25, 1000000000000000.75, -1000000000000000.25, -1000000000000000.75,
    100000000000000.125, 100000000000000.375, -100000000000000.625, 2251799813685247.75,
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.2250738585072014e-308,
    math.inf, -math.inf, math.nan, struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000000))[0],
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, -1 / 3, 1e16, 1.5e-5,
    123.0, 1e22, 9.999999999999999e-5, 2.5, -7e-300, 6.02214076e23, 1e-7, 4.35,
    10.0, -0.00012345678901234567, 12345678901234568.0, 1e17, -1e-14, 1e98,
    1.3076622631878654e65, -2.2250738585072014e-308 / 3,
)

# write_rows states (x, y, vx, vy), at t = 0, for the load-time probe,
# whose r, v and alpha columns the probe checks against NumPy's: r*v = 0 at
# rest, and at the center with zeros of both signs; subnormals, whose r*v
# underflows to 0; inf, and NaN with hypot(NaN, inf) = inf; coordinates
# near DBL_MAX whose x*x + y*y overflows while hypot does not, and whose
# products overflow; cosines that round past 1 and -1, so the clip acts;
# and a state whose v = hypot(vx, vy) differs from sqrt(vx*vx + vy*vy) in
# the last bit.
_DERIVE_PROBE = (
    (1.0, 2.0, 0.0, 0.0), (-0.0, 0.0, 1.0, -0.0), (5e-324, -5e-324, 3e-320, 1e-310),
    (math.inf, 1.0, 1.0, 0.0), (math.nan, math.inf, 1.0, 1.0), (1e308, 1.2e308, 1.0, 0.5),
    (1e308, -1.2e308, 1e308, 1e308), (0.7, 0.1, 0.7, 0.1), (0.7, 0.1, -0.7, -0.1),
    (-0.10255468462619409, 0.28669936474634045, -0.3122066137899723, -0.2561309219401078),
)

# The powers of ten csv_rows scales by: 10^(16 - k) for the decimal
# exponents k from -324 (5e-324) to 308 (DBL_MAX).
_POW10_MIN, _POW10_MAX = 16 - 308, 16 + 324

# The longest row csv_rows writes: eight values of at most 24 characters
# ("-2.2250738585072014e-308"), each followed by a comma or the newline; and
# the bytes its fixed-size copies may write past the last row (CSV_SLACK).
_ROW_BYTES = 8 * 25
_SLACK = 16

# ring_terms and ring_sum arguments for the load-time probe: (a, d, n) of
# two shells, 382 angles in all, the second with d < a, whose terms have
# both signs, so a sign or carry fault shows in its total; and
# conic_residuals shapes (e, ell) and sample counts for an ellipse, a
# parabola and a hyperbola, each over 2 or 3 groups of 128, 629 in all.
_RING_PROBE = ((1.5, 2.3, 256), (1.648, 1.601, 126))
_RESIDUAL_PROBE = ((0.5, 0.75, 300), (1.0, 1.3, 200), (1.5, 0.75, 129))

# The CPUs this process may use: ring_sum and conic_residuals run at most
# this many ranges at once, and write_rows starts a thread where it is 2 or
# more.
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no sched_getaffinity on this platform
    _WORKERS = os.cpu_count() or 1

# The doubles ring_sum in _kick_drift.c writes for a range (RING_CHUNKS).
_RING_CHUNKS = 67

# The fewest rings or samples a range gets, and the fewest CSV rows for
# which write_rows starts a thread.  Starting and joining a thread takes
# about 0.1 ms, the time of 4000 rings, 900 samples or 150 rows, so the
# load-time probes and small calls run on the caller alone.
_MIN_CHUNK = 1 << 14

# The text buffers of one export, about 0.6 MB, whatever _WORKERS is: one
# being formatted on each of the two threads that format, and one ready or
# being written while the caller's chunk is not.  With each chunk's columns
# the export stays under 1 MB.
_TEXT_BUFFERS = 3


def _library_path(cc: str) -> str:
    """Path of the library built from _SOURCE with `cc`, compiled on a cache
    miss; concurrent first imports each compile to their own temporary file
    and rename it into place."""
    with open(_SOURCE, "rb") as f:
        key = f.read() + "\0".join((cc, *_FLAGS, *_LIBS, sysconfig.get_platform())).encode()
    name = f"_kick_drift-{importlib.util.source_hash(key).hex()}.so"
    path = os.path.join(_CACHE, name)
    if os.path.exists(path):
        return path

    import shlex
    import subprocess

    os.makedirs(_CACHE, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=name + ".", suffix=".tmp", dir=_CACHE)  # O_EXCL
    os.close(fd)
    try:
        try:
            subprocess.run([*shlex.split(cc), *_FLAGS, "-o", tmp, _SOURCE, *_LIBS],
                           check=True, capture_output=True, timeout=300)
        except subprocess.CalledProcessError as exc:
            raise ImportError(f"{cc} could not compile {_SOURCE}:\n"
                              f"{exc.stderr.decode(errors='replace')}") from exc
        except subprocess.SubprocessError as exc:
            raise ImportError(f"{cc} could not compile {_SOURCE}: {exc}") from exc
        os.chmod(tmp, 0o755)  # mkstemp made it private; other users may load it
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _pow10_table():
    """For q = _POW10_MIN .. _POW10_MAX, the two 64-bit words, high first, of
    10^q's 128-bit mantissa rounded down: the m with 2^127 <= m < 2^128 and
    m <= 10^q / 2^b < m + 1 for an integer b.  Exact for 0 <= q <= 55."""
    raw = bytearray()
    n = 10 ** -_POW10_MIN
    for q in range(_POW10_MIN, _POW10_MAX + 1):
        if q < 0:  # 10^q = 1 / n
            m = (1 << (n.bit_length() + 127)) // n
            n //= 10
        else:  # 10^q = n
            m = (n << 128) >> n.bit_length()
            n *= 10
        raw += m.to_bytes(16, "big")
    return np.frombuffer(raw, dtype=">u8").astype(np.uint64)


def _load():
    cc = sysconfig.get_config_var("CC")
    if not cc:
        raise ImportError("this Python names no C compiler (sysconfig CC)")
    try:
        lib = ctypes.CDLL(_library_path(cc))
    except OSError as exc:
        raise ImportError(f"the C kernel could not be built or loaded: {exc}") from exc
    kick_drift, csv_rows, derive_columns = lib.kick_drift, lib.csv_rows, lib.derive_columns
    ring_terms, ring_sum, conic_residuals = lib.ring_terms, lib.ring_sum, lib.conic_residuals
    kick_drift.restype = ctypes.c_int64
    kick_drift.argtypes = ([ctypes.c_double] * 6 + [ctypes.c_int64] * 2
                           + [ctypes.c_double] + [ctypes.c_void_p] * 5
                           + [ctypes.POINTER(ctypes.c_int64), ctypes.c_int64, ctypes.c_void_p,
                              ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p])
    csv_rows.restype = ctypes.c_int64
    csv_rows.argtypes = [ctypes.c_void_p * 8, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
                         ctypes.c_int, ctypes.c_int]
    derive_columns.restype = None
    derive_columns.argtypes = [ctypes.c_void_p * 8, ctypes.c_int64]
    ring_terms.restype = None
    ring_terms.argtypes = [ctypes.c_double] * 5 + [ctypes.c_int64] * 2 + [ctypes.c_void_p]
    ring_sum.restype = ctypes.c_int
    ring_sum.argtypes = [ctypes.c_double] * 5 + [ctypes.c_int64] * 2 + [ctypes.c_void_p]
    conic_residuals.restype = ctypes.c_int
    conic_residuals.argtypes = ([ctypes.c_double] * 3 + [ctypes.c_int] + [ctypes.c_double] * 6
                                + [ctypes.c_int64] * 2
                                + [ctypes.c_void_p, ctypes.POINTER(ctypes.c_int64)])
    return kick_drift, csv_rows, derive_columns, ring_terms, ring_sum, conic_residuals


_kick_drift, _csv_rows, _derive_columns, _ring_terms, _ring_sum, _conic_residuals = _load()
_POW10 = _pow10_table()
_POW10_ADDRESS = _POW10.ctypes.data


def _ranges(n):
    """The edges [0, ..., n] of k contiguous ranges that cover [0, n): k is
    at most _WORKERS and n // _MIN_CHUNK, and at least 1."""
    k = max(1, min(_WORKERS, n // _MIN_CHUNK))
    return [n * j // k for j in range(k + 1)]


def _in_order(fn, n, threads, ahead, take):
    """take(fn(j)) on the caller for j = 0 .. n - 1, in order.  The caller and
    `threads` threads started for the call each claim the next unclaimed j,
    at most `ahead` past the last j taken, so that chunk j may reuse the
    buffer of chunk j - ahead; while the next result is not ready, the
    caller claims and computes one itself.  The first j whose fn raised ends
    the claims, and its exception is raised on the caller after the results
    before it are taken and every thread has ended; an exception of take
    ends the threads before it propagates."""
    done = {}  # j: (fn(j), None) or (None, its exception)
    changed = threading.Condition()
    # the next j to claim, the next j to take (every j before it is taken),
    # and the first j that failed (0 once the caller stops)
    claimed, taken, end = 0, 0, n

    def claim():
        # under `changed`: the next claimable j, or None
        nonlocal claimed
        if claimed >= min(end, taken + ahead):
            return None
        claimed += 1
        return claimed - 1

    def run(j):
        nonlocal end
        try:
            result = fn(j), None
        except BaseException as exc:  # raised on the caller in j's turn
            result = None, exc
        with changed:
            done[j] = result
            if result[1] is not None:
                end = min(end, j)
            changed.notify_all()

    def work():
        while True:
            with changed:
                while (j := claim()) is None:
                    if claimed >= end:
                        return
                    changed.wait()
            run(j)

    workers = []
    try:
        for _ in range(threads):
            worker = threading.Thread(target=work)
            worker.start()
            workers.append(worker)
        for taken in range(n):
            while True:
                with changed:
                    changed.notify_all()  # taken moved on, so a thread may claim
                    while taken not in done and (j := claim()) is None:
                        changed.wait()
                    if taken in done:
                        result, exc = done.pop(taken)
                        break
                run(j)
            if exc is not None:
                raise exc
            take(result)
    finally:
        with changed:
            end = 0
            changed.notify_all()
        for worker in workers:
            worker.join()


def propagate_kernel(x, y, vx, vy, m, dt, steps, record_every, collision_radius,
                     max_windows=None):
    """Same arguments, results and bits as _propagate_py.propagate_kernel."""
    if not (0 <= steps < 2**63 - 1 and record_every >= 1):
        # the loop would write past the outputs, or ctypes would wrap steps
        raise ValueError(f"need 0 <= steps < 2**63 - 1 and record_every >= 1, "
                         f"got steps={steps}, record_every={record_every}")
    n_rec = steps // record_every + 1
    outs = [np.empty(n_rec) for _ in range(5)]
    collided, count = ctypes.c_int64(), ctypes.c_int64()
    # ctypes wraps an int beyond int64 (c_int64(2**70) is 0); any
    # record_every above steps records the initial state only.
    args = (x, y, vx, vy, m, dt, steps, min(record_every, steps + 1), collision_radius,
            *(out.ctypes.data for out in outs), ctypes.byref(collided))
    last = np.empty(5)
    # Room for one window per 1024 steps, plus 16; a run with more is repeated
    # once with room for all of them, or for the max_windows + 1 it keeps.
    kept = steps if max_windows is None else max_windows + 1
    cap = min(steps // 1024 + 16, kept)
    while True:
        window_states = np.empty((cap, 3, 3))
        n = _kick_drift(*args, cap, window_states.ctypes.data, ctypes.byref(count),
                        last.ctypes.data)
        if count.value <= cap or cap == kept:
            break
        cap = min(count.value, kept)  # the repeat has the same bits
    return (*(out[:n] for out in outs), collided.value,
            (window_states[:min(count.value, cap)], last))


def _float64_columns(columns):
    """The length of the columns t, x, y, vx and vy: five contiguous 1-D
    float64 arrays of one length, which the C loops read through pointers."""
    n = len(columns[0])
    if len(columns) != 5 or not all(
            isinstance(col, np.ndarray) and col.dtype == np.float64
            and col.shape == (n,) and col.flags.c_contiguous for col in columns):
        raise ValueError("need 5 contiguous 1-D float64 columns of one length")
    return n


class _Chunk:
    """The memory one chunk of write_rows is formatted in: the text, the
    chunk's r, v and cos alpha, and the eight column pointers of
    derive_columns and csv_rows, the last three of them at those three."""

    def __init__(self, rows):
        self.text = np.empty(rows * _ROW_BYTES + _SLACK, dtype=np.uint8)  # not zeroed
        self.text_address = self.text.ctypes.data
        self.derived = np.empty((3, rows))
        self.pointers = (ctypes.c_void_p * 8)(
            *[None] * 5, *(col.ctypes.data for col in self.derived))


def _format_chunk(addresses, start, n, chunk):
    """Rows [start, start + n) of the five float64 columns t, x, y, vx and
    vy at addresses and their r, v and alpha, as _propagate_py.write_rows
    writes them, in the _Chunk chunk of n rows or more: derive_columns in
    C, NumPy's arccos in place over its cosines, then csv_rows to the
    chunk's text; its text's memoryview."""
    pointers = chunk.pointers
    for k, address in enumerate(addresses):
        pointers[k] = address + 8 * start
    _derive_columns(pointers, n)
    alpha = chunk.derived[2, :n]
    np.arccos(alpha, out=alpha)
    size = _csv_rows(pointers, n, chunk.text_address, _POW10_ADDRESS, _POW10_MIN, _POW10_MAX)
    if size < 0:  # newlocale fails for "C" only when out of memory
        raise MemoryError("csv_rows could not make the C numeric locale")
    return chunk.text.data[:size]


def write_rows(columns, stream):
    """Same arguments and bytes as _propagate_py.write_rows, on five
    contiguous 1-D float64 columns of one length, checked once: chunks of
    _CSV_CHUNK_ROWS rows, each _format_chunk in one of _TEXT_BUFFERS _Chunk
    buffers, which the caller writes to stream in order (_in_order).  With
    _WORKERS >= 2 and at least _MIN_CHUNK rows, one thread formats chunks
    beside the caller, so neither CPU idles while the other lags."""
    n = _float64_columns(columns)
    addresses = [col.ctypes.data for col in columns]
    rows = _propagate_py._CSV_CHUNK_ROWS
    threads = 1 if _WORKERS >= 2 and n >= _MIN_CHUNK else 0
    ahead = _TEXT_BUFFERS if threads else 1
    chunks = [_Chunk(min(rows, n)) for _ in range(ahead)]
    _in_order(lambda j: _format_chunk(addresses, j * rows, min(rows, n - j * rows),
                                      chunks[j % ahead]),
              -(-n // rows), threads, ahead, stream.write)


def ring_sum(a, d, dtheta, width, scale, n):
    """Same arguments as _propagate_py.ring_sum, and its bits where the total
    is finite: math.fsum of the exact sums that the ranges of [0, n)
    (_ranges, run by _in_order) write as _RING_CHUNKS doubles each.  NaN
    where a term is not finite."""
    edges, codes = _ranges(n), []
    k = len(edges) - 1
    chunks = (ctypes.c_double * (_RING_CHUNKS * k))()
    _in_order(lambda j: _ring_sum(a, d, dtheta, width, scale, edges[j], edges[j + 1],
                                  ctypes.byref(chunks, 8 * _RING_CHUNKS * j)),
              k, k - 1, k, codes.append)
    return math.nan if any(codes) else math.fsum(chunks)


def conic_residuals(shape, n, focus2_y, focal_constant):
    """Same arguments, results, bits and errors as _propagate_py.conic_residuals.

    The ranges of [0, n) (_ranges, run by _in_order) merge their maxima
    with max, which is exact in any order, and add their skipped counts.
    When any range flags, all n samples go to _propagate_py.conic_residuals,
    which raises the error of its first failing block's first failing check.
    """
    theta0, span, div = geometry._theta_grid(shape, n)
    args = (shape.eccentricity, shape.semi_latus_rectum, shape.focal_directrix_distance,
            shape.conic_class.value, focus2_y or 0.0, focal_constant or 0.0, theta0, span, div,
            geometry._PARALLEL_EPS)

    edges, parts = _ranges(n), []

    def chunk(j):
        maxima, skipped = (ctypes.c_double * 3)(), ctypes.c_int64()
        if _conic_residuals(*args, edges[j], edges[j + 1], maxima, ctypes.byref(skipped)):
            return None
        return (*maxima, skipped.value)

    k = len(edges) - 1
    _in_order(chunk, k, k - 1, k, parts.append)
    if None in parts:
        return _propagate_py.conic_residuals(shape, n, focus2_y, focal_constant)
    focal, reflection, right, skipped = zip(*parts)
    return max(focal), max(reflection), max(right), sum(skipped)


def _csv(write_rows, columns):
    """The bytes write_rows writes for the columns."""
    stream = io.BytesIO()
    write_rows(columns, stream)
    return stream.getvalue()


def probe():
    """{loop: whether it gives _propagate_py's bits or bytes on the probe
    inputs} for propagate_kernel, write_rows (its formatter on every field
    and its derived columns), ring_sum (with its ring_terms) and
    conic_residuals."""
    got, want = propagate_kernel(*_PROBE), _propagate_py.propagate_kernel(*_PROBE)
    kernel = got[5] == want[5] and all(a.tobytes() == b.tobytes() for a, b in
                                       zip((*got[:5], *got[6]), (*want[:5], *want[6])))
    states = [*np.reshape(_PROBE_VALUES, (8, 5)), *((0.0, *state) for state in _DERIVE_PROBE)]
    columns = list(np.transpose(states).copy())
    # a cosine that a broken derive_columns leaves past +-1 is a NaN alpha,
    # and no warning
    with np.errstate(invalid="ignore"):
        rows = _csv(write_rows, columns) == _csv(_propagate_py.write_rows, columns)
    ring = True
    for a, d, n in _RING_PROBE:
        args = (a, d, math.pi / n, a * math.pi / n, 0.3)
        terms, want_terms = np.empty(n), np.empty(n)
        _ring_terms(*args, 0, n, terms.ctypes.data)
        _propagate_py.ring_terms(*args, want_terms)
        ring &= (terms.tobytes() == want_terms.tobytes()
                 and ring_sum(*args, n).hex() == _propagate_py.ring_sum(*args, n).hex())
    residuals = True
    for e, ell, n in _RESIDUAL_PROBE:
        shape = geometry.ConicShape(e, ell)
        args = (shape, n, *geometry._second_focus(shape))
        residuals &= (struct.pack("<3dq", *conic_residuals(*args))
                      == struct.pack("<3dq", *_propagate_py.conic_residuals(*args)))
    return {"propagate_kernel": kernel, "write_rows": rows, "ring_sum": ring,
            "conic_residuals": residuals}
