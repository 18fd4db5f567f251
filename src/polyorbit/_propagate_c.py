"""The four hot loops compiled from _kick_drift.c and called through ctypes.

One library holds them: kick_drift, the propagation kernel; csv_rows, the
CSV row formatter; ring_terms, the shell's ring sum; and conic_residuals,
the conic residual samples.  The first import compiles the C file into this
package's __pycache__, the way the interpreter writes bytecode; later
imports load the cached library.  Its name carries a hash of the source,
the compiler command, the flags and the platform, so a change to any of
them builds a new one.  The C file uses no Python headers, so no build step
or extension module is needed.  csv_rows is passed a table of powers of ten
that the import builds from exact integers, so no table is committed.

Before the library is used, a short probe of each loop must match
_propagate_py: the kernel bit for bit, the formatter byte for byte.  When
anything fails (no compiler, a failed compile, an unwritable cache, a load
error or a probe mismatch) the import raises ImportError, and simulator
falls back to _propagate_py for all four loops.  The ring and residual
loops call libm's sin, cos and hypot where NumPy calls its own float64
loops; when their probe differs from NumPy's, this module binds
_propagate_py's ring_terms and conic_residuals, and the kernel and
formatter stay in C.

ring_terms, conic_residuals and write_rows split their rings, samples or
CSV rows into contiguous ranges, one for each CPU this process may use
(_WORKERS), and run the ranges at once: the first on the caller, the others
on threads started for the call and joined before it returns.  ctypes
releases the GIL for each C call.  Every ring term, sample and row depends
on its index alone, so the terms, maxima and text have the bits and bytes
of one call.  write_rows uses at most _EXPORT_RANGES ranges; it spills
each range past the first to an unnamed temporary file and copies the files
into the stream after the join, so the stream is written in order only.
The kernel runs on the caller alone.
"""

import contextlib
import ctypes
import importlib.util
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
# decimation and a start time t0 = 0.1.  Its one window, at step 13, ends
# with a NaN state 15 past the last step.
_PROBE = (-0.10255468462619409, 0.28669936474634045, -0.3122066137899723,
          -0.2561309219401078, 3.3562627079848544, 0.007187745212957374, 14, 3, 1e-9, 0.1)

# format_rows values for the load-time probe, eight columns of five rows:
# 17th-digit ties that round to even (down, then up, at 1e15 and at 1e14,
# with both signs), +-0, subnormals, +-inf, NaN of both signs and +-DBL_MAX;
# then values that csv_rows prints without snprintf, in fixed and exponent
# notation: 10 (whose exponent is first estimated as 0), 1e-14 and 1e98
# (whose 17 digits round up to 10^17) and a subnormal; and
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

# The powers of ten csv_rows scales by: 10^(16 - k) for the decimal
# exponents k from -324 (5e-324) to 308 (DBL_MAX).
_POW10_MIN, _POW10_MAX = 16 - 308, 16 + 324

# The longest row csv_rows writes: eight values of at most 24 characters
# ("-2.2250738585072014e-308"), each followed by a comma or the newline; and
# the bytes its fixed-size copies may write past the last row (CSV_SLACK).
_ROW_BYTES = 8 * 25
_SLACK = 16

# ring_terms arguments for the load-time probe: (a, d, n) of three shells,
# 384 angles in all; and conic_residuals shapes (e, ell) and sample counts
# for an ellipse, a parabola and a hyperbola, 300 angles in all.
_RING_PROBE = ((1.5, 2.3, 256), (0.7, 0.71, 127), (2.0, 5e3, 1))
_RESIDUAL_PROBE = ((0.5, 0.75, 100), (1.0, 1.3, 100), (1.5, 0.75, 100))

# The CPUs this process may use: ring_terms, conic_residuals and write_rows
# run at most this many ranges at once.
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no sched_getaffinity on this platform
    _WORKERS = os.cpu_count() or 1

# The fewest rings, samples or CSV rows a range gets, give or take a block
# of rows.  Starting and joining a thread takes about 0.1 ms, the time of
# 4000 rings, 900 samples or 150 rows, so the load-time probes and small
# calls run on the caller alone.
_MIN_CHUNK = 1 << 14

# write_rows formats at most this many rows per csv_rows call, into a text
# buffer of 0.2 MB that each range reuses; with a block's columns, a range
# holds about 0.3 MB.  Slices of 1024 rows format as fast per row as whole
# 2048-row blocks; 512 rows took about 9% longer.
_TEXT_ROWS = 1024

# The most ranges write_rows splits an export into, whatever _WORKERS is:
# two ranges hold about 0.65 MB, and the whole export stays under 1 MB.
_EXPORT_RANGES = 2


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
    kick_drift, csv_rows = lib.kick_drift, lib.csv_rows
    ring_terms, conic_residuals = lib.ring_terms, lib.conic_residuals
    kick_drift.restype = ctypes.c_int64
    kick_drift.argtypes = ([ctypes.c_double] * 6 + [ctypes.c_int64] * 2
                           + [ctypes.c_double] * 2 + [ctypes.c_void_p] * 5
                           + [ctypes.POINTER(ctypes.c_int64), ctypes.c_int64, ctypes.c_void_p,
                              ctypes.c_void_p, ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p])
    csv_rows.restype = ctypes.c_int64
    csv_rows.argtypes = [ctypes.c_void_p * 8, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
                         ctypes.c_void_p, ctypes.c_int, ctypes.c_int]
    ring_terms.restype = None
    ring_terms.argtypes = [ctypes.c_double] * 5 + [ctypes.c_int64] * 2 + [ctypes.c_void_p]
    conic_residuals.restype = ctypes.c_int
    conic_residuals.argtypes = ([ctypes.c_double] * 3 + [ctypes.c_int] + [ctypes.c_double] * 5
                                + [ctypes.c_int64] * 2
                                + [ctypes.c_void_p, ctypes.POINTER(ctypes.c_int64)])
    return kick_drift, csv_rows, ring_terms, conic_residuals


_kick_drift, _csv_rows, _ring_terms, _conic_residuals = _load()
_POW10 = _pow10_table()


def _ranges(lo, hi, align=1, most=math.inf):
    """The edges [lo, ..., hi] of k contiguous ranges that cover [lo, hi):
    k is at most _WORKERS, `most` and (hi - lo) // _MIN_CHUNK, at least 1,
    and no more than the blocks of `align` indices in [lo, hi).  Each inner
    edge is lo plus a multiple of align, so each range holds whole blocks of
    the one-range run, the last block of [lo, hi) excepted."""
    blocks = -(-(hi - lo) // align)
    k = max(1, min(_WORKERS, most, (hi - lo) // _MIN_CHUNK, blocks))
    return [lo + blocks * j // k * align for j in range(k)] + [hi]


def _split(fn, edges):
    """[fn(start, stop) for each range of _ranges' edges], in order: the
    first run on the caller and each other on a thread of its own.  Once
    every thread has ended, the exception of the first range that raised, in
    range order, is raised on the caller."""
    k = len(edges) - 1
    if k == 1:
        return [fn(*edges)]
    results, errors = [None] * k, [None] * k

    def run(j):
        try:
            results[j] = fn(edges[j], edges[j + 1])
        except BaseException as exc:  # re-raised on the caller
            errors[j] = exc

    threads = []
    try:
        for j in range(1, k):
            thread = threading.Thread(target=run, args=(j,))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def propagate_kernel(x, y, vx, vy, m, dt, steps, record_every, collision_radius,
                     t0=0.0, max_windows=None):
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
    args = (x, y, vx, vy, m, dt, steps, min(record_every, steps + 1), collision_radius, t0,
            *(out.ctypes.data for out in outs), ctypes.byref(collided))
    last = np.empty(5)
    # Room for one window per 1024 steps, plus 16; a run with more is repeated
    # once with room for all of them, or for the max_windows + 1 it keeps.
    kept = steps if max_windows is None else max_windows + 1
    cap = min(steps // 1024 + 16, kept)
    while True:
        window_k = np.empty(cap, dtype=np.int64)
        window_states = np.empty((cap, 4, 5))
        n = _kick_drift(*args, cap, window_k.ctypes.data, window_states.ctypes.data,
                        ctypes.byref(count), last.ctypes.data)
        if count.value <= cap or cap == kept:
            break
        cap = min(count.value, kept)  # the repeat has the same bits
    w = min(count.value, cap)
    return (*(out[:n] for out in outs), collided.value, (window_k[:w], window_states[:w], last))


def format_rows_into(columns, start, stop, out):
    """Rows [start, stop) of the eight columns, as format_rows formats them,
    written as ASCII to the start of out: a writable contiguous uint8 array
    of at least (stop - start) * _ROW_BYTES + _SLACK bytes, some of which
    past the text may change.  Returns the number of bytes of text."""
    # csv_rows reads rows [start, stop) of each column and writes out through
    # pointers
    n = len(columns[0])
    if len(columns) != 8 or not all(
            isinstance(col, np.ndarray) and col.dtype == np.float64 and col.ndim == 1
            and col.flags.c_contiguous and len(col) == n for col in columns):
        raise ValueError("need 8 contiguous 1-D float64 columns of one length")
    start, stop, _ = slice(start, stop).indices(n)
    if start >= stop:
        return 0
    if not (isinstance(out, np.ndarray) and out.dtype == np.uint8 and out.ndim == 1
            and out.flags.c_contiguous and out.flags.writeable
            and len(out) >= (stop - start) * _ROW_BYTES + _SLACK):
        raise ValueError(f"need a writable contiguous 1-D uint8 array of at least "
                         f"{(stop - start) * _ROW_BYTES + _SLACK} bytes for the text")
    size = _csv_rows((ctypes.c_void_p * 8)(*(col.ctypes.data for col in columns)),
                     start, stop, out.ctypes.data, _POW10.ctypes.data, _POW10_MIN, _POW10_MAX)
    if size < 0:  # newlocale fails for "C" only when out of memory
        raise MemoryError("csv_rows could not make the C numeric locale")
    return size


def format_rows(columns, start, stop):
    """Same arguments and text as _propagate_py.format_rows."""
    n = len(columns[0])
    rows = len(range(*slice(start, stop).indices(n)))
    out = np.empty(rows * _ROW_BYTES + _SLACK, dtype=np.uint8)  # not zeroed
    return str(out.data[:format_rows_into(columns, start, stop, out)], "ascii")


def write_rows(block_columns, n, block_rows, stream):
    """Same arguments and bytes as _propagate_py.write_rows, in at most
    _EXPORT_RANGES ranges of whole blocks (_ranges), each block formatted
    _TEXT_ROWS rows at a time.  The caller writes the first range to
    stream; a thread writes each other range to an unnamed temporary file,
    which the caller copies to stream after the join.  When a range's file
    cannot be made or written (OSError), the caller formats that range into
    stream itself, so only an error of stream fails the export."""
    edges = _ranges(0, n, block_rows, _EXPORT_RANGES)
    spills = {}  # range start: its whole text, rewound

    def write_range(start, stop, sink, out):
        text = out.data
        for lo in range(start, stop, block_rows):
            columns = block_columns(lo, min(lo + block_rows, stop))
            for row in range(0, len(columns[0]), _TEXT_ROWS):
                sink.write(text[:format_rows_into(columns, row, row + _TEXT_ROWS, out)])

    def text_buffer():
        # reused for each slice of a range's blocks
        return np.empty(min(block_rows, _TEXT_ROWS) * _ROW_BYTES + _SLACK,
                        dtype=np.uint8)  # not zeroed

    def run(start, stop):
        if start == 0:
            return write_range(start, stop, stream, out)
        with contextlib.ExitStack() as unused:
            try:
                spill = unused.enter_context(tempfile.TemporaryFile())
                write_range(start, stop, spill, text_buffer())
                spill.seek(0)  # flushes the file's buffer
            except OSError:  # a full or unwritable temporary directory
                return  # the caller formats the range after the join
            unused.pop_all()
            spills[start] = spill

    out = text_buffer()
    text = out.data
    try:
        _split(run, edges)
        for start, stop in zip(edges[1:-1], edges[2:]):
            if start in spills:
                while size := spills[start].readinto(out):
                    stream.write(text[:size])
            else:  # its file could not be made or written
                write_range(start, stop, stream, out)
    finally:
        for spill in spills.values():
            spill.close()


def ring_terms(a, d, dtheta, width, scale, terms):
    """Same arguments and bits as shell._ring_terms; each chunk of rings
    fills its own range of terms (_split)."""
    # ring_terms writes len(terms) doubles through a pointer
    if not (isinstance(terms, np.ndarray) and terms.dtype == np.float64 and terms.ndim == 1
            and terms.flags.c_contiguous and terms.flags.writeable):
        raise ValueError("need a writable contiguous 1-D float64 array of terms")
    out = terms.ctypes.data
    _split(lambda start, stop: _ring_terms(a, d, dtheta, width, scale, start, stop, out),
           _ranges(0, len(terms)))


def conic_residuals(shape, n, start, stop, focus2_y, focal_constant):
    """Same arguments, results, bits and errors as _propagate_py.conic_residuals.

    The chunks of [start, stop) (_split) merge their maxima with max, which
    is exact in any order, and add their skipped counts.  When any chunk
    flags, the whole block goes to _propagate_py.conic_residuals, which
    raises the error of the block's first failing check, as one call would.
    """
    theta0, span, div = geometry._theta_grid(shape, n)
    args = (shape.eccentricity, shape.semi_latus_rectum, shape.focal_directrix_distance,
            shape.conic_class.value, focus2_y or 0.0, focal_constant or 0.0, theta0, span, div)

    def chunk(lo, hi):
        maxima, skipped = (ctypes.c_double * 3)(), ctypes.c_int64()
        if _conic_residuals(*args, lo, hi, maxima, ctypes.byref(skipped)):
            return None
        return (*maxima, skipped.value)

    parts = _split(chunk, _ranges(start, stop))
    if None in parts:
        return _propagate_py.conic_residuals(shape, n, start, stop, focus2_y, focal_constant)
    focal, reflection, right, skipped = zip(*parts)
    return max(focal), max(reflection), max(right), sum(skipped)


def _probe() -> None:
    got = propagate_kernel(*_PROBE)
    want = _propagate_py.propagate_kernel(*_PROBE)
    if got[5] != want[5] or any(a.tobytes() != b.tobytes()
                                for a, b in zip((*got[:5], *got[6]), (*want[:5], *want[6]))):
        raise ImportError("the compiled kernel differs from _propagate_py on the load-time probe")
    columns = list(np.array(_PROBE_VALUES).reshape(8, -1))
    rows = len(columns[0])
    try:
        same = format_rows(columns, 0, rows) == _propagate_py.format_rows(columns, 0, rows)
    except UnicodeDecodeError:  # a broken csv_rows can write bytes that are not ASCII
        same = False
    if not same:
        raise ImportError("the compiled CSV formatter differs from _propagate_py on the "
                          "load-time probe")


def _trig_probe_matches() -> bool:
    """Whether ring_terms and conic_residuals give _propagate_py's bits on
    the probe: they do unless NumPy's sin, cos or hypot is not libm's."""
    for a, d, n in _RING_PROBE:
        args = (a, d, math.pi / n, a * math.pi / n, 0.3)
        got, want = np.empty(n), np.empty(n)
        ring_terms(*args, got)
        _propagate_py.ring_terms(*args, want)
        if got.tobytes() != want.tobytes():
            return False
    for e, ell, n in _RESIDUAL_PROBE:
        shape = geometry.ConicShape(e, ell)
        focus2_y, focal_constant = geometry._second_focus(shape)
        got = conic_residuals(shape, n, 0, n, focus2_y, focal_constant)
        want = _propagate_py.conic_residuals(shape, n, 0, n, focus2_y, focal_constant)
        if struct.pack("<3dq", *got) != struct.pack("<3dq", *want):
            return False
    return True


_probe()
if not _trig_probe_matches():
    ring_terms, conic_residuals = _propagate_py.ring_terms, _propagate_py.conic_residuals
