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
"""

import ctypes
import importlib.util
import math
import os
import struct
import sysconfig

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
    import tempfile

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
    ring_terms.argtypes = [ctypes.c_double] * 5 + [ctypes.c_int64, ctypes.c_void_p]
    conic_residuals.restype = ctypes.c_int
    conic_residuals.argtypes = ([ctypes.c_double] * 3 + [ctypes.c_int] + [ctypes.c_double] * 5
                                + [ctypes.c_int64] * 2
                                + [ctypes.c_void_p, ctypes.POINTER(ctypes.c_int64)])
    return kick_drift, csv_rows, ring_terms, conic_residuals


_kick_drift, _csv_rows, _ring_terms, _conic_residuals = _load()
_POW10 = _pow10_table()


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


def format_rows(columns, start, stop):
    """Same arguments and text as _propagate_py.format_rows."""
    # csv_rows reads rows [start, stop) of each column through a pointer
    n = len(columns[0])
    if len(columns) != 8 or not all(
            isinstance(col, np.ndarray) and col.dtype == np.float64 and col.ndim == 1
            and col.flags.c_contiguous and len(col) == n for col in columns):
        raise ValueError("need 8 contiguous 1-D float64 columns of one length")
    start, stop, _ = slice(start, stop).indices(n)
    if start >= stop:
        return ""
    out = np.empty((stop - start) * _ROW_BYTES + _SLACK, dtype=np.uint8)  # not zeroed
    size = _csv_rows((ctypes.c_void_p * 8)(*(col.ctypes.data for col in columns)),
                     start, stop, out.ctypes.data, _POW10.ctypes.data, _POW10_MIN, _POW10_MAX)
    if size < 0:  # newlocale fails for "C" only when out of memory
        raise MemoryError("csv_rows could not make the C numeric locale")
    return str(out.data[:size], "ascii")


def ring_terms(a, d, dtheta, width, scale, terms):
    """Same arguments and bits as shell._ring_terms."""
    # ring_terms writes len(terms) doubles through a pointer
    if not (isinstance(terms, np.ndarray) and terms.dtype == np.float64 and terms.ndim == 1
            and terms.flags.c_contiguous and terms.flags.writeable):
        raise ValueError("need a writable contiguous 1-D float64 array of terms")
    _ring_terms(a, d, dtheta, width, scale, len(terms), terms.ctypes.data)


def conic_residuals(shape, n, start, stop, focus2_y, focal_constant):
    """Same arguments, results, bits and errors as _propagate_py.conic_residuals:
    a block that conic_residuals flags goes to it."""
    e, ell = shape.eccentricity, shape.semi_latus_rectum
    theta0, span, div = geometry._theta_grid(shape, n)
    maxima, skipped = (ctypes.c_double * 3)(), ctypes.c_int64()
    if _conic_residuals(e, ell, shape.focal_directrix_distance, shape.conic_class.value,
                        focus2_y or 0.0, focal_constant or 0.0, theta0, span, div, start, stop,
                        maxima, ctypes.byref(skipped)):
        return _propagate_py.conic_residuals(shape, n, start, stop, focus2_y, focal_constant)
    return (*maxima, skipped.value)


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
