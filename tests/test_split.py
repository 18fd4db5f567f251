"""The C ring sum and residual loops split across threads (_propagate_c._split).

Each test runs with one, two and three chunks at most (the module's
_WORKERS), whatever CPUs this host has.  A split call must give the bits of
one C call over the whole range and of the NumPy loop, raise the NumPy
loop's error for the whole block, pass on a worker's exception, and leave no
thread behind, so that a process forked after it still runs them.
"""

import ctypes
import math
import os
import select
import struct
import sys
import threading
import time

import numpy as np
import pytest

from polyorbit import _propagate_py, geometry, shell, simulator
from polyorbit.errors import DomainError, NoSuchPointError
from polyorbit.geometry import ConicShape, _second_focus
from polyorbit.shell import RingDecomposition, ShellSpec, shell_accel

SHAPES = [(0.5, 0.75), (1.0, 0.75), (1.5, 0.75)]
SHAPE_IDS = ["ellipse", "parabola", "hyperbola"]


@pytest.fixture(params=[1, 2, 3], ids=["W1", "W2", "W3"])
def workers(request, c_loops, monkeypatch):
    monkeypatch.setattr(c_loops, "_WORKERS", request.param)
    return request.param


@pytest.fixture
def on_c(c_loops, monkeypatch):
    """shell_accel and geometry_residuals run the C loops."""
    monkeypatch.setattr(simulator, "_kernel", c_loops)


def ring_args(n):
    dtheta = math.pi / n
    return 1.3, 2.1, dtheta, 1.3 * dtheta, 0.7


def spy(monkeypatch, c_loops, name):
    """The (start, stop) of every call that reaches the C function `name`."""
    calls, original = [], getattr(c_loops, name)

    def recorded(*args):
        start, stop = (args[5], args[6]) if name == "_ring_terms" else (args[9], args[10])
        calls.append((start, stop))
        return original(*args)

    monkeypatch.setattr(c_loops, name, recorded)
    return calls


def residual_bits(result):
    return struct.pack("<3dq", *result)


class TestSplitLoops:
    # n = 1, two and three chunks' thresholds +-1, and the benchmark's rings
    @pytest.mark.parametrize("n", [
        1, 2 * (1 << 14) - 1, 2 * (1 << 14), 2 * (1 << 14) + 1, 3 * (1 << 14) - 1,
        3 * (1 << 14), 3 * (1 << 14) + 1, 10**6,
    ])
    def test_ring_terms_same_bits_as_one_call_and_numpy(self, c_loops, workers, n):
        assert c_loops._MIN_CHUNK == 1 << 14  # the thresholds above
        args = ring_args(n)
        split, one, numpy = np.empty(n), np.empty(n), np.empty(n)
        c_loops.ring_terms(*args, split)
        c_loops._ring_terms(*args, 0, n, one.ctypes.data)
        shell._ring_terms(*args, numpy)
        assert split.tobytes() == one.tobytes() == numpy.tobytes()

    @pytest.mark.parametrize("n", [1, 7, 8, 15, 16, 17, 23, 24, 25, 1000])
    def test_chunks_cover_the_range_once_in_order(self, c_loops, workers, monkeypatch, n):
        monkeypatch.setattr(c_loops, "_MIN_CHUNK", 8)
        calls = spy(monkeypatch, c_loops, "_ring_terms")
        c_loops.ring_terms(*ring_args(n), np.empty(n))
        k = max(1, min(workers, n // 8))
        assert len(calls) == k
        assert sorted(calls) == [(n * j // k, n * (j + 1) // k) for j in range(k)]
        assert all(stop - start >= min(n, 8) for start, stop in calls)

    def test_shell_accel_keeps_its_bits(self, c_loops, workers, monkeypatch):
        spec, rings = ShellSpec(1.0, 1.0, 1.0), RingDecomposition(10**6)
        monkeypatch.setattr(simulator, "_kernel", _propagate_py)
        numpy = shell_accel(spec, 2.0, rings)
        monkeypatch.setattr(simulator, "_kernel", c_loops)
        calls = spy(monkeypatch, c_loops, "_ring_terms")
        assert shell_accel(spec, 2.0, rings).hex() == numpy.hex()
        assert len(calls) == workers

    @pytest.mark.parametrize("e, ell", SHAPES, ids=SHAPE_IDS)
    @pytest.mark.parametrize("start, stop", [
        (0, 50000), (0, geometry._RESIDUAL_BLOCK), (0, 2 * (1 << 14) - 1), (0, 2 * (1 << 14)),
        (0, 3 * (1 << 14) + 1), (1, 3 * (1 << 14) + 2),
    ])
    def test_conic_residuals_same_bits_as_one_call_and_numpy(self, c_loops, workers, e, ell,
                                                             start, stop):
        shape = ConicShape(e, ell)
        n = max(stop, 50000)
        focus = _second_focus(shape)
        split = c_loops.conic_residuals(shape, n, start, stop, *focus)
        with np.errstate(all="ignore"):
            numpy = _propagate_py.conic_residuals(shape, n, start, stop, *focus)
        assert residual_bits(split) == residual_bits(numpy)
        # one C call over the whole range, as conic_residuals made before
        theta0, span, div = geometry._theta_grid(shape, n)
        maxima, skipped = (ctypes.c_double * 3)(), ctypes.c_int64()
        assert c_loops._conic_residuals(
            e, ell, shape.focal_directrix_distance, shape.conic_class.value, focus[0] or 0.0,
            focus[1] or 0.0, theta0, span, div, start, stop, maxima,
            ctypes.byref(skipped)) == 0
        assert residual_bits(split) == residual_bits((*maxima, skipped.value))

    @pytest.mark.parametrize("e, ell", SHAPES, ids=SHAPE_IDS)
    def test_conic_residuals_on_both_sides_of_each_chunk_edge(self, c_loops, workers,
                                                              monkeypatch, e, ell):
        # Chunks of 8 samples, and every range of up to 3 chunks + 2 from
        # the first 10 starts: each chunk edge falls on every sample.
        monkeypatch.setattr(c_loops, "_MIN_CHUNK", 8)
        shape, n = ConicShape(e, ell), 64
        focus = _second_focus(shape)
        for start in range(10):
            for stop in range(start, start + 27):
                split = c_loops.conic_residuals(shape, n, start, stop, *focus)
                with np.errstate(all="ignore"):
                    numpy = _propagate_py.conic_residuals(shape, n, start, stop, *focus)
                assert residual_bits(split) == residual_bits(numpy), (start, stop)

    @pytest.mark.parametrize("nan_focal", [False, True], ids=["last-flags", "all-flag"])
    def test_failing_sample_in_the_last_chunk_raises_the_whole_block_error(
            self, c_loops, workers, monkeypatch, nan_focal):
        # A hyperbola sampled from theta0 so that only the last 5% of the
        # angles lie past the asymptote, 1 - 1.5 sin(theta) <= 0.  With a
        # NaN focal constant every chunk flags, for the block's last check:
        # the error is still the no-point error, which a rerun of the first
        # flagged chunk alone would miss.
        shape, n = ConicShape(1.5, 1.0), 50000
        edge = math.asin(1.0 / 1.5)
        monkeypatch.setattr(geometry, "_theta_grid", lambda shape, n: (edge - 0.95, 1.0, n))
        focus2_y, focal_constant = _second_focus(shape)
        focus = (focus2_y, math.nan if nan_focal else focal_constant)
        flagged = []
        original = c_loops._conic_residuals

        def recorded(*args):
            flag = original(*args)
            flagged.append((args[9], args[10], flag))
            return flag

        monkeypatch.setattr(c_loops, "_conic_residuals", recorded)
        with pytest.raises(DomainError) as split:
            c_loops.conic_residuals(shape, n, 0, n, *focus)
        with pytest.raises(DomainError) as numpy, np.errstate(all="ignore"):
            _propagate_py.conic_residuals(shape, n, 0, n, *focus)
        assert type(split.value) is type(numpy.value) is NoSuchPointError
        assert str(split.value) == str(numpy.value)
        clean = 1 if nan_focal else 0
        assert [flag for _, _, flag in sorted(flagged)] == [clean] * (workers - 1) + [1]

    @pytest.mark.parametrize("workers", [2, 3])  # one chunk runs on the caller alone
    @pytest.mark.parametrize("loop", ["_ring_terms", "_conic_residuals"])
    def test_a_workers_exception_reaches_the_caller(self, c_loops, monkeypatch, loop,
                                                    workers):
        monkeypatch.setattr(c_loops, "_WORKERS", workers)
        started = threading.active_count()

        def broken(*args):
            start = args[5] if loop == "_ring_terms" else args[9]
            if start > 0:
                raise RuntimeError(f"chunk from {start}")
            time.sleep(0.05)  # the caller's chunk ends after the workers
            return 0

        monkeypatch.setattr(c_loops, loop, broken)
        n = 10**5
        # the first worker's chunk starts at n // workers
        with pytest.raises(RuntimeError, match=f"^chunk from {n // workers}$"):
            if loop == "_ring_terms":
                c_loops.ring_terms(*ring_args(n), np.empty(n))
            else:
                c_loops.conic_residuals(ConicShape(0.5, 0.75), n, 0, n,
                                         *_second_focus(ConicShape(0.5, 0.75)))
        assert threading.active_count() == started

    def test_four_threads_calling_shell_accel_get_the_same_bits(self, c_loops, workers,
                                                               on_c):
        # Up to 12 threads on however many CPUs, switching as often as the
        # interpreter allows: no chunk may land in another call's terms.
        spec, rings = ShellSpec(1.0, 1.0, 1.0), RingDecomposition(10**6)
        want = shell_accel(spec, 2.0, rings).hex()
        barrier = threading.Barrier(4)
        got = [None] * 4

        def call(i):
            barrier.wait()
            got[i] = shell_accel(spec, 2.0, rings).hex()

        threads = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [want] * 4


class TestFork:
    def test_forked_child_after_a_split_call_runs_shell_accel(self, c_loops, monkeypatch,
                                                              on_c):
        monkeypatch.setattr(c_loops, "_WORKERS", 2)
        spec, rings = ShellSpec(1.0, 1.0, 1.0), RingDecomposition(10**6)
        calls = spy(monkeypatch, c_loops, "_ring_terms")
        want = shell_accel(spec, 2.0, rings).hex()
        assert len(calls) == 2  # the parent split
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: never return into pytest
            code = 1
            try:
                os.close(read_end)
                os.write(write_end, shell_accel(spec, 2.0, rings).hex().encode())
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        got = None
        try:
            ready, _, _ = select.select([read_end], [], [], 60)
            got = os.read(read_end, 100).decode() if ready else None
        finally:
            os.close(read_end)
            if got is None:
                os.kill(pid, 9)
            _, status = os.waitpid(pid, 0)
        assert got == want, "the child did not answer within 60 s"
        assert os.waitstatus_to_exitcode(status) == 0
