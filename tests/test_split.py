"""The C ring sum, residual loops and CSV export split across threads
(_propagate_c._split).

Each test runs with one, two and three chunks at most (the module's
_WORKERS), whatever CPUs this host has.  A split call must give the bits of
one C call over the whole range and of the NumPy loop, raise the NumPy
loop's error for the whole block, pass on a worker's exception, and leave no
thread behind, so that a process forked after it still runs them.  A split
CSV export must write the bytes of a one-range export and of the Python
formatter, in order, to any binary stream, and close every temporary file.
"""

import ctypes
import errno
import hashlib
import io
import math
import os
import select
import struct
import sys
import tempfile
import threading
import time
import tracemalloc

import numpy as np
import pytest

from polyorbit import _propagate_py, cli, geometry, shell, simulator
from polyorbit.determination import CentralField, OrbitState
from polyorbit.errors import DomainError, NoSuchPointError
from polyorbit.geometry import ConicShape, _second_focus
from polyorbit.planar import PlanarVector
from polyorbit.shell import RingDecomposition, ShellSpec, shell_accel
from polyorbit.simulator import _CSV_BLOCK_ROWS, SimConfig, Trajectory, integrate

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


# The CSV export: blocks of B rows, and ranges of at least B rows (less a
# block) so that every row count below puts a range edge on a block edge.
B = _CSV_BLOCK_ROWS
CANONICAL = OrbitState(PlanarVector(1.0, 0.0),
                       PlanarVector(math.cos(math.pi / 3), math.sin(math.pi / 3)))
EXPORT_ROWS = 200_001  # simulate_full's rows


@pytest.fixture(params=[1, 2, 3], ids=["W1", "W2", "W3"])
def export_workers(request, c_library, monkeypatch):
    """write_csv runs the C formatter in at most 1, 2 or 3 ranges of at
    least B rows (less a block), _EXPORT_RANGES raised to match."""
    return split_export(monkeypatch, c_library, request.param)


@pytest.fixture(params=[2, 3], ids=["W2", "W3"])
def split_workers(request, c_library, monkeypatch):
    """export_workers with at least one range on a thread."""
    return split_export(monkeypatch, c_library, request.param)


def split_export(monkeypatch, c_library, workers):
    monkeypatch.setattr(simulator, "_kernel", c_library)
    monkeypatch.setattr(c_library, "_WORKERS", workers)
    monkeypatch.setattr(c_library, "_EXPORT_RANGES", workers)
    monkeypatch.setattr(c_library, "_MIN_CHUNK", B)
    return workers


@pytest.fixture(scope="module")
def full_export():
    """A 200,001-row full record and its CSV from the Python formatter."""
    traj = integrate(CANONICAL, CentralField(1.0), SimConfig(dt=1e-4, steps=EXPORT_ROWS - 1))
    saved = simulator._kernel
    simulator._kernel = _propagate_py
    try:
        return traj, csv_bytes(traj)
    finally:
        simulator._kernel = saved


def csv_bytes(traj):
    buf = io.BytesIO()
    traj.write_csv(buf)
    return buf.getvalue()


def first_rows(traj, n):
    return Trajectory(*(col[:n] for col in (traj.t, traj.x, traj.y, traj.vx, traj.vy)),
                      field=traj.field, config=traj.config)


def expected_ranges(workers, n):
    return max(1, min(workers, n // B, -(-n // B)))


class Spills:
    """Stands in for tempfile.TemporaryFile: records each file it makes,
    refuses the calls numbered in `refuse` (from 0), makes the file numbered
    `fail` raise ENOSPC on its second write, and with `unreadable` makes
    every file raise EIO when it is read back.  Two threads may call it at
    once, so which range gets which number may differ from run to run."""

    def __init__(self, monkeypatch, refuse=(), fail=None, unreadable=False):
        self.made, self.refuse, self.fail, self.unreadable = [], refuse, fail, unreadable
        self.calls, self._lock = 0, threading.Lock()
        self._real = tempfile.TemporaryFile
        monkeypatch.setattr(tempfile, "TemporaryFile", self)

    def __call__(self):
        with self._lock:
            call, self.calls = self.calls, self.calls + 1
            if call in self.refuse:
                raise OSError(errno.ENOSPC, "No space left on device")
            spill = _Spill(self._real(), len(self.made) == self.fail, self.unreadable)
            self.made.append(spill)
            return spill


class _Spill:
    def __init__(self, file, fail, unreadable):
        self.file, self.fail, self.unreadable, self.writes = file, fail, unreadable, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def write(self, data):
        self.writes += 1
        if self.fail and self.writes > 1:  # the file holds part of its range
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.file.write(data)

    def readinto(self, buffer):
        if self.unreadable:
            raise OSError(errno.EIO, "Input/output error")
        return self.file.readinto(buffer)

    def __getattr__(self, name):
        return getattr(self.file, name)


def formatting_threads(monkeypatch, c_library):
    """The idents of the threads that call format_rows_into."""
    idents, original = set(), c_library.format_rows_into

    def recorded(*args):
        idents.add(threading.get_ident())
        return original(*args)

    monkeypatch.setattr(c_library, "format_rows_into", recorded)
    return idents


class TestSplitExport:
    @pytest.mark.parametrize("n", [0, 1, B, 2 * B - 1, 2 * B, 2 * B + 1, 3 * B + 1, 5 * B - 7,
                                   EXPORT_ROWS])
    def test_ranges_are_whole_blocks(self, c_library, export_workers, n):
        edges = c_library._ranges(0, n, B, c_library._EXPORT_RANGES)
        assert len(edges) == expected_ranges(export_workers, n) + 1
        assert edges[0] == 0 and edges[-1] == n
        assert all(start < stop for start, stop in zip(edges[1:-1], edges[2:]))
        assert all(edge % B == 0 and 0 < edge < n for edge in edges[1:-1])

    # 1, B - 1, B, B + 1, and on both sides of the edges of two and three
    # ranges, where the last row ends a block, starts one or ends one short
    @pytest.mark.parametrize("n", [
        1, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 3 * B - 1, 3 * B, 3 * B + 1,
        EXPORT_ROWS,
    ])
    def test_same_bytes_as_one_range_and_python(self, c_library, export_workers, monkeypatch,
                                                full_export, n):
        traj, python_csv = full_export
        traj = first_rows(traj, n)
        spills = Spills(monkeypatch)
        threads = formatting_threads(monkeypatch, c_library)
        split = csv_bytes(traj)
        ranges = expected_ranges(export_workers, n)
        assert len(spills.made) == ranges - 1 and len(threads) == ranges
        assert all(spill.closed for spill in spills.made)
        monkeypatch.setattr(c_library, "_WORKERS", 1)
        assert split == csv_bytes(traj)
        # the Python CSV of the first n rows of the full record
        header_and_rows = python_csv.split(b"\n", n + 1)
        assert split == b"\n".join(header_and_rows[:n + 1]) + b"\n"

    def test_decimated_same_bytes_as_one_range_and_python(self, c_library, export_workers,
                                                          monkeypatch):
        traj = integrate(CANONICAL, CentralField(1.0),
                         SimConfig(dt=1e-3, steps=7 * (3 * B + 1), record_every=7))
        assert len(traj) == 3 * B + 2
        split = csv_bytes(traj)
        monkeypatch.setattr(c_library, "_WORKERS", 1)
        assert split == csv_bytes(traj)
        monkeypatch.setattr(simulator, "_kernel", _propagate_py)
        assert split == csv_bytes(traj)

    def test_python_formatter_runs_on_the_caller_with_no_temporary_file(
            self, c_library, monkeypatch, full_export):
        monkeypatch.setattr(c_library, "_WORKERS", 3)
        monkeypatch.setattr(simulator, "_kernel", _propagate_py)
        spills = Spills(monkeypatch)
        traj, python_csv = full_export
        threads = {threading.get_ident()}
        original = _propagate_py.format_rows

        def recorded(*args):
            threads.add(threading.get_ident())
            return original(*args)

        monkeypatch.setattr(_propagate_py, "format_rows", recorded)
        assert csv_bytes(first_rows(traj, 3 * B + 1)) == b"\n".join(
            python_csv.split(b"\n", 3 * B + 2)[:3 * B + 2]) + b"\n"
        assert spills.made == [] and threads == {threading.get_ident()}

    # The first, the second or both of two temporary files cannot be made.
    @pytest.mark.parametrize("refuse", [{0}, {1}, {0, 1}], ids=["first", "second", "both"])
    def test_unmade_temporary_file_has_the_caller_format_its_range(
            self, c_library, monkeypatch, full_export, refuse):
        split_export(monkeypatch, c_library, 3)
        traj, python_csv = full_export
        spills = Spills(monkeypatch, refuse=refuse)
        threads = formatting_threads(monkeypatch, c_library)
        assert csv_bytes(traj) == python_csv
        assert spills.calls == 2 and len(spills.made) == 2 - len(refuse)
        assert all(spill.closed for spill in spills.made)
        # the caller, and each thread whose file was made
        assert threading.get_ident() in threads and len(threads) == 1 + len(spills.made)

    def test_spill_that_runs_out_of_space_gives_the_same_bytes(
            self, c_library, split_workers, monkeypatch, full_export):
        traj, python_csv = full_export
        spills = Spills(monkeypatch, fail=0)  # part of its range written
        started = threading.active_count()
        assert csv_bytes(traj) == python_csv
        assert threading.active_count() == started
        assert len(spills.made) == split_workers - 1
        assert all(spill.closed for spill in spills.made)
        assert spills.made[0].writes > 1

    def test_a_failure_in_the_last_range_reaches_the_caller_after_every_join(
            self, c_library, split_workers, monkeypatch, full_export):
        traj, python_csv = full_export
        spills = Spills(monkeypatch)
        started = threading.active_count()
        edges = c_library._ranges(0, len(traj), B, c_library._EXPORT_RANGES)
        last_range_t = traj.t[edges[-2]]
        original = c_library.format_rows_into

        def fail_in_last_range(columns, *args):
            if columns[0][0] >= last_range_t:
                raise MemoryError("the last range failed")
            return original(columns, *args)

        monkeypatch.setattr(c_library, "format_rows_into", fail_in_last_range)

        class SlowSink(io.BytesIO):
            # the caller's range ends after the worker has failed
            def write(self, data):
                time.sleep(0.002)
                return super().write(data)

        sink = SlowSink()
        with pytest.raises(MemoryError, match="the last range failed"):
            traj.write_csv(sink)
        assert threading.active_count() == started
        assert all(spill.closed for spill in spills.made)
        assert len(spills.made) == split_workers - 1
        # the caller wrote its whole range, and nothing of the others
        assert sink.getvalue() == b"\n".join(python_csv.split(b"\n", edges[1] + 1)[
            :edges[1] + 1]) + b"\n"

    # The stream fails in the caller's range, or while a temporary file is
    # copied into it.
    @pytest.mark.parametrize("where", ["first range", "copy"])
    def test_a_failing_stream_fails_the_export_after_every_join(
            self, c_library, split_workers, monkeypatch, full_export, where):
        traj, python_csv = full_export
        spills = Spills(monkeypatch)
        started = threading.active_count()
        edges = c_library._ranges(0, len(traj), B, c_library._EXPORT_RANGES)
        # the bytes of the header and the caller's range
        first_range = len(b"\n".join(python_csv.split(b"\n", edges[1] + 1)[:-1]) + b"\n")
        limit = first_range // 2 if where == "first range" else first_range + B

        class FullSink(io.BytesIO):
            def write(self, data):
                if self.tell() + len(data) > limit:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(data)

        sink = FullSink()
        with pytest.raises(OSError, match="No space left"):
            traj.write_csv(sink)
        assert threading.active_count() == started
        assert len(spills.made) == split_workers - 1
        assert all(spill.closed for spill in spills.made)
        assert python_csv.startswith(sink.getvalue())
        assert (len(sink.getvalue()) < first_range) == (where == "first range")

    def test_cli_spill_that_runs_out_of_space_writes_the_same_file(
            self, c_library, monkeypatch, tmp_path):
        monkeypatch.setattr(c_library, "_WORKERS", 2)
        monkeypatch.setattr(simulator, "_kernel", c_library)
        argv = ["simulate", "--m", "1", "--r0", "1", "--v0", "1", "--alpha0", "60",
                "--dt", "1e-4", "--steps", str(4 * c_library._MIN_CHUNK), "--out"]
        spills = Spills(monkeypatch, fail=0)
        assert cli.main([*argv, str(tmp_path / "split.csv")]) == cli.EXIT_OK
        assert len(spills.made) == 1 and spills.made[0].closed
        monkeypatch.setattr(c_library, "_WORKERS", 1)
        assert cli.main([*argv, str(tmp_path / "one.csv")]) == cli.EXIT_OK
        assert len(spills.made) == 1
        assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()

    # A worker's range fails, or a temporary file cannot be read back.
    @pytest.mark.parametrize("failure", ["last range", "read"])
    def test_cli_failure_after_the_split_keeps_the_old_file(
            self, c_library, monkeypatch, tmp_path, capsys, failure):
        monkeypatch.setattr(c_library, "_WORKERS", 2)
        monkeypatch.setattr(simulator, "_kernel", c_library)
        spills = Spills(monkeypatch, unreadable=failure == "read")
        if failure == "last range":
            caller, original = threading.get_ident(), c_library.format_rows_into

            def fail_on_a_thread(*args):
                if threading.get_ident() != caller:
                    raise MemoryError("the last range failed")
                return original(*args)

            monkeypatch.setattr(c_library, "format_rows_into", fail_on_a_thread)
        out_path = tmp_path / "traj.csv"
        out_path.write_bytes(b"old\n\x00\xff")
        argv = ["simulate", "--m", "1", "--r0", "1", "--v0", "1", "--alpha0", "60",
                "--dt", "1e-4", "--steps", str(4 * c_library._MIN_CHUNK), "--out", str(out_path)]
        if failure == "last range":
            with pytest.raises(MemoryError, match="the last range failed"):
                cli.main(argv)
        else:
            with pytest.raises(SystemExit) as exc_info:
                cli.main(argv)
            assert exc_info.value.code == cli.EXIT_USAGE
            assert "Input/output error" in capsys.readouterr().err
        assert len(spills.made) == 1 and spills.made[0].closed
        assert out_path.read_bytes() == b"old\n\x00\xff"
        assert os.listdir(tmp_path) == ["traj.csv"]

    def test_export_uses_at_most_two_ranges(self, c_library, monkeypatch, full_export):
        monkeypatch.setattr(c_library, "_WORKERS", 3)
        monkeypatch.setattr(simulator, "_kernel", c_library)
        traj, python_csv = full_export
        spills = Spills(monkeypatch)
        threads = formatting_threads(monkeypatch, c_library)
        assert len(c_library._ranges(0, len(traj), B)) == 4  # the ring and residual loops
        assert csv_bytes(traj) == python_csv
        assert len(spills.made) == 1 and len(threads) == 2

    def test_writes_to_a_pipe(self, c_library, split_workers, monkeypatch, full_export):
        spills = Spills(monkeypatch)
        traj, python_csv = full_export
        read_end, write_end = os.pipe()
        received = []
        with os.fdopen(read_end, "rb") as source:
            reader = threading.Thread(target=lambda: received.append(source.read()))
            reader.start()
            try:
                with os.fdopen(write_end, "wb") as sink:
                    traj.write_csv(sink)
            finally:
                reader.join(timeout=60)
        assert not reader.is_alive()
        assert len(spills.made) == split_workers - 1
        assert received == [python_csv]

    def test_each_range_holds_one_block(self, c_library, export_workers, full_export):
        # tracemalloc's peak over a 200,001-row export: per range, one text
        # buffer of _TEXT_ROWS rows and a block's columns with temporaries
        traj, _ = full_export

        class NullSink:
            def write(self, data):
                pass

        tracemalloc.start()
        try:
            traj.write_csv(NullSink())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_range = c_library._TEXT_ROWS * c_library._ROW_BYTES + c_library._SLACK + 256 * 1024
        assert peak < export_workers * per_range


class TestForkAfterExport:
    def test_forked_child_after_a_split_export_exports(self, c_library, monkeypatch,
                                                       full_export):
        monkeypatch.setattr(c_library, "_WORKERS", 2)
        monkeypatch.setattr(simulator, "_kernel", c_library)
        spills = Spills(monkeypatch)
        traj, python_csv = full_export
        assert csv_bytes(traj) == python_csv
        assert len(spills.made) == 1  # the parent split
        want = hashlib.sha256(python_csv).hexdigest()
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: never return into pytest
            code = 1
            try:
                os.close(read_end)
                os.write(write_end, hashlib.sha256(csv_bytes(traj)).hexdigest().encode())
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
