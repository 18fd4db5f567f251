"""The C ring sum, residual loops and CSV export split across threads by
one scheduler (_propagate_c._in_order).

Each test runs with one, two and three chunks at most (the module's
_WORKERS), whatever CPUs this host has.  A split call must give the bits of
one C call over the whole range and of the NumPy loop, raise the NumPy
loop's error for the whole block, pass on a worker's exception, and leave no
thread behind, so that a process forked after it still runs them.  An export
whose chunks the caller and a thread format must write the bytes of an
export on the caller alone and of the Python formatter, in order, to any
binary stream, with no temporary file.  The first range or chunk that
fails, on whichever thread, is the error raised, after the results before
it: a failed export leaves exactly the rows before the failed chunk.
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

from polyorbit import _propagate_py, cli, geometry, simulator
from polyorbit.determination import CentralField, OrbitState
from polyorbit.errors import DomainError, NoSuchPointError
from polyorbit.geometry import ConicShape, _second_focus
from polyorbit.planar import PlanarVector
from polyorbit.shell import RingDecomposition, ShellSpec, shell_accel
from polyorbit.simulator import SimConfig, Trajectory, integrate

SHAPES = [(0.5, 0.75), (1.0, 0.75), (1.5, 0.75)]
SHAPE_IDS = ["ellipse", "parabola", "hyperbola"]


@pytest.fixture(params=[1, 2, 3], ids=["W1", "W2", "W3"])
def workers(request, c_library, monkeypatch):
    monkeypatch.setattr(c_library, "_WORKERS", request.param)
    return request.param


@pytest.fixture
def on_c(c_ring_sum, monkeypatch):
    """shell_accel runs the C ring sum."""
    monkeypatch.setattr(simulator, "_kernel", c_ring_sum)


def ring_args(n):
    dtheta = math.pi / n
    return 1.3, 2.1, dtheta, 1.3 * dtheta, 0.7


def spy(monkeypatch, c_library, name):
    """The (start, stop) of every call that reaches the C function `name`."""
    calls, original = [], getattr(c_library, name)

    def recorded(*args):
        start, stop = (args[5], args[6]) if name == "_ring_sum" else (args[10], args[11])
        calls.append((start, stop))
        return original(*args)

    monkeypatch.setattr(c_library, name, recorded)
    return calls


def residual_bits(result):
    return struct.pack("<3dq", *result)


class TestSplitLoops:
    # n = 1, two and three chunks' thresholds +-1, and the benchmark's rings
    @pytest.mark.parametrize("n", [
        1, 2 * (1 << 14) - 1, 2 * (1 << 14), 2 * (1 << 14) + 1, 3 * (1 << 14) - 1,
        3 * (1 << 14), 3 * (1 << 14) + 1, 10**6,
    ])
    def test_ring_terms_same_bits_as_one_call_and_numpy(self, c_ring_sum, workers, n):
        # The terms of one C call are NumPy's, and the split sum of them is
        # the fsum of one C call's chunks and the NumPy loop's total.
        assert c_ring_sum._MIN_CHUNK == 1 << 14  # the thresholds above
        args = ring_args(n)
        one, numpy = np.empty(n), np.empty(n)
        c_ring_sum._ring_terms(*args, 0, n, one.ctypes.data)
        _propagate_py.ring_terms(*args, numpy)
        assert one.tobytes() == numpy.tobytes()
        split = c_ring_sum.ring_sum(*args, n)
        chunks = (ctypes.c_double * c_ring_sum._RING_CHUNKS)()
        assert c_ring_sum._ring_sum(*args, 0, n, chunks) == 0
        assert split.hex() == math.fsum(chunks).hex()
        assert split.hex() == _propagate_py.ring_sum(*args, n).hex()

    @pytest.mark.parametrize("n", [1, 7, 8, 15, 16, 17, 23, 24, 25, 1000])
    def test_chunks_cover_the_range_once_in_order(self, c_ring_sum, workers, monkeypatch, n):
        # With ranges of 8 rings, as many ranges as workers that have 8
        # rings each, as the residual loop splits its samples
        monkeypatch.setattr(c_ring_sum, "_MIN_CHUNK", 8)
        calls = spy(monkeypatch, c_ring_sum, "_ring_sum")
        total = c_ring_sum.ring_sum(*ring_args(n), n)
        k = max(1, min(workers, n // 8))
        assert sorted(calls) == [(n * j // k, n * (j + 1) // k) for j in range(k)]
        assert total.hex() == _propagate_py.ring_sum(*ring_args(n), n).hex()

    def test_shell_accel_keeps_its_bits(self, c_ring_sum, workers, monkeypatch):
        spec, rings = ShellSpec(1.0, 1.0, 1.0), RingDecomposition(10**6)
        monkeypatch.setattr(simulator, "_kernel", _propagate_py)
        numpy = shell_accel(spec, 2.0, rings)
        monkeypatch.setattr(simulator, "_kernel", c_ring_sum)
        calls = spy(monkeypatch, c_ring_sum, "_ring_sum")
        assert shell_accel(spec, 2.0, rings).hex() == numpy.hex()
        assert len(calls) == workers

    # n = stop samples: one, two and three ranges' thresholds +-1, one
    # NumPy block, and the geometry-check's samples; and C calls over the
    # samples [start, stop) of them, whole or from sample 1.
    @pytest.mark.parametrize("e, ell", SHAPES, ids=SHAPE_IDS)
    @pytest.mark.parametrize("start, stop", [
        (0, 50000), (0, _propagate_py._RESIDUAL_BLOCK), (0, 2 * (1 << 14) - 1), (0, 2 * (1 << 14)),
        (0, 3 * (1 << 14) + 1), (1, 3 * (1 << 14) + 2),
    ])
    def test_conic_residuals_same_bits_as_one_call_and_numpy(self, c_residuals, workers, e, ell,
                                                             start, stop):
        # The split loop has the NumPy loop's bits, and one C call over a
        # range of the samples, as each range of the split makes, has the
        # bits of the NumPy block over the same samples.
        shape, n = ConicShape(e, ell), stop
        focus = _second_focus(shape)
        split = c_residuals.conic_residuals(shape, n, *focus)
        with np.errstate(all="ignore"):
            numpy = _propagate_py.conic_residuals(shape, n, *focus)
            block = _propagate_py._block_residuals(shape, n, start, stop, *focus)
        assert residual_bits(split) == residual_bits(numpy)
        theta0, span, div = geometry._theta_grid(shape, n)
        maxima, skipped = (ctypes.c_double * 3)(), ctypes.c_int64()
        assert c_residuals._conic_residuals(
            e, ell, shape.focal_directrix_distance, shape.conic_class.value, focus[0] or 0.0,
            focus[1] or 0.0, theta0, span, div, geometry._PARALLEL_EPS, start, stop, maxima,
            ctypes.byref(skipped)) == 0
        assert residual_bits((*maxima, skipped.value)) == residual_bits(block)

    @pytest.mark.parametrize("e, ell", SHAPES, ids=SHAPE_IDS)
    def test_conic_residuals_on_both_sides_of_each_chunk_edge(self, c_residuals, workers,
                                                              monkeypatch, e, ell):
        # Chunks of at least 8 samples, and every n from 2 to 63: the edges
        # n j / k of up to 3 ranges fall on every sample.
        monkeypatch.setattr(c_residuals, "_MIN_CHUNK", 8)
        shape = ConicShape(e, ell)
        focus = _second_focus(shape)
        for n in range(2, 64):
            split = c_residuals.conic_residuals(shape, n, *focus)
            with np.errstate(all="ignore"):
                numpy = _propagate_py.conic_residuals(shape, n, *focus)
            assert residual_bits(split) == residual_bits(numpy), n

    @pytest.mark.parametrize("nan_focal", [False, True], ids=["last-flags", "all-flag"])
    def test_failing_sample_in_the_last_chunk_raises_the_whole_block_error(
            self, c_residuals, workers, monkeypatch, nan_focal):
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
        original = c_residuals._conic_residuals

        def recorded(*args):
            flag = original(*args)
            flagged.append((args[10], args[11], flag))
            return flag

        monkeypatch.setattr(c_residuals, "_conic_residuals", recorded)
        with pytest.raises(DomainError) as split:
            c_residuals.conic_residuals(shape, n, *focus)
        with pytest.raises(DomainError) as numpy, np.errstate(all="ignore"):
            _propagate_py.conic_residuals(shape, n, *focus)
        assert type(split.value) is type(numpy.value) is NoSuchPointError
        assert str(split.value) == str(numpy.value)
        clean = 1 if nan_focal else 0
        assert [flag for _, _, flag in sorted(flagged)] == [clean] * (workers - 1) + [1]

    @pytest.mark.parametrize("workers", [2, 3])  # one chunk runs on the caller alone
    @pytest.mark.parametrize("loop", ["_ring_sum", "_conic_residuals"])
    def test_a_workers_exception_reaches_the_caller(self, request, monkeypatch, loop,
                                                    workers):
        compiled = request.getfixturevalue("c_ring_sum" if loop == "_ring_sum" else "c_residuals")
        monkeypatch.setattr(compiled, "_WORKERS", workers)
        started = threading.active_count()

        def broken(*args):
            start = args[5] if loop == "_ring_sum" else args[10]
            if start > 0:
                raise RuntimeError(f"chunk from {start}")
            time.sleep(0.05)  # the caller's chunk ends after the workers
            return 0

        monkeypatch.setattr(compiled, loop, broken)
        n = 10**5
        first = n // workers  # where the first worker's chunk starts
        with pytest.raises(RuntimeError, match=f"^chunk from {first}$"):
            if loop == "_ring_sum":
                compiled.ring_sum(*ring_args(n), n)
            else:
                compiled.conic_residuals(ConicShape(0.5, 0.75), n,
                                         *_second_focus(ConicShape(0.5, 0.75)))
        assert threading.active_count() == started

    def test_four_threads_calling_shell_accel_get_the_same_bits(self, workers, on_c):
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
    def test_forked_child_after_a_split_call_runs_shell_accel(self, c_ring_sum, monkeypatch,
                                                              on_c):
        monkeypatch.setattr(c_ring_sum, "_WORKERS", 2)
        spec, rings = ShellSpec(1.0, 1.0, 1.0), RingDecomposition(10**6)
        calls = spy(monkeypatch, c_ring_sum, "_ring_sum")
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


# The CSV export: chunks of CHUNK rows in both write_rows, and _MIN_CHUNK
# lowered to B, two chunks, so that every row count from B up runs a thread
# and each row count below puts a chunk edge on or next to the last row.
CHUNK = _propagate_py._CSV_CHUNK_ROWS
B = 2 * CHUNK
CANONICAL = OrbitState(PlanarVector(1.0, 0.0),
                       PlanarVector(math.cos(math.pi / 3), math.sin(math.pi / 3)))
EXPORT_ROWS = 200_001  # simulate_full's rows


@pytest.fixture(params=[1, 2, 3], ids=["W1", "W2", "W3"])
def export_workers(request, c_library, monkeypatch):
    """write_csv runs the C formatter with _WORKERS = 1, 2 or 3, and a
    thread for every export of at least B rows when _WORKERS >= 2."""
    return split_export(monkeypatch, c_library, request.param)


@pytest.fixture(params=[2, 3], ids=["W2", "W3"])
def split_workers(request, c_library, monkeypatch):
    """export_workers with a thread."""
    return split_export(monkeypatch, c_library, request.param)


def split_export(monkeypatch, c_library, workers):
    monkeypatch.setattr(simulator, "_kernel", c_library)
    monkeypatch.setattr(c_library, "_WORKERS", workers)
    monkeypatch.setattr(c_library, "_MIN_CHUNK", B)
    return workers


@pytest.fixture
def temporary_files(monkeypatch):
    """The calls to tempfile.TemporaryFile, each of which raises ENOSPC."""
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(tempfile, "TemporaryFile", refuse)
    return calls


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


def csv_prefix(python_csv, rows):
    """The header and the first `rows` rows of python_csv."""
    return b"\n".join(python_csv.split(b"\n", rows + 1)[:rows + 1]) + b"\n"


def first_rows(traj, n):
    return Trajectory(*(col[:n] for col in (traj.t, traj.x, traj.y, traj.vx, traj.vy)),
                      field=traj.field, config=traj.config)


def formatting_threads(monkeypatch, c_library):
    """The idents of the threads that call _format_chunk."""
    idents, original = set(), c_library._format_chunk

    def recorded(*args):
        idents.add(threading.get_ident())
        return original(*args)

    monkeypatch.setattr(c_library, "_format_chunk", recorded)
    return idents


class NullSink:
    def write(self, data):
        pass


class TestSplitExport:
    # Each chunk is one _format_chunk call on a start row and CHUNK rows, or
    # the rows left, of the five columns; the chunks cover the rows once.
    @pytest.mark.parametrize("n", [0, 1, B, 2 * B - 1, 2 * B, 2 * B + 1, 3 * B + 1, 5 * B - 7,
                                   EXPORT_ROWS])
    def test_ranges_are_whole_blocks(self, c_library, export_workers, monkeypatch, full_export,
                                     n):
        traj, _ = full_export
        columns = [col[:n] for col in (traj.t, traj.x, traj.y, traj.vx, traj.vy)]
        calls, lock = [], threading.Lock()
        original = c_library._format_chunk

        def recorded(addresses, start, rows, chunk):
            with lock:
                calls.append((start, rows))
            return original(addresses, start, rows, chunk)

        monkeypatch.setattr(c_library, "_format_chunk", recorded)
        c_library.write_rows(columns, NullSink())
        assert sorted(calls) == [(lo, min(CHUNK, n - lo)) for lo in range(0, n, CHUNK)]

    # Columns that are views starting past row 0, at chunk-edge lengths: a
    # chunk's pointers are each column's own address plus 8 bytes a row.
    @pytest.mark.parametrize("rows", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    @pytest.mark.parametrize("offset", [1, 7, 1023])
    def test_views_past_row_0_write_the_python_bytes(self, c_library, export_workers,
                                                     full_export, offset, rows):
        traj, _ = full_export
        stored = (traj.t, traj.x, traj.y, traj.vx, traj.vy)
        columns = [col[offset:offset + rows] for col in stored]
        assert [col.ctypes.data - whole.ctypes.data
                for col, whole in zip(columns, stored)] == [8 * offset] * 5
        want, got = io.BytesIO(), io.BytesIO()
        _propagate_py.write_rows(columns, want)
        c_library.write_rows(columns, got)
        assert got.getvalue() == want.getvalue()
        assert want.getvalue().count(b"\n") == rows

    # 1, B - 1, B, B + 1, and on both sides of the edges of two and three
    # blocks, where the last row ends a block, starts one or ends one short
    @pytest.mark.parametrize("n", [
        1, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 3 * B - 1, 3 * B, 3 * B + 1,
        EXPORT_ROWS,
    ])
    def test_same_bytes_as_one_range_and_python(self, c_library, export_workers, monkeypatch,
                                                full_export, temporary_files, n):
        traj, python_csv = full_export
        traj = first_rows(traj, n)
        threads = formatting_threads(monkeypatch, c_library)
        split = csv_bytes(traj)
        # the caller, and at most one thread where there is one
        assert len(threads) <= (2 if export_workers > 1 and n >= B else 1)
        if export_workers == 1 or n < B:
            assert threads == {threading.get_ident()}
        assert temporary_files == []
        monkeypatch.setattr(c_library, "_WORKERS", 1)
        assert split == csv_bytes(traj)
        # the Python CSV of the first n rows of the full record
        assert split == csv_prefix(python_csv, n)

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
            self, c_library, monkeypatch, full_export, temporary_files):
        monkeypatch.setattr(c_library, "_WORKERS", 3)
        monkeypatch.setattr(simulator, "_kernel", _propagate_py)
        traj, python_csv = full_export
        threads = {threading.get_ident()}
        original = _propagate_py.format_rows

        def recorded(*args):
            threads.add(threading.get_ident())
            return original(*args)

        monkeypatch.setattr(_propagate_py, "format_rows", recorded)
        assert csv_bytes(first_rows(traj, 3 * B + 1)) == csv_prefix(python_csv, 3 * B + 1)
        assert temporary_files == [] and threads == {threading.get_ident()}

    def test_refused_temporary_files_leave_the_bytes_unchanged(
            self, c_library, export_workers, full_export, temporary_files):
        # the export makes no temporary file, so one that cannot be made
        # changes nothing
        traj, python_csv = full_export
        assert csv_bytes(traj) == python_csv
        assert temporary_files == []

    def test_a_failure_in_the_last_range_reaches_the_caller_after_every_join(
            self, c_library, split_workers, monkeypatch, full_export):
        # The thread fails on the first chunk it formats in the last third of
        # the rows.  The caller writes slowly, so the thread formats nearly
        # every chunk there.
        traj, python_csv = full_export
        started = threading.active_count()
        caller, original = threading.get_ident(), c_library._format_chunk
        failed = []

        def fail_on_the_thread(addresses, start, *args):
            if threading.get_ident() != caller and start >= 2 * len(traj) // 3:
                failed.append(start)
                raise MemoryError("a chunk on the thread failed")
            return original(addresses, start, *args)

        monkeypatch.setattr(c_library, "_format_chunk", fail_on_the_thread)

        class SlowSink(io.BytesIO):
            def write(self, data):
                time.sleep(0.002)
                return super().write(data)

        sink = SlowSink()
        with pytest.raises(MemoryError, match="a chunk on the thread failed"):
            traj.write_csv(sink)
        assert threading.active_count() == started
        # the caller wrote every chunk before the failed one, and nothing more
        assert len(failed) == 1
        assert sink.getvalue() == csv_prefix(python_csv, failed[0])

    @pytest.mark.parametrize("failing", ["caller", "thread"])
    def test_a_failed_chunk_leaves_exactly_the_rows_before_it(
            self, c_library, split_workers, monkeypatch, full_export, failing):
        # `failing` fails the first chunk in the last third of the rows that
        # it formats while the other side, which formats slowly, is still
        # formatting an earlier chunk.
        traj, python_csv = full_export
        started = threading.active_count()
        caller, original = threading.get_ident(), c_library._format_chunk
        slow, failed = [], []  # the first rows of the slow side's chunk, and of the failed one

        def fail_on_one_side(addresses, start, *args):
            if (threading.get_ident() == caller) != (failing == "caller"):
                slow.append(start)
                try:
                    time.sleep(0.002)
                finally:
                    slow.remove(start)
            elif start >= 2 * len(traj) // 3 and any(earlier < start for earlier in slow):
                failed.append(start)
                raise MemoryError(f"a chunk on the {failing} failed")
            return original(addresses, start, *args)

        monkeypatch.setattr(c_library, "_format_chunk", fail_on_one_side)
        sink = io.BytesIO()
        with pytest.raises(MemoryError, match=f"a chunk on the {failing} failed"):
            traj.write_csv(sink)
        assert threading.active_count() == started
        assert len(failed) == 1
        assert sink.getvalue() == csv_prefix(python_csv, failed[0])

    # The stream fails early or late: in the first half of the text ("first
    # range") or in the second ("copy").
    @pytest.mark.parametrize("where", ["first range", "copy"])
    def test_a_failing_stream_fails_the_export_after_every_join(
            self, c_library, split_workers, monkeypatch, full_export, where):
        traj, python_csv = full_export
        started = threading.active_count()
        limit = len(python_csv) // 4 if where == "first range" else len(python_csv) * 3 // 4
        threads = formatting_threads(monkeypatch, c_library)

        class FullSink(io.BytesIO):
            def write(self, data):
                if self.tell() + len(data) > limit:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(data)

        sink = FullSink()
        with pytest.raises(OSError, match="No space left"):
            traj.write_csv(sink)
        assert threading.active_count() == started
        assert len(threads) <= 2
        assert python_csv.startswith(sink.getvalue())
        assert limit - 2 * B * c_library._ROW_BYTES < len(sink.getvalue()) <= limit

    @pytest.mark.parametrize("failure", ["last range"])  # a chunk on the thread
    def test_cli_failure_after_the_split_keeps_the_old_file(
            self, c_library, monkeypatch, tmp_path, failure):
        monkeypatch.setattr(c_library, "_WORKERS", 2)
        monkeypatch.setattr(simulator, "_kernel", c_library)
        caller, original = threading.get_ident(), c_library._format_chunk

        def fail_on_a_thread(*args):
            if threading.get_ident() != caller:
                raise MemoryError("a chunk on the thread failed")
            return original(*args)

        monkeypatch.setattr(c_library, "_format_chunk", fail_on_a_thread)
        out_path = tmp_path / "traj.csv"
        out_path.write_bytes(b"old\n\x00\xff")
        argv = ["simulate", "--m", "1", "--r0", "1", "--v0", "1", "--alpha0", "60",
                "--dt", "1e-4", "--steps", str(4 * c_library._MIN_CHUNK), "--out", str(out_path)]
        with pytest.raises(MemoryError, match="a chunk on the thread failed"):
            cli.main(argv)
        assert out_path.read_bytes() == b"old\n\x00\xff"
        assert os.listdir(tmp_path) == ["traj.csv"]

    def test_export_uses_at_most_two_ranges(self, c_library, monkeypatch, full_export):
        # two threads format, the caller and one more, whatever _WORKERS is
        monkeypatch.setattr(c_library, "_WORKERS", 3)
        monkeypatch.setattr(simulator, "_kernel", c_library)
        traj, python_csv = full_export
        threads = formatting_threads(monkeypatch, c_library)
        assert len(c_library._ranges(len(traj))) == 4  # the residual loop's ranges
        assert csv_bytes(traj) == python_csv
        assert threading.get_ident() in threads and len(threads) <= 2

    def test_writes_to_a_pipe(self, c_library, split_workers, full_export, temporary_files):
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
        assert temporary_files == []
        assert received == [python_csv]

    def test_four_threads_exporting_get_the_same_bytes(self, c_library, split_workers,
                                                       full_export):
        # Four exports at once, each with its caller and thread, switching
        # as often as the interpreter allows: no chunk may be lost, repeated
        # or land in another export.
        traj, python_csv = full_export
        traj = first_rows(traj, 16 * B + 1)
        want = hashlib.sha256(csv_prefix(python_csv, 16 * B + 1)).hexdigest()
        barrier = threading.Barrier(4)
        got = [None] * 4

        class HashSink:
            def __init__(self):
                self.hash = hashlib.sha256()

            def write(self, data):
                self.hash.update(data)

        def export(i):
            sink = HashSink()
            barrier.wait()
            traj.write_csv(sink)
            got[i] = sink.hash.hexdigest()

        threads = [threading.Thread(target=export, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [want] * 4

    def test_each_range_holds_one_block(self, c_library, export_workers, full_export):
        # the _TEXT_BUFFERS text buffers and the columns of the chunks being
        # formatted
        assert export_peak(full_export[0]) < 10**6

    def test_python_export_holds_one_chunk(self, monkeypatch, full_export):
        # one chunk's columns, its row tuples and its text
        monkeypatch.setattr(simulator, "_kernel", _propagate_py)
        assert export_peak(full_export[0]) < 10**6


def export_peak(traj):
    """tracemalloc's peak over the export of traj to a sink that keeps
    nothing."""
    tracemalloc.start()
    try:
        traj.write_csv(NullSink())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestForkAfterExport:
    def test_forked_child_after_a_split_export_exports(self, c_library, monkeypatch,
                                                       full_export):
        monkeypatch.setattr(c_library, "_WORKERS", 2)
        monkeypatch.setattr(simulator, "_kernel", c_library)
        traj, python_csv = full_export
        threads = formatting_threads(monkeypatch, c_library)
        assert csv_bytes(traj) == python_csv
        assert len(threads) == 2  # the parent ran a thread
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
