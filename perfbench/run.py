"""polyorbit benchmark: one workload through ``polyorbit.cli.main``, end to end
or traced layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload simulate_full --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 5

``--trace 0`` measures the end-to-end metrics with no tracing in the timed
iterations.  ``--trace 1`` alternates untraced and traced iterations and
reports per-layer self times and counts, the harness's own trace overhead and
a kernel microbenchmark.  Every iteration's outputs are checked; a failed
check, a non-zero exit or an exception counts as a failed iteration.  The
program is imported from ``src/`` of the current directory and is never
modified: tracing wraps its entry points at run time (see spans.py).

Times in the end-to-end metrics are corrected for the host's speed, which on
a machine shared with others drifts by up to half within minutes: see
``_HostSpeed``.  The uncorrected figures are printed as notes; per-layer
times are as measured.

The lines before the last name every metric with its unit and record the
environment.  The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs each
workload both ways in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

# BLAS threads are fixed when numpy is first imported: limit them to the CPUs
# this process may use.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s_p50": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.stdout_bytes": "B",
    "integrate.calls": "count",
    "integrate.self_s": "s",
    "kernel.calls": "count",
    "kernel.self_s": "s",
    "kernel.steps": "count",
    "kernel.steps_per_s": "1/s",
    "kernel.samples_recorded": "count",
    "kernel.bytes_written_computed": "B",
    "diagnostics.calls": "count",
    "diagnostics.self_s": "s",
    "diagnostics.samples": "count",
    "diagnostics.samples_per_s": "1/s",
    "write_csv.calls": "count",
    "write_csv.self_s": "s",
    "write_csv.rows": "count",
    "write_csv.bytes": "B",
    "write_csv.bytes_per_s": "B/s",
    "geometry_residuals.calls": "count",
    "geometry_residuals.self_s": "s",
    "geometry_residuals.samples": "count",
    "geometry_residuals.samples_per_s": "1/s",
    "shell_accel.calls": "count",
    "shell_accel.self_s": "s",
    "shell_accel.rings": "count",
    "shell_accel.rings_per_s": "1/s",
    "solve_orbit.calls": "count",
    "solve_orbit.self_s": "s",
    "traced_wall_s": "s",
    "untraced_s": "s",
    "trace_overhead_s": "s",
    "kernel_bench.python.steps_per_s": "1/s",
    "fail_ratio": "ratio",
}

#: Per-layer rates: the count divided by the layer's self time.
RATES = {
    "kernel.steps_per_s": ("kernel.steps", "kernel.self_s"),
    "diagnostics.samples_per_s": ("diagnostics.samples", "diagnostics.self_s"),
    "write_csv.bytes_per_s": ("write_csv.bytes", "write_csv.self_s"),
    "geometry_residuals.samples_per_s": ("geometry_residuals.samples", "geometry_residuals.self_s"),
    "shell_accel.rings_per_s": ("shell_accel.rings", "shell_accel.self_s"),
}

#: Fresh interpreters started to time the import; the first one, which writes
#: the bytecode caches, is not counted.
SETUP_REPEATS = 9
SETUP_PROBE = (
    "import time; start = time.perf_counter(); import polyorbit, polyorbit.cli; "
    "print(time.perf_counter() - start)"
)

#: Seconds the calibration loop takes at the reference host speed.
CALIBRATION_REFERENCE_S = 0.02

#: The launch state of benchmarks/bench_backends.py.
KERNEL_BENCH_STATE = (1.0, 0.0, 0.5, math.sqrt(3.0) / 2.0, 1.0, 1e-4)
KERNEL_BENCH_STEPS = 400_000
KERNEL_BENCH_REPEATS = 3
PARITY_STEPS = 20_000

WORKLOAD_NAMES = tuple(workloads.WORKLOADS)


def main() -> int:
    args = _parse_args()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "polyorbit", "cli.py")):
        print(f"perfbench: no src/polyorbit in {root}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    sys.path.insert(0, src)
    import polyorbit
    from polyorbit import cli, determination, geometry, shell, simulator

    if os.path.dirname(os.path.realpath(polyorbit.__file__)) != os.path.realpath(
            os.path.join(src, "polyorbit")):
        print(f"perfbench: polyorbit was imported from {polyorbit.__file__}, not {src}",
              file=sys.stderr)
        return 2

    env = _environment(root, args, polyorbit)
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        bench = _Bench(workload, cli,
                       spans.entry_points(cli, simulator, geometry, shell, determination))
        if args.trace:
            metrics = bench.per_layer(args.seconds)
        else:
            metrics = bench.end_to_end(args.seconds, src)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    print(f"env {json.dumps(env)}")
    for argv in workload.commands:
        print(f"argv {' '.join(argv)}")
    for error in bench.errors[:10]:
        print(f"error {error}")
    for name, value in bench.notes.items():
        print(f"note {args.workload} {name} {value}")
    for name, unit in units.items():
        print(f"metric {args.workload} {name} {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="time the measured iterations must fill")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0.0:
        parser.error("--seconds must be > 0")
    return args


class _Bench:
    """Runs one workload's iterations and tallies their failures."""

    def __init__(self, workload, cli, entry_points):
        self.workload = workload
        self.cli = cli
        self.entry_points = entry_points
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.notes: dict[str, str] = {}

    def _tally(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += errors

    def _iterate(self):
        outputs = []
        start = time.perf_counter()
        for argv in self.workload.commands:
            outputs.append(_call(self.cli, argv))
        wall = time.perf_counter() - start
        return wall, outputs

    def _untraced(self) -> float:
        wall, outputs = self._iterate()
        self._tally(self.workload.check(outputs))
        return wall

    def _traced(self, totals: Counter) -> float:
        tracer = spans.Tracer()
        uninstall = spans.install(tracer, self.entry_points)
        try:
            wall, outputs = self._iterate()
        finally:
            uninstall()
        errors = self.workload.check(outputs)
        errors += spans.check(tracer.spans, wall, self.workload.layers)
        self._tally(errors)
        if not errors:
            totals["traced_iterations"] += 1
            totals.update(tracer.counts)
            totals.update(spans.layer_totals(tracer.spans))
            totals["untraced_s"] += wall - sum(spans.self_times(tracer.spans))
            totals["cli.stdout_bytes"] += sum(len(o.stdout.encode()) for o in outputs)
        return wall

    def end_to_end(self, seconds: float, src: str) -> dict:
        speed = _HostSpeed()
        setup_raw, setup = _measure_setup(src, speed)
        # Warm-up: fills caches and counts the work one iteration does.
        counts: Counter = Counter()
        self._traced(counts)
        raw, walls = [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            raw.append(self._untraced())
            walls.append(speed.correct(raw[-1]))
        p50 = statistics.median(walls)
        self.notes["wall_s_p50.samples"] = str(len(walls))
        tail = _tail_percentile(walls)
        self.notes["wall_s.tail"] = (f"p{tail[0]} {tail[1]!r} s" if tail else
                                     "none: no percentile above p50 has ten samples beyond it")
        self.notes["wall_s_p50.uncorrected"] = f"{statistics.median(raw)!r} s"
        self.notes["setup_s.uncorrected"] = f"{setup_raw!r} s"
        self.notes["calibration_s.median"] = f"{statistics.median(speed.calibrations)!r} s"
        self.notes["fail_ratio"] = repr(self.failed / self.attempted)
        return {
            "setup_s": setup,
            "wall_s_p50": p50,
            "steps_per_s": counts[self.workload.work_count] * len(walls) / sum(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self, seconds: float) -> dict:
        totals: Counter = Counter()
        self._untraced()  # warm-up
        untraced, traced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            untraced.append(self._untraced())
            traced.append(self._traced(totals))
        metrics = {name: totals[name] / max(totals["traced_iterations"], 1)
                   for name in PER_LAYER}
        for name, (count, busy) in RATES.items():
            metrics[name] = totals[count] / totals[busy] if totals[busy] > 0.0 else 0.0
        metrics["traced_wall_s"] = statistics.median(traced)
        metrics["trace_overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
        metrics["kernel_bench.python.steps_per_s"] = self._kernel_bench()
        metrics["fail_ratio"] = self.failed / self.attempted
        self.notes["traced_iterations"] = str(len(traced))
        return metrics

    def _kernel_bench(self) -> float:
        """Steps/s of each kernel present; a parity mismatch is a failure."""
        from polyorbit import _propagate_py

        python_rate = _kernel_rate(_propagate_py)
        try:
            compiled = importlib.import_module("polyorbit._propagate_cy")
        except ImportError:
            self.notes["kernel_bench.compiled.steps_per_s"] = "none: _propagate_cy does not import"
            return python_rate
        self.notes["kernel_bench.compiled.steps_per_s"] = f"{_kernel_rate(compiled)!r} 1/s"
        args = KERNEL_BENCH_STATE + (PARITY_STEPS, 1, 1e-9)
        expected = _propagate_py.propagate_kernel(*args)
        got = compiled.propagate_kernel(*args)
        same = expected[5] == got[5] and all(
            a.tobytes() == b.tobytes() for a, b in zip(expected[:5], got[:5]))
        self._tally([] if same else ["compiled and python kernels differ bitwise"])
        return python_rate


def _call(cli, argv: list[str]):
    """One ``cli.main`` call with its output captured."""
    stdout = io.StringIO()
    try:
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects a usage error this way
        return workloads.Output(exc.code if isinstance(exc.code, int) else 1, stdout.getvalue())
    except Exception:  # any escaping exception is a traceback the user would see
        return workloads.Output(None, stdout.getvalue(), traceback.format_exc(limit=-3))
    return workloads.Output(code, stdout.getvalue())


def _kernel_rate(kernel) -> float:
    times = []
    for _ in range(KERNEL_BENCH_REPEATS):
        start = time.perf_counter()
        kernel.propagate_kernel(*KERNEL_BENCH_STATE, KERNEL_BENCH_STEPS, KERNEL_BENCH_STEPS, 1e-9)
        times.append(time.perf_counter() - start)
    return KERNEL_BENCH_STEPS / statistics.median(times)


class _HostSpeed:
    """Scales measured seconds to a reference host speed.

    Other machines' load on shared cores changes this host's speed, by up to
    half over a few minutes, which no run length averages away.  A fixed
    calibration loop is timed before and after each measurement, and ``t``
    seconds measured between calibrations ``c0`` and ``c1`` are reported as
    ``t * CALIBRATION_REFERENCE_S / mean(c0, c1)``.  The loop is the
    benchmark's own code and mixes the kinds of work the workloads do, so a
    change to polyorbit moves the corrected times as much as the raw ones.
    """

    def __init__(self):
        self.calibrations = [_calibrate()]

    def correct(self, seconds: float) -> float:
        self.calibrations.append(_calibrate())
        return seconds * CALIBRATION_REFERENCE_S / statistics.fmean(self.calibrations[-2:])


_CALIBRATION_STORE = np.empty(10_000)
_CALIBRATION_TABLE = np.sqrt(np.arange(1.0, 8_001.0)).reshape(1_000, 8)


def _calibrate() -> float:
    """Mean seconds of six passes of the calibration loop.

    The host's speed also changes within a second, so one short pass is a
    noisy sample of it."""
    return statistics.fmean(_calibration_pass() for _ in range(6))


def _calibration_pass() -> float:
    """Seconds one pass of a fixed loop takes: interpreted float arithmetic
    with array stores, like the Python kernel, then rows of numpy floats
    formatted with 17 significant digits, like the CSV export."""
    start = time.perf_counter()
    x, y, vx, vy = 1.0, 0.0, 0.5, 0.8
    for k in range(len(_CALIBRATION_STORE)):
        r2 = x * x + y * y
        f = 1e-4 / (r2 * math.sqrt(r2))
        vx -= f * x
        vy -= f * y
        x += vx * 1e-4
        y += vy * 1e-4
        _CALIBRATION_STORE[k] = x
    text = io.StringIO()
    for row in _CALIBRATION_TABLE:
        text.write(",".join(f"{value:.17g}" for value in row) + "\n")
    return time.perf_counter() - start


def _measure_setup(src: str, speed: _HostSpeed) -> tuple[float, float]:
    """Median seconds to import polyorbit and polyorbit.cli in a fresh
    interpreter, uncorrected and corrected for host speed."""
    env = dict(os.environ, PYTHONPATH=src)
    raw, corrected = [], []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        seconds = speed.correct(float(done.stdout))
        if i > 0:
            raw.append(float(done.stdout))
            corrected.append(seconds)
    return statistics.median(raw), statistics.median(corrected)


def _tail_percentile(samples: list[float]):
    """The highest percentile above p50 with at least ten samples beyond it."""
    p = math.floor(100 * (len(samples) - 10) / len(samples))
    if p <= 50:
        return None
    return p, statistics.quantiles(samples, n=100)[p - 1]


def _environment(root: str, args, polyorbit) -> dict:
    try:
        importlib.import_module("polyorbit._propagate_cy")
        compiled = True
    except ImportError:
        compiled = False
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": polyorbit.backend(),
        "compiled_kernel_imports": compiled,
        "git_rev": _git_rev(root),
        "nproc": NPROC,
        "cpu": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _git_rev(root: str) -> str:
    try:
        done = subprocess.run(["git", "--git-dir", os.path.join(root, ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    print(f"{'workload':<14} {'metric':<34} {'value':>16} unit")
    all_correct = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(f"{name}: trace {trace} exited {done.returncode}\n{done.stderr}",
                      file=sys.stderr)
                all_correct = False
                continue
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1])
            all_correct &= result["correct"]
            for line in lines[:-1]:
                if line.startswith(("error ", "note ")):
                    print(line)
            for metric, reading in result["metrics"].items():
                print(f"{name:<14} {metric:<34} {reading['value']:>16.6g} {reading['unit']}")
            print(f"{name:<14} {'failed/attempted':<34} {result['failed']:>9}/{result['attempted']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
