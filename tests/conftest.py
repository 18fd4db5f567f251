"""Fixtures shared by the test modules."""

import importlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from polyorbit import _propagate_py, cli, simulator


@pytest.fixture
def cli_call():
    """call(argv): the exit code, stdout and stderr of cli.main(argv), with
    argparse's exit for help and usage errors taken as the exit code."""
    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()
    return call


@pytest.fixture
def c_library():
    """polyorbit._propagate_c; skips where the C library did not load."""
    try:
        return importlib.import_module("polyorbit._propagate_c")
    except ImportError as exc:
        pytest.skip(f"the C library did not load: {exc}")


def _c_loop(c_library, loop):
    """c_library, skipped where simulator binds the NumPy `loop` because the
    C one failed its probe, as where NumPy's sin, cos or hypot is not libm's
    (TestBackends checks that the choice is right)."""
    where, why = simulator._backends[loop]
    if where != "c":
        pytest.skip(f"{loop} runs on NumPy here: {why}")
    return c_library


@pytest.fixture
def c_ring_sum(c_library):
    """c_library, skipped where the ring sum runs on NumPy."""
    return _c_loop(c_library, "ring_sum")


@pytest.fixture
def c_residuals(c_library):
    """c_library, skipped where the conic residual loop runs on NumPy."""
    return _c_loop(c_library, "conic_residuals")


def _c_and_numpy(compiled):
    """both(fn, *args): fn(*args) run on the C loops, then on the NumPy
    ones, as a pair."""
    def both(fn, *args):
        saved = simulator._kernel
        try:
            results = []
            for module in (compiled, _propagate_py):
                simulator._kernel = module
                results.append(fn(*args))
            return tuple(results)
        finally:
            simulator._kernel = saved
    return both


@pytest.fixture
def ring_sum_c_and_numpy(c_ring_sum):
    """both(fn, *args) of _c_and_numpy, skipped where the ring sum runs on
    NumPy."""
    return _c_and_numpy(c_ring_sum)


@pytest.fixture
def residuals_c_and_numpy(c_residuals):
    """both(fn, *args) of _c_and_numpy, skipped where the conic residual
    loop runs on NumPy."""
    return _c_and_numpy(c_residuals)
