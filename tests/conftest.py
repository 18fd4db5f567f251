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


@pytest.fixture
def c_loops(c_library):
    """c_library, skipped where it binds the NumPy ring and residual loops
    because NumPy's sin, cos or hypot is not libm's (TestBackends checks
    that the choice is right)."""
    if c_library.ring_terms is _propagate_py.ring_terms:
        pytest.skip("the ring and residual loops run on NumPy here")
    return c_library


@pytest.fixture
def c_and_numpy(c_loops):
    """both(fn, *args): fn(*args) run on the C ring and residual loops, then
    on the NumPy ones, as a pair."""
    compiled = c_loops

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
