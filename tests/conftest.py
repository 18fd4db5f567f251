"""Fixtures shared by the test modules."""

import importlib

import pytest

from polyorbit import _propagate_py, simulator


@pytest.fixture
def c_and_numpy():
    """both(fn, *args): fn(*args) run on the C ring and residual loops, then
    on the NumPy ones, as a pair.  Skips where the C library did not load,
    or where it binds the NumPy loops because NumPy's sin, cos or hypot is
    not libm's (TestBackends checks that the choice is right)."""
    try:
        compiled = importlib.import_module("polyorbit._propagate_c")
    except ImportError as exc:
        pytest.skip(f"the C library did not load: {exc}")
    if compiled.ring_terms is _propagate_py.ring_terms:
        pytest.skip("the ring and residual loops run on NumPy here")

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
