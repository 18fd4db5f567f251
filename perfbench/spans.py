"""Spans and counts recorded around the public entry points of each layer.

The program is not changed: ``install`` replaces each entry point with a
wrapper for the length of one traced iteration and puts the original back
afterwards.  Spans are kept in memory and reduced to per-layer self times and
counts when the iteration ends.  A layer's self time is its span time minus
the time its child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

#: Marks a wrapper so that wrapping an entry point twice is caught.
_MARK = "__perfbench_layer__"

#: Bytes the kernel writes per recorded sample: t, x, y, vx, vy as doubles.
SAMPLE_BYTES = 40

#: The layer every other span must nest under.
ROOT = "cli"


@dataclass
class Span:
    layer: str
    parent: int  # index of the enclosing span, -1 for a root
    start: float
    end: float | None = None


class Tracer:
    """Spans and counts of one traced iteration, in call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def enter(self, layer: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(layer, parent, time.perf_counter()))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def exit(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    def count(self, layer: str, **amounts: int) -> None:
        self.counts[f"{layer}.calls"] += 1
        for key, value in amounts.items():
            self.counts[f"{layer}.{key}"] += value


@dataclass(frozen=True)
class EntryPoint:
    """A public callable of one layer, and the counts taken around a call.

    ``before`` runs ahead of the span and ``counts`` after it, so neither is
    charged to the layer.
    """

    layer: str
    owner: object
    attr: str
    counts: Callable[[tuple, object, object], dict] = lambda args, result, before: {}
    before: Callable[[tuple], object] = lambda args: None


def _kernel_counts(args, result, before):
    # propagate_kernel(x, y, vx, vy, m, dt, steps, record_every, collision_radius)
    # returns (t, x, y, vx, vy, collided_at_step or -1).
    steps = args[6] if result[5] < 0 else result[5] - 1
    samples = len(result[0])
    return {"steps": steps, "samples_recorded": samples,
            "bytes_written_computed": SAMPLE_BYTES * samples}


def entry_points(cli, simulator, geometry, shell, determination) -> list[EntryPoint]:
    """The traced entry points, given the ``polyorbit`` modules that hold them."""
    return [
        EntryPoint(ROOT, cli, "main"),
        EntryPoint("integrate", simulator, "integrate"),
        EntryPoint("kernel", simulator._kernel, "propagate_kernel", _kernel_counts),
        EntryPoint("diagnostics", simulator, "diagnostics",
                   lambda args, result, before: {"samples": len(args[0])}),
        EntryPoint("write_csv", simulator.Trajectory, "write_csv",
                   lambda args, result, before: {"rows": len(args[0]),
                                                 "bytes": args[1].tell() - before},
                   lambda args: args[1].tell()),
        EntryPoint("geometry_residuals", geometry, "geometry_residuals",
                   lambda args, result, before: {"samples": args[1]}),
        EntryPoint("shell_accel", shell, "shell_accel",
                   lambda args, result, before: {"rings": args[2].n_rings}),
        EntryPoint("solve_orbit", determination, "solve_orbit"),
    ]


def _wrap(tracer: Tracer, point: EntryPoint, original):
    def traced(*args, **kwargs):
        before = point.before(args)
        index = tracer.enter(point.layer)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.exit(index)
        tracer.count(point.layer, **point.counts(args, result, before))
        return result

    setattr(traced, _MARK, point.layer)
    traced.__wrapped__ = original
    return traced


def install(tracer: Tracer, points: list[EntryPoint]) -> Callable[[], None]:
    """Wrap every entry point; return the function that unwraps them all.

    Raises RuntimeError when an entry point is already wrapped, because its
    time would then be counted twice.
    """
    originals = []
    try:
        for point in points:
            original = getattr(point.owner, point.attr)
            if hasattr(original, _MARK):
                raise RuntimeError(f"{point.layer} is already traced")
            setattr(point.owner, point.attr, _wrap(tracer, point, original))
            originals.append((point, original))
    except BaseException:
        _restore(originals)
        raise
    return lambda: _restore(originals)


def _restore(originals) -> None:
    for point, original in reversed(originals):
        setattr(point.owner, point.attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


def check(spans: list[Span], wall: float, required: tuple[str, ...]) -> list[str]:
    """Errors in one iteration's spans; empty when the trace is sound.

    Every span must be closed, nest inside its parent and have a ``ROOT``
    span at the base of its chain; no layer may nest inside itself (its time
    would count twice); each ``required`` layer must have been called; and
    the self times must add up to at most ``wall``, the iteration's time as
    measured outside the trace.
    """
    errors = []
    if any(span.end is None for span in spans):
        return ["a span was never closed"]
    for span in spans:
        if span.parent < 0:
            if span.layer != ROOT:
                errors.append(f"{span.layer} ran outside {ROOT}")
            continue
        parent = spans[span.parent]
        if span.start < parent.start or span.end > parent.end:
            errors.append(f"{span.layer} does not nest inside {parent.layer}")
        ancestor = span.parent
        while ancestor >= 0:
            if spans[ancestor].layer == span.layer:
                errors.append(f"{span.layer} nests inside itself and would count twice")
                break
            ancestor = spans[ancestor].parent
    called = {span.layer for span in spans}
    errors += [f"layer {layer} was never called" for layer in required if layer not in called]
    own = self_times(spans)
    if min(own, default=0.0) < 0.0:
        errors.append("child spans overlap: a self time is negative")
    covered = sum(own)
    if covered > wall:
        errors.append(f"layer self times add up to {covered:.6f} s, more than the wall {wall:.6f} s")
    return errors


def layer_totals(spans: list[Span]) -> Counter:
    """Self seconds per layer, as ``<layer>.self_s``."""
    totals: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        totals[f"{span.layer}.self_s"] += own
    return totals
