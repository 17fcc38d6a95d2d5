"""Observability: spans, counters, and trace export for the pipeline.

Zero-dependency tracing and metrics, permanently wired through the hot
paths (ASP grounder/solver, repair enumerators, CQA rewriters, conflict
graphs).  Nothing is recorded until a :class:`Collector` is installed:

    from repro.observability import collect

    with collect() as c:
        s_repairs(db, constraints)
    print(c.summary())          # span tree + counters
    c.write_trace("run.jsonl")  # machine-readable JSONL

With no collector installed every instrumentation call is a global read
plus an early return (<5% overhead on a repair-enumeration
microbenchmark, asserted by ``tests/test_observability.py``), so the
instrumentation stays on in production code.

Counter names are dotted and stable — they are part of the exported
interface because benchmarks and the harness key on them; see DESIGN.md
("Observability") for which paper claim each counter substantiates.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import List, Optional

from . import metrics as _metrics_mod
from . import spans as _spans_mod
from .export import (
    build_trees,
    read_trace,
    summary_table,
    write_trace,
)
from .metrics import (
    MetricsRegistry,
    active_registry,
    add,
    gauge,
    observe,
)
from .spans import Span, Tracer, annotate, current_span, span

# The live plane (always-on rolling metrics + event log) imports from
# .metrics/.spans, so it must come after them; it never imports back.
from . import live  # noqa: E402  (see module docstring of .live)

__all__ = [
    "live",
    "Collector",
    "collect",
    "install",
    "uninstall",
    "installed",
    "span",
    "current_span",
    "annotate",
    "add",
    "gauge",
    "observe",
    "active_registry",
    "Span",
    "Tracer",
    "MetricsRegistry",
    "write_trace",
    "read_trace",
    "build_trees",
    "summary_table",
]


class Collector:
    """A tracer plus a metrics registry (over the infinite window),
    installed as one unit."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(self.registry)

    # -- views ---------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """Finished root spans, in completion order."""
        return self.tracer.roots

    def find(self, name: str) -> List[Span]:
        """Finished spans by name."""
        return self.tracer.find(name)

    def snapshot(self) -> dict:
        """Flat dict of every counter/gauge/histogram."""
        return self.registry.snapshot()

    def counter(self, name: str, default=0):
        """One counter's current value."""
        return self.registry.counter_total(name, default)

    # -- export --------------------------------------------------------

    def write_trace(self, destination) -> int:
        """Write the collected spans + metrics snapshot as JSONL."""
        return write_trace(destination, self.spans, self.registry)

    def summary(self) -> str:
        """Human-readable span tree and counter table."""
        return summary_table(self.spans, self.registry)

    def reset(self) -> None:
        """Drop all collected spans and metrics."""
        self.registry.reset()
        self.tracer.roots.clear()


_install_lock = threading.Lock()
_stack: List[Collector] = []


def install(collector: Collector) -> Collector:
    """Make *collector* the active sink for spans and metrics.

    Installs nest: a later :func:`install` shadows the current collector
    until the matching :func:`uninstall`.
    """
    with _install_lock:
        _stack.append(collector)
        _spans_mod._set_active(collector.tracer)
        _metrics_mod._set_active(collector.registry)
    return collector


def uninstall() -> Optional[Collector]:
    """Remove the active collector, restoring the previous one (if any)."""
    with _install_lock:
        removed = _stack.pop() if _stack else None
        current = _stack[-1] if _stack else None
        _spans_mod._set_active(current.tracer if current else None)
        _metrics_mod._set_active(current.registry if current else None)
    return removed


def installed() -> Optional[Collector]:
    """The currently active collector, or None."""
    return _stack[-1] if _stack else None


@contextmanager
def collect():
    """Install a fresh :class:`Collector` for the duration of the block."""
    collector = Collector()
    install(collector)
    try:
        yield collector
    finally:
        uninstall()
