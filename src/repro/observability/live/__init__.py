"""The live telemetry plane: always-on serving-side observability.

The collector stack (:mod:`repro.observability`) is *post-mortem*: it is
installed around one run and analyzed offline.  This package is the
complementary *live* plane for a long-running CQA service —

- a :class:`~repro.observability.metrics.MetricsRegistry` over a
  rolling window — the collector's registry class, with a 60-s ring
  instead of the collector's infinite window: requests per second
  *now*, p99 latency over the last minute, current breaker state;
- :class:`EventLog` — request-correlated structured JSONL events
  (:mod:`.events`): what happened to request ``r000042``, in order;
- :mod:`.slo` — declared availability/latency objectives evaluated over
  the rolling windows, with error-budget burn;
- :mod:`.expo` — Prometheus text-format and JSON status exposition.

Both planes follow the same discipline: module-global active instance,
free functions (:func:`live_add`, :func:`live_observe`,
:func:`live_gauge`, :func:`emit_event`) that early-return when nothing
is installed, so instrumentation stays permanently wired in the
dispatcher without violating the <5% no-op-overhead guarantee.  Live
hooks sit at request/rung granularity — never inside per-tuple loops —
so even the *enabled* cost is a few instrument updates per request.

A serving event is counted once: each ``live_*`` call records on the
installed live plane's registry *and* on the installed collector's,
whichever are present, so the two planes cannot drift apart.  Engine
internals (``asp.*``, ``repairs.*``, ``cqa.*``, ...) keep the
collector-only :func:`repro.observability.add` — the live plane never
sees a hot loop.

Install with :func:`install_live` / :func:`uninstall_live` (a stack,
like the collector), or the :func:`live` context manager::

    from repro.observability.live import live

    with live() as plane:
        dispatcher.dispatch(request)
    print(plane.render_status())
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from .. import metrics as _metrics
from .events import (
    EVENT_KINDS,
    EventLog,
    current_request_id,
    new_request_id,
    read_events,
    request_scope,
)
from .expo import (
    prometheus_text,
    render_status,
    validate_prometheus,
    write_prometheus,
    write_status_json,
)
from .slo import (
    EXIT_SLO_VIOLATION,
    evaluate_slos,
    load_slo_config,
    render_slo,
)

__all__ = [
    "EVENT_KINDS",
    "EXIT_SLO_VIOLATION",
    "EventLog",
    "LivePlane",
    "current_request_id",
    "emit_event",
    "evaluate_slos",
    "install_live",
    "live",
    "live_add",
    "live_gauge",
    "live_installed",
    "live_observe",
    "live_plane",
    "load_slo_config",
    "new_request_id",
    "prometheus_text",
    "read_events",
    "render_slo",
    "render_status",
    "request_scope",
    "uninstall_live",
    "validate_prometheus",
    "write_prometheus",
    "write_status_json",
]

#: Status-document schema version (bump on breaking shape changes).
STATUS_SCHEMA = 1


class LivePlane:
    """One rolling-window registry plus one event log, installed as a
    unit.

    Shares a single injectable clock across both so a test driving a
    fake clock sees consistent window expiry and event timestamps.
    """

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.monotonic,
        window_s: float = 60.0,
        buckets: int = 60,
        event_capacity: int = 4096,
        event_sink=None,
    ) -> None:
        self.clock = clock
        self.registry = _metrics.MetricsRegistry(
            window_s=window_s, buckets=buckets, clock=clock
        )
        self.events = EventLog(
            capacity=event_capacity, clock=clock, sink=event_sink
        )

    def status(self) -> Dict[str, object]:
        """The JSON-ready status document (see DESIGN.md for the contract).

        Shape: ``{"schema", "uptime_s", "window_s", "requests": {total,
        ok, degraded, error, availability}, "breakers": {engine: state},
        "counters", "histograms", "gauges", "events"}``.
        """
        snapshot = self.registry.window_snapshot()
        requests = {
            "total": self.registry.counter_total("dispatch.requests"),
            "ok": self.registry.counter_total("dispatch.requests.ok"),
            "degraded": self.registry.counter_total(
                "dispatch.requests.degraded"
            ),
            "error": self.registry.counter_total("dispatch.requests.error"),
        }
        served = requests["ok"] + requests["degraded"]
        requests["availability"] = (
            served / requests["total"] if requests["total"] else None
        )
        prefix = "dispatch.breaker.state."
        breakers = {
            name[len(prefix):]: value
            for name, value in snapshot["gauges"].items()
            if name.startswith(prefix)
        }
        return {
            "schema": STATUS_SCHEMA,
            "uptime_s": snapshot["uptime_s"],
            "window_s": snapshot["window_s"],
            "requests": requests,
            "breakers": breakers,
            "counters": snapshot["counters"],
            "histograms": snapshot["histograms"],
            "gauges": snapshot["gauges"],
            "events": self.events.stats(),
        }

    def render_status(self) -> str:
        """Human-readable status (same content as ``obs status``)."""
        return render_status(self.status())

    def prometheus_text(self) -> str:
        """Prometheus text exposition of the current status."""
        return prometheus_text(self.status())

    def close(self) -> None:
        """Release the event sink, if the log owns one."""
        self.events.close()


_install_lock = threading.Lock()
_stack: List[LivePlane] = []
_PLANE: Optional[LivePlane] = None


def install_live(plane: Optional[LivePlane] = None) -> LivePlane:
    """Make *plane* (or a fresh one) the active live plane.

    Installs nest, mirroring the collector stack: a later install
    shadows the current plane until the matching :func:`uninstall_live`.
    """
    global _PLANE
    if plane is None:
        plane = LivePlane()
    with _install_lock:
        _stack.append(plane)
        _PLANE = plane
    return plane


def uninstall_live() -> Optional[LivePlane]:
    """Remove the active plane, restoring the previous one (if any)."""
    global _PLANE
    with _install_lock:
        removed = _stack.pop() if _stack else None
        _PLANE = _stack[-1] if _stack else None
    return removed


def live_installed() -> bool:
    """True when a live plane is active."""
    return _PLANE is not None


def live_plane() -> Optional[LivePlane]:
    """The currently active live plane, or None."""
    return _PLANE


@contextmanager
def live(plane: Optional[LivePlane] = None):
    """Install a live plane for the duration of the block."""
    plane = install_live(plane)
    try:
        yield plane
    finally:
        uninstall_live()


# -- free functions: no-ops when no plane is installed -----------------

#: Set by :mod:`repro.observability.flight.recorder` while a flight
#: recorder is installed; every emitted event is mirrored to it so the
#: recorder sees the stream even when no live plane is active.  Kept
#: here (not imported from flight) so the inactive cost is one global
#: read, mirroring the budget layer's ``_fault_hook``.
_event_tap = None


def live_add(name: str, n: int = 1) -> None:
    """Count *n* events as counter *name* on the live plane and on the
    collector, whichever are installed (no-op when neither is)."""
    plane = _PLANE
    if plane is not None:
        plane.registry.add(name, n)
    registry = _metrics._ACTIVE
    if registry is not None:
        registry.add(name, n)


def live_observe(name: str, value: float) -> None:
    """Record *value* into histogram *name* on both planes (each only
    when installed)."""
    plane = _PLANE
    if plane is not None:
        plane.registry.observe(name, value)
    registry = _metrics._ACTIVE
    if registry is not None:
        registry.observe(name, value)


def live_gauge(name: str, value) -> None:
    """Set gauge *name* on both planes (each only when installed)."""
    plane = _PLANE
    if plane is not None:
        plane.registry.gauge(name, value)
    registry = _metrics._ACTIVE
    if registry is not None:
        registry.gauge(name, value)


def emit_event(kind: str, **fields) -> None:
    """Emit a structured event (no-op when off).

    Safe to call from any layer — breaker, budget, worker — the
    ambient :func:`request_scope` supplies the correlation id.  A
    logged event is counted as ``dispatch.events.<kind>`` on both
    planes.  While a flight recorder is installed the event is also
    mirrored to it, independent of whether a live plane is active.
    """
    plane = _PLANE
    if plane is not None:
        plane.events.emit(kind, **fields)
        live_add(f"dispatch.events.{kind}")
    tap = _event_tap
    if tap is not None:
        tap(kind, fields)
