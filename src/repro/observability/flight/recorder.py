"""The flight recorder: capture dispatch requests as replayable envelopes.

The live telemetry plane *signals* anomalies — an SLO-busting latency,
a shadow disagreement, a breaker trip, a worker kill, an exhausted
budget.  The recorder turns those signals into *evidence*: a
:class:`~.envelope.FlightEnvelope` capturing the request content, every
decision input the dispatcher consulted, and the per-rung decision
trail, written the moment the anomaly fires.  ``repro obs replay`` then
re-executes the envelope deterministically and ``repro obs explain``
renders why each rung was attempted or skipped.

Same discipline as the collector and the live plane: a module-global
install stack and two free functions that early-return when no
recorder is installed.  :func:`flight_begin` opens a request's flight
with the decision inputs; :func:`flight_end` closes it with the
request's :class:`~repro.dispatch.Provenance` (from the result, or from
the refusing :class:`~repro.dispatch.DispatchError`) and the shadow
draw.  The envelope's ``decisions`` and shadow section are derived from
that provenance, one decision per :class:`~repro.dispatch.RungOutcome`,
and only when an envelope is built; the recorder keeps no per-rung
state of its own, so its per-request cost is two hooks plus the event
tap, inside the <5% overhead budget ``tests/test_flight.py`` enforces.
Event capture rides the live plane's
:func:`~repro.observability.live.emit_event` via a tap, so breaker,
budget, and worker events reach the recorder even when no live plane is
installed.

The per-rung *predicted* wall time comes from
:func:`predict_rung_cost`, a deliberately coarse closed-form model over
the conflict-graph shape features, logged next to the *actual* wall
time.  Nothing calibrates against it yet: the ladder order is fixed
and no engine selection reads the prediction.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from ..metrics import add as collector_add
from .. import live as _live
from .envelope import (
    ENVELOPE_SCHEMA,
    FlightEnvelope,
    canonical_answer,
    canonical_provenance,
    constraints_digest,
    instance_digest,
    normalize_reason,
    query_digest,
    write_envelope,
)

__all__ = [
    "ANOMALY_EVENT_KINDS",
    "FlightRecorder",
    "current_recorder",
    "flight_begin",
    "flight_end",
    "flight_installed",
    "install_recorder",
    "predict_rung_cost",
    "recording",
    "uninstall_recorder",
]

#: Event kinds that are anomaly triggers by themselves.  A
#: ``breaker.transition`` triggers only when it transitions *to* open
#: (a recovery back to closed is good news, not an anomaly).
ANOMALY_EVENT_KINDS = (
    "budget.exhausted",
    "shadow.disagreement",
    "worker.kill",
)

#: Per-engine cost-model coefficients (seconds per shape unit) and the
#: fixed setup cost: coarse on purpose — see the module docstring.
_COST_MODEL: Dict[str, tuple] = {
    "fm-sql": (2e-6, 1e-3),  # SQL rewrite + SQLite materialization
    "fo-mem": (4e-6, 2e-4),  # in-memory FO evaluation
    "asp": (8e-6, 5e-4),  # grounding dominates
    "enumerate": (1e-6, 2e-4),  # scaled again by the component bound
    "certain-core": (2e-6, 1e-4),  # polynomial salvage
}


def predict_rung_cost(
    engine: str,
    shape_stats: Optional[Dict[str, object]],
    db_size: int,
) -> float:
    """Predicted wall seconds for one rung, from shape features.

    ``enumerate`` is additionally scaled by ``2^min(max_component_size,
    20)`` — repair choices multiply per conflict component, which is
    exactly the blow-up the shape features exist to predict.
    """
    per_unit, setup = _COST_MODEL.get(engine, (4e-6, 2e-4))
    units = float(db_size)
    if shape_stats:
        units += float(shape_stats.get("edges") or 0)
        if engine == "enumerate":
            bound = min(
                int(shape_stats.get("max_component_size") or 0), 20
            )
            units *= float(2 ** bound)
    return setup + per_unit * units


class _Flight:
    """The in-progress record of one request (recorder-internal)."""

    __slots__ = (
        "request",
        "request_id",
        "policy",
        "budget",
        "fault_plan",
        "breakers",
        "shape_stats",
        "events",
        "anomalies",
        "started",
    )

    def __init__(self) -> None:
        self.request = None
        self.request_id: Optional[str] = None
        self.policy: Dict[str, object] = {}
        self.budget: Optional[Dict[str, object]] = None
        self.fault_plan: Optional[Dict[str, object]] = None
        self.breakers: Dict[str, Dict[str, object]] = {}
        self.shape_stats: Optional[Dict[str, object]] = None
        self.events: List[Dict[str, object]] = []
        self.anomalies: List[str] = []
        self.started: float = 0.0


class FlightRecorder:
    """Capture dispatch requests as replayable envelopes.

    ``mode`` is ``"anomaly"`` (capture only requests that tripped an
    anomaly signal — the always-on production setting) or ``"all"``
    (capture every request — ``repro dispatch --record``).
    ``slo_latency_ms`` adds a per-request latency SLO trigger: a request
    slower than it is captured as an ``slo.breach`` anomaly.  Envelopes
    are retained in the bounded ``captured`` deque and, when ``out_dir``
    is set, written there as one JSON file each.
    """

    def __init__(
        self,
        out_dir=None,
        *,
        mode: str = "anomaly",
        slo_latency_ms: Optional[float] = None,
        keep: int = 64,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if mode not in ("anomaly", "all"):
            raise ValueError("mode must be 'anomaly' or 'all'")
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        self.mode = mode
        self.slo_latency_ms = slo_latency_ms
        self.captured: deque = deque(maxlen=max(1, keep))
        self.written: List[str] = []
        self.requests_seen = 0
        self.op_count = 0  # recorder touches, for the overhead bound
        self._clock = clock
        self._local = threading.local()

    # -- in-flight state -----------------------------------------------

    def _stack(self) -> List[_Flight]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _top(self) -> Optional[_Flight]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    # -- lifecycle hooks (called via the free functions) ---------------

    def begin(
        self,
        request,
        *,
        request_id: Optional[str],
        policy: Dict[str, object],
        budget: Optional[Dict[str, object]],
        fault_plan: Optional[Dict[str, object]],
        breakers: Dict[str, Dict[str, object]],
        shape_stats: Optional[Dict[str, object]],
    ) -> None:
        flight = _Flight()
        flight.request = request
        flight.request_id = request_id
        flight.policy = policy
        flight.budget = budget
        flight.fault_plan = fault_plan
        flight.breakers = breakers
        flight.shape_stats = shape_stats
        flight.started = self._clock()
        self._stack().append(flight)
        self.requests_seen += 1
        self.op_count += 1

    def event(self, kind: str, fields: Dict[str, object]) -> None:
        """The live-plane tap: mirror events into the current flight."""
        flight = self._top()
        if flight is None:
            return
        record = {"kind": kind}
        record.update(fields)
        flight.events.append(record)
        if kind in ANOMALY_EVENT_KINDS or (
            kind == "breaker.transition"
            and fields.get("to_state") == "open"
        ):
            flight.anomalies.append(kind)
        self.op_count += 1

    def end(
        self,
        outcome: str,
        provenance,
        shadow_sampled: Optional[bool] = None,
        result=None,
        error: Optional[str] = None,
    ) -> Optional[FlightEnvelope]:
        """Close the current flight; capture and return the envelope
        when the mode and anomaly triggers say so (None otherwise).

        *provenance* is the request's :class:`~repro.dispatch.Provenance`
        (None when the request failed before the ladder produced one);
        *shadow_sampled* is the shadow draw: None when the request did
        not draw, else whether it was sampled.
        """
        stack = self._stack()
        if not stack:
            return None
        flight = stack.pop()
        self.op_count += 1
        elapsed_ms = (self._clock() - flight.started) * 1000.0
        if outcome == "error":
            flight.anomalies.append("request.error")
        if (
            self.slo_latency_ms is not None
            and elapsed_ms > self.slo_latency_ms
        ):
            flight.anomalies.append("slo.breach")
        if self.mode == "anomaly" and not flight.anomalies:
            return None
        envelope = self._build(
            flight, outcome, provenance, shadow_sampled, result, error
        )
        self.captured.append(envelope)
        collector_add("flight.captures")
        for kind in sorted(set(flight.anomalies)):
            collector_add(f"flight.captures.{kind}")
        if self.out_dir is not None:
            self.written.append(write_envelope(self.out_dir, envelope))
        return envelope

    # -- envelope assembly (capture path only, never per-request) ------

    def _build(
        self,
        flight: _Flight,
        outcome: str,
        provenance,
        shadow_sampled: Optional[bool],
        result,
        error: Optional[str],
    ) -> FlightEnvelope:
        request = flight.request
        decisions: List[Dict[str, object]] = []
        engine = shadow_report = None
        if provenance is not None:
            engine = provenance.engine
            decisions = [
                _decision(rung, flight.shape_stats, len(request.db))
                for rung in provenance.rungs
            ]
            shadow = provenance.shadow
            if shadow is not None:
                shadow_report = {
                    "engine": shadow.engine,
                    "agreed": shadow.agreed,
                    "reason": shadow.reason,
                }
        digests = {
            "instance": instance_digest(request.db),
            "constraints": constraints_digest(request.constraints),
            "query": query_digest(request.query),
        }
        envelope_id = FlightEnvelope.content_id(
            digests,
            request.semantics,
            flight.policy,
            flight.budget,
            flight.fault_plan,
            flight.breakers,
        )
        answer = None
        if result is not None:
            answer = canonical_answer(result.answers, result.complete)
        return FlightEnvelope(
            schema=ENVELOPE_SCHEMA,
            envelope_id=envelope_id,
            request_id=flight.request_id,
            trigger=tuple(sorted(set(flight.anomalies))),
            semantics=request.semantics,
            digests=digests,
            payload=FlightEnvelope.pack_payload(
                request.db, request.constraints, request.query
            ),
            policy=flight.policy,
            budget=flight.budget,
            fault_plan=flight.fault_plan,
            breakers=flight.breakers,
            shadow_sampled=shadow_sampled,
            shape_stats=flight.shape_stats,
            decisions=decisions,
            events=flight.events,
            outcome={
                "status": outcome,
                "engine": engine,
                "error": (
                    normalize_reason(error) if error is not None else None
                ),
            },
            answer=answer,
            provenance=canonical_provenance(decisions, shadow_report),
        )


def _decision(
    rung, shape_stats: Optional[Dict[str, object]], db_size: int
) -> Dict[str, object]:
    """The envelope's decision record of one
    :class:`~repro.dispatch.RungOutcome`.

    A rung refused by its applicability check records the check's
    message as ``verdict``; every other rung but a winner records a
    ``reason``.  Only a rung that ran has a budget slice and an actual
    wall time.
    """
    record: Dict[str, object] = {
        "engine": rung.engine,
        "status": rung.status,
    }
    if rung.status == "inapplicable" and not rung.ran:
        record["verdict"] = rung.reason
    elif rung.status != "ok":
        record["reason"] = rung.reason
    if rung.ran:
        record["slice_s"] = rung.slice_s
        record["actual_s"] = rung.elapsed_s
    record["breaker"] = rung.breaker
    record["predicted_s"] = predict_rung_cost(
        rung.engine, shape_stats, db_size
    )
    return record


# ----------------------------------------------------------------------
# Install stack and free functions (no-ops when nothing is installed)
# ----------------------------------------------------------------------

_install_lock = threading.Lock()
_stack: List[FlightRecorder] = []
_RECORDER: Optional[FlightRecorder] = None


def _tap(kind: str, fields: Dict[str, object]) -> None:
    recorder = _RECORDER
    if recorder is not None:
        recorder.event(kind, fields)


def install_recorder(
    recorder: Optional[FlightRecorder] = None,
) -> FlightRecorder:
    """Make *recorder* (or a fresh anomaly-mode one) active.

    Installs nest, mirroring the collector and live-plane stacks; the
    live plane's event stream is tapped while any recorder is active.
    """
    global _RECORDER
    if recorder is None:
        recorder = FlightRecorder()
    with _install_lock:
        _stack.append(recorder)
        _RECORDER = recorder
        _live._event_tap = _tap
    return recorder


def uninstall_recorder() -> Optional[FlightRecorder]:
    """Remove the active recorder, restoring the previous one (if any)."""
    global _RECORDER
    with _install_lock:
        removed = _stack.pop() if _stack else None
        _RECORDER = _stack[-1] if _stack else None
        if _RECORDER is None:
            _live._event_tap = None
    return removed


def flight_installed() -> bool:
    """True when a flight recorder is active."""
    return _RECORDER is not None


def current_recorder() -> Optional[FlightRecorder]:
    """The active flight recorder, or None."""
    return _RECORDER


@contextmanager
def recording(recorder: Optional[FlightRecorder] = None):
    """Install a flight recorder for the duration of the block."""
    recorder = install_recorder(recorder)
    try:
        yield recorder
    finally:
        uninstall_recorder()


def flight_begin(request, **kwargs) -> None:
    """Open a flight for *request* (no-op when no recorder is active)."""
    recorder = _RECORDER
    if recorder is not None:
        recorder.begin(request, **kwargs)


def flight_end(
    outcome: str,
    provenance,
    shadow_sampled: Optional[bool] = None,
    result=None,
    error: Optional[str] = None,
) -> None:
    """Close the current flight with the request's provenance and
    shadow draw (no-op when off)."""
    recorder = _RECORDER
    if recorder is not None:
        recorder.end(
            outcome, provenance, shadow_sampled, result=result, error=error
        )
