"""Request-correlated structured event log (JSONL).

Where spans answer "how long did this region take", events answer "what
happened to this *request*, in order": a dispatch request starts, rungs
are attempted/skipped/failed, breakers flip, budgets run dry, shadow
checks disagree, the request ends.  Every event is one JSON object with
a stable schema:

``{"seq": int, "ts": float, "kind": str, "request_id": str|None,
"span_id": int|None, ...kind-specific fields}``

``seq`` is a process-wide monotonic sequence number; ``ts`` comes from
the log's injectable clock (monotonic by default) so ordering is
deterministic in tests; ``request_id`` is the correlation key stamped by
:func:`request_scope`; ``span_id`` links the event to the innermost open
span of the installed collector, if any.

Event *kinds* are a stable contract (like counter names — DESIGN.md
"Live telemetry"): consumers may key on them, so :data:`EVENT_KINDS` is
closed and :meth:`EventLog.emit` rejects unknown kinds rather than
letting typos create silent new streams.

The log is a bounded in-memory ring (for `obs status` and tests) plus an
optional JSONL file sink, flushed per event so a crash never loses more
than the in-flight line.  A path sink can be size-capped
(``max_sink_bytes``): when the cap is crossed the file rotates to
``<path>.1`` (one generation kept) and a fresh file takes its place, so
a long-running service bounds its event-log disk use instead of growing
without limit.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import Counter as _TallyCounter
from collections import deque
from typing import Callable, Dict, List, Optional

from ..export import fsync_dir, read_jsonl
from ..spans import current_span

__all__ = [
    "EVENT_KINDS",
    "EventLog",
    "current_request_id",
    "new_request_id",
    "read_events",
    "request_scope",
]

#: The closed set of event kinds — the stable event-schema contract.
EVENT_KINDS = (
    "request.start",
    "request.end",
    "rung.attempt",
    "rung.ok",
    "rung.skip",
    "rung.failure",
    "breaker.transition",
    "budget.exhausted",
    "shadow.disagreement",
    "worker.kill",
    # Warm worker pool (PR 8): supervisor lifecycle.
    "pool.spawn",
    "pool.recycle",
    "pool.drain",
    # Serving layer (PR 8): the admission-controlled HTTP front door.
    "serve.request",
    "serve.response",
    "serve.shed",
    "serve.degrade",
    # Durable tenant store (PR 9): recovery and compaction lifecycle.
    "store.recover",
    "store.compact",
    "store.truncate",
    # The epoch fence marker could not be written or read back.
    "store.fence_persist_failed",
    "store.fence_marker_unreadable",
    # Replication & failover (PR 10): role transitions and the stream.
    "replica.bootstrap",
    "replica.caught_up",
    "replica.promote",
    "replica.fence",
    "replica.loop_error",
    "serve.drain",
)

_request_ids = itertools.count(1)
_local = threading.local()


def new_request_id() -> str:
    """A fresh process-unique request id (``r000001``, ``r000002``, ...)."""
    return f"r{next(_request_ids):06d}"


def current_request_id() -> Optional[str]:
    """The request id of the innermost open request scope, or None."""
    return getattr(_local, "request_id", None)


class request_scope:
    """Bind a request id to the current thread for the ``with`` block.

    Everything emitted inside — events, nested events from the breaker
    or budget layers — carries this id, which is what makes the event
    log *correlated* rather than merely interleaved.  Scopes nest; the
    innermost wins (e.g. a shadow re-run inside a request).
    """

    __slots__ = ("request_id", "_previous")

    def __init__(self, request_id: Optional[str] = None) -> None:
        self.request_id = request_id or new_request_id()
        self._previous: Optional[str] = None

    def __enter__(self) -> str:
        self._previous = getattr(_local, "request_id", None)
        _local.request_id = self.request_id
        return self.request_id

    def __exit__(self, exc_type, exc, tb) -> bool:
        _local.request_id = self._previous
        return False


class EventLog:
    """Bounded ring of structured events with an optional JSONL sink."""

    def __init__(
        self,
        capacity: int = 4096,
        clock: Callable[[], float] = time.monotonic,
        sink=None,
        max_sink_bytes: Optional[int] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if max_sink_bytes is not None and max_sink_bytes < 1:
            raise ValueError("max_sink_bytes must be >= 1")
        self._clock = clock
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=capacity)
        self._seq = itertools.count(1)
        self._by_kind: _TallyCounter = _TallyCounter()
        self._emitted = 0
        self._sink_handle = None
        self._sink_path: Optional[str] = None
        self._sink_bytes = 0
        self._owns_sink = False
        self.max_sink_bytes = max_sink_bytes
        self.rotations = 0
        if sink is not None:
            if isinstance(sink, (str, bytes)) or hasattr(sink, "__fspath__"):
                self._sink_path = os.fspath(sink)
                self._sink_handle = open(
                    self._sink_path, "a", encoding="utf-8"
                )
                self._owns_sink = True
                # Append mode: pre-existing bytes count against the cap,
                # or a restart would double the bound.
                try:
                    self._sink_bytes = os.path.getsize(self._sink_path)
                except OSError:
                    self._sink_bytes = 0
            else:
                self._sink_handle = sink

    # -- emission ------------------------------------------------------

    def emit(
        self,
        kind: str,
        request_id: Optional[str] = None,
        **fields,
    ) -> Dict[str, object]:
        """Record one event; returns the record.

        ``request_id`` defaults to the ambient :func:`request_scope` id;
        ``span_id`` is stamped from the installed collector's innermost
        open span.  Unknown kinds raise ``ValueError`` — the schema is a
        contract, not a convention.
        """
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; the stable kinds are: "
                + ", ".join(EVENT_KINDS)
            )
        open_span = current_span()
        record: Dict[str, object] = {
            "ts": self._clock(),
            "kind": kind,
            "request_id": (
                request_id
                if request_id is not None
                else current_request_id()
            ),
            "span_id": open_span.span_id if open_span is not None else None,
        }
        record.update(fields)
        with self._lock:
            record["seq"] = next(self._seq)
            self._ring.append(record)
            self._by_kind[kind] += 1
            self._emitted += 1
            if self._sink_handle is not None:
                line = json.dumps(record, default=repr) + "\n"
                self._sink_handle.write(line)
                self._sink_handle.flush()
                self._sink_bytes += len(line.encode("utf-8"))
                if (
                    self.max_sink_bytes is not None
                    and self._sink_path is not None
                    and self._sink_bytes > self.max_sink_bytes
                ):
                    self._rotate_sink()
        return record

    def _rotate_sink(self) -> None:
        """Rotate an owned, size-capped path sink (lock held by caller).

        The current file moves to ``<path>.1`` — clobbering any previous
        rotation, so exactly one generation of history is kept — and a
        fresh file takes its place: total disk use stays bounded at
        roughly twice ``max_sink_bytes``.

        The rename and the fresh file's creation are made durable with
        a directory fsync — the same guarantee as
        :func:`repro.observability.export.write_trace` and the tenant
        store's snapshot writes, so a crash right after rotation cannot
        leave the directory entry unjournaled and resurrect the
        pre-rotation file over the ``.1`` generation.
        """
        self._sink_handle.close()
        os.replace(self._sink_path, self._sink_path + ".1")
        self._sink_handle = open(self._sink_path, "a", encoding="utf-8")
        fsync_dir(self._sink_path)
        self._sink_bytes = 0
        self.rotations += 1

    # -- queries -------------------------------------------------------

    def records(
        self,
        kind: Optional[str] = None,
        request_id: Optional[str] = None,
    ) -> List[Dict[str, object]]:
        """Retained events, oldest first, optionally filtered."""
        with self._lock:
            out = list(self._ring)
        if kind is not None:
            out = [r for r in out if r["kind"] == kind]
        if request_id is not None:
            out = [r for r in out if r["request_id"] == request_id]
        return out

    def tail(self, n: int = 20) -> List[Dict[str, object]]:
        """The most recent *n* retained events, oldest first."""
        with self._lock:
            ring = list(self._ring)
        return ring[-n:]

    def stats(self) -> Dict[str, object]:
        """JSON-ready tallies: total emitted, retained, per-kind counts."""
        with self._lock:
            return {
                "emitted": self._emitted,
                "retained": len(self._ring),
                "by_kind": dict(sorted(self._by_kind.items())),
            }

    def close(self) -> None:
        """Close an owned file sink (idempotent)."""
        with self._lock:
            if self._owns_sink and self._sink_handle is not None:
                self._sink_handle.close()
            self._sink_handle = None
            self._owns_sink = False


def read_events(source) -> List[Dict[str, object]]:
    """Parse a JSONL event file (path or file object) into records.

    Bad lines (the truncated trailing line of a crashed process, an
    editor artifact) are skipped with a warning, as for traces (see
    :func:`~repro.observability.export.read_jsonl`), and each skip bumps
    the ``events.corrupt_lines_skipped`` counter so silent decay of an
    event log is visible in exported metrics, not only in warnings
    someone has to be watching for.
    """
    return read_jsonl(source, "events.corrupt_lines_skipped")
