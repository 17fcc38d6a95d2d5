"""WAL-shipping replication: the follower's pull loop.

Replication is *pull-based* over the plain HTTP plane: a follower
long-polls the primary's ``POST /v1/replica/pull`` with its current
``from_lsn`` and epoch, and the primary answers with either the WAL
records past that LSN (the in-memory tail :meth:`TenantStore
.records_since` keeps since the last compaction) or — when compaction
has already folded the requested range — a full
:meth:`~repro.serve.store.TenantStore.state_transfer` snapshot the
follower installs atomically before resuming the stream.  Records are
applied through :meth:`~repro.serve.store.TenantStore
.apply_replicated`: idempotent under duplicated/retried pulls, refusing
gaps and lower-epoch writers, durable in the follower's own WAL — so a
follower crash recovers exactly like a primary crash and the stream
resumes from whatever LSN survived.

The client deliberately has no failure-handling cleverness: a dropped
or timed-out pull is just retried after ``backoff_s``, because the
protocol is a pure idempotent fetch.

:class:`StaleReadError` is the staleness contract's refusal: a read
carrying ``min_lsn`` that the local state cannot satisfy within its
wait budget, or a replica whose feed has been silent past
``max_stale_s``, sheds with a typed 503 pointing at the primary rather
than serving an answer it knows may be stale.  It is a
:class:`~repro.serve.specs.Refusal` that carries that response.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..observability.live import emit_event, live_add, live_gauge
from .specs import Refusal
from .store import StoreCorruptionError, StoreWriteError

__all__ = ["ReplicaClient", "ReplicaConfig", "StaleReadError"]


def parse_server_url(url: str) -> Tuple[str, int]:
    """``(host, port)`` of a server URL, with or without a scheme."""
    parsed = urllib.parse.urlsplit(url)
    if parsed.hostname is None:
        parsed = urllib.parse.urlsplit(f"//{url}")
    if parsed.hostname is None:
        raise ValueError(f"cannot parse server URL {url!r}")
    return parsed.hostname, parsed.port or 80


def json_request(
    host: str, port: int, method: str, path: str, payload=None,
    timeout_s: float = 30.0,
) -> Tuple[int, Dict[str, object]]:
    """One JSON round trip: ``(status, body)``, where a body that is not
    JSON comes back as ``{"raw": text}``."""
    connection = http.client.HTTPConnection(host, port, timeout=timeout_s)
    try:
        connection.request(
            method,
            path,
            body=json.dumps(payload) if payload is not None else None,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        raw = response.read()
        try:
            body = json.loads(raw) if raw else {}
        except ValueError:
            body = {"raw": raw.decode("utf-8", "replace")}
        return response.status, body
    finally:
        connection.close()


class StaleReadError(Refusal):
    """A lag-bounded read the local replica state cannot honour: a
    503 whose body says why, how far this replica got and where the
    primary is."""

    outcome = "stale"

    def __init__(
        self,
        reason: str,
        *,
        min_lsn: Optional[int] = None,
        as_of_lsn: Optional[int] = None,
        stale_s: Optional[float] = None,
        primary_url: Optional[str] = None,
        retry_after_s: float = 1.0,
    ) -> None:
        retry_after_s = max(0.1, retry_after_s)
        body: Dict[str, object] = {
            "error": "stale-read",
            "reason": reason,
            "as_of_lsn": as_of_lsn,
            "retry_after_s": round(retry_after_s, 3),
        }
        if min_lsn is not None:
            body["min_lsn"] = min_lsn
        if stale_s is not None:
            body["stale_s"] = round(stale_s, 3)
        if primary_url:
            body["primary_url"] = primary_url
        super().__init__(
            503,
            body,
            {"Retry-After": str(max(1, int(round(retry_after_s))))},
        )


@dataclass(frozen=True)
class ReplicaConfig:
    """How a follower reaches and paces its primary."""

    #: Primary base URL (``http://host:port``).
    upstream: str
    #: Stable follower identity (per-follower lag gauge key).
    follower_id: str = "follower"
    #: Server-side long-poll hold when the tail is empty.
    wait_s: float = 1.0
    #: Client-side pause after an empty or failed pull.
    poll_interval_s: float = 0.2
    #: Pause after a transport error before retrying.
    backoff_s: float = 0.5
    #: Freshness bound: reads shed once the feed is silent this long.
    max_stale_s: float = 5.0
    #: Socket timeout per pull (must exceed ``wait_s``).
    request_timeout_s: float = 10.0


class ReplicaClient:
    """The follower-side pull thread.

    Owns no state of its own beyond telemetry: every applied record
    goes through the *service* (``apply_replicated`` /
    ``install_replica_state``) so the durable store and the live
    ``(Database, constraints)`` registry advance together.
    """

    def __init__(self, service, config: ReplicaConfig, clock=time.monotonic):
        self._service = service
        self.config = config
        self._clock = clock
        self._server = parse_server_url(config.upstream)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.pulls = 0
        self.pull_errors = 0
        self.records_applied = 0
        self.duplicates_skipped = 0
        self.bootstraps = 0
        self.last_pull_at: Optional[float] = None
        self.upstream_lsn: Optional[int] = None
        self.upstream_epoch: Optional[int] = None
        self.upstream_fenced = False
        self.last_error: Optional[str] = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "ReplicaClient":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop,
            name=f"replica-pull[{self.config.follower_id}]",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, timeout_s: float = 10.0) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout_s)
            self._thread = None

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                applied = self.pull_once()
            except (StoreCorruptionError, StoreWriteError) as exc:
                # Local apply failed (gap after a lost snapshot, store
                # latch, ...) — crash-only discipline: record it, back
                # off, and let the next pull bootstrap or keep failing
                # visibly rather than guessing at a repair.
                self.last_error = str(exc)
                live_add("replica.apply_errors")
                self._stop.wait(self.config.backoff_s)
                continue
            except Exception as exc:  # noqa: BLE001 — loop must survive
                # Anything unexpected (malformed body shape, a parse
                # error inside a bootstrap, a bug) must not kill the
                # daemon thread silently: replication stopping forever
                # with running=True-looking stats is worse than any
                # single bad pull.  Record, count, back off, retry.
                self.pull_errors += 1
                self.last_error = f"{type(exc).__name__}: {exc}"
                live_add("replica.loop_errors")
                emit_event(
                    "replica.loop_error",
                    follower=self.config.follower_id,
                    error=self.last_error,
                )
                self._stop.wait(self.config.backoff_s)
                continue
            if applied == 0 and not self._stop.is_set():
                self._stop.wait(self.config.poll_interval_s)

    # -- one pull ------------------------------------------------------

    def pull_once(self, wait_s: Optional[float] = None) -> int:
        """One pull/apply round; returns the records applied.

        Safe to call from tests without the thread running.  Raises
        only on *local* apply failures; transport errors and upstream
        refusals are counted and absorbed (the loop just retries).
        """
        store = self._service.store
        payload = {
            "from_lsn": store.last_lsn,
            "epoch": store.epoch,
            "follower": self.config.follower_id,
            "wait_s": self.config.wait_s if wait_s is None else wait_s,
        }
        try:
            status, body = json_request(
                *self._server, "POST", "/v1/replica/pull", payload,
                self.config.request_timeout_s,
            )
        except (OSError, http.client.HTTPException) as exc:
            self.pull_errors += 1
            self.last_error = f"{type(exc).__name__}: {exc}"
            live_add("replica.pull_errors")
            self._stop.wait(self.config.backoff_s)
            return 0
        if status != 200:
            self.pull_errors += 1
            self.last_error = f"pull refused: {status} {body}"
            self.upstream_fenced = status == 409 or (
                isinstance(body, dict) and body.get("error") == "fenced"
            )
            live_add("replica.pull_errors")
            self._stop.wait(self.config.backoff_s)
            return 0
        self.pulls += 1
        self.upstream_fenced = False
        self.last_error = None
        if isinstance(body.get("last_lsn"), int):
            self.upstream_lsn = body["last_lsn"]
        if isinstance(body.get("epoch"), int):
            self.upstream_epoch = body["epoch"]
        live_add("replica.pulls")
        applied = 0
        bootstrap = body.get("bootstrap")
        if bootstrap:
            self._service.install_replica_state(bootstrap)
            self.bootstraps += 1
            applied = 1  # progressed, even though no records replayed
            emit_event(
                "replica.bootstrap",
                lsn=bootstrap.get("lsn"),
                epoch=bootstrap.get("epoch"),
                follower=self.config.follower_id,
            )
        else:
            for record in body.get("records") or []:
                if self._service.apply_replicated(record):
                    applied += 1
                else:
                    self.duplicates_skipped += 1
            if applied:
                self.records_applied += applied
                live_add("replica.records_applied", applied)
        # Fresh only once the pull's records (or bootstrap) are applied:
        # a pull whose apply raised proves nothing about this replica.
        self.last_pull_at = self._clock()
        live_gauge("replica.lag_records", self.lag() or 0)
        self._service.note_replica_progress(self)
        return applied

    # -- staleness -----------------------------------------------------

    def lag(self) -> Optional[int]:
        """Records behind the upstream at the last pull, or None."""
        if self.upstream_lsn is None:
            return None
        return max(0, self.upstream_lsn - self._service.store.last_lsn)

    def staleness_s(self) -> Optional[float]:
        """Seconds since the feed last proved freshness (None = never)."""
        if self.last_pull_at is None:
            return None
        return max(0.0, self._clock() - self.last_pull_at)

    def stats(self) -> Dict[str, object]:
        staleness = self.staleness_s()
        return {
            "upstream": self.config.upstream,
            "follower_id": self.config.follower_id,
            "running": self.running,
            "pulls": self.pulls,
            "pull_errors": self.pull_errors,
            "records_applied": self.records_applied,
            "duplicates_skipped": self.duplicates_skipped,
            "bootstraps": self.bootstraps,
            "upstream_lsn": self.upstream_lsn,
            "upstream_epoch": self.upstream_epoch,
            "upstream_fenced": self.upstream_fenced,
            "lag_records": self.lag(),
            "stale_s": (
                round(staleness, 3) if staleness is not None else None
            ),
            "last_error": self.last_error,
        }
