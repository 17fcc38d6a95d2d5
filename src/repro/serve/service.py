"""The CQA service: named databases, handlers, and the degrade path.

One :class:`CQAService` owns everything the HTTP layer needs but HTTP
knows nothing about: a registry of named ``(Database, constraints)``
instances, one shared :class:`~repro.dispatch.Dispatcher` (breaker
state lives across requests) over an optional warm
:class:`~repro.dispatch.WorkerPool`, and the
:class:`~repro.serve.admission.AdmissionController` front door.

Handlers take a parsed JSON payload and return ``(status, body,
headers)`` — plain data, callable from the asyncio server's executor
threads, from tests, or from a future transport.  All are thread-safe.
Each declares its gates once (:func:`_handler`), and refuses a request
by raising a :class:`~repro.serve.specs.Refusal` (a store write that
fails raises :class:`StoreWriteError`, which the declaration maps to
one).  A refusal becomes ``(status, body, headers)`` in one place per
kind of handler: the declaration for the plain handlers, and
:meth:`CQAService._serve_request` for the budgeted ones, which also
stamp the request id and count it.

The soundness contract under overload mirrors the ladder's: when the
worker pool reports no idle capacity, the CQA path does not queue
behind it — it answers immediately from the anytime **certain-core
bracket** (a sound under-approximation marked ``complete: false``), or
sheds if even that is inapplicable.  A served answer is therefore
always either exact or an explicitly-marked subset; pressure changes
latency and completeness, never correctness.

With a :class:`~repro.serve.store.TenantStore` attached (``serve
--data-dir``), the registry is *durable*: every state-mutating handler
acknowledges only after its WAL append is durable per the store's
fsync policy, and startup runs :meth:`CQAService.recover` — until it
completes the service is in phase ``recovering`` and every handler
that touches the registry answers 503 (``/healthz`` included, so load
balancers hold traffic).  A store write failure flips the service to
crash-only mode: mutations refuse with 503 until a restart
re-establishes truth from disk.

Replication adds a *role* axis orthogonal to the phase:

* ``primary`` — the only role that acks mutations; serves
  ``/v1/replica/pull`` to followers and tracks their lag;
* ``follower`` — mutations answer 403 ``not-primary`` (with the
  primary's URL); reads are served under the staleness contract
  (``min_lsn`` in, ``as_of_lsn``/``stale_s`` out, typed 503
  ``stale-read`` when the bound cannot be met); a background
  :class:`~repro.serve.replica.ReplicaClient` pulls the primary's WAL;
* ``fenced`` — a demoted primary: a higher epoch exists, the store
  latches every append with :class:`~repro.serve.store.FencedError`
  (the latch is durable — a restart recovers straight back into
  ``fenced``), mutations answer 403, and reads shed with a typed 503
  (``fenced``) because with no pull feed the node's staleness is
  unknowable.  It re-enters service only as ``--follower-of`` the
  superseding lineage, whose stream clears the latch on catch-up.

The phase gate gains ``catching-up`` (follower replaying toward the
primary's head — not yet serving reads) and ``draining`` (SIGTERM
received: ``/healthz`` flips to 503 so load balancers stop routing,
while in-flight and straggler requests still complete).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..dispatch import (
    CQARequest,
    DispatchError,
    DispatchPolicy,
    Dispatcher,
    InstanceKey,
    get_engine,
)
from ..dispatch.engines import SEMANTICS, Step
from ..dispatch.pool import WorkerPool
from ..errors import BudgetExceededError, ReproError
from ..logic.parser import parse_query
from ..measures.inconsistency import InconsistencyReport
from ..observability import add
from ..observability.live import (
    emit_event,
    live_add,
    live_gauge,
    live_installed,
    live_observe,
    live_plane,
    request_scope,
)
from ..observability.live.expo import prometheus_text
from ..relational.database import Database, Fact, fact
from ..relational.nulls import is_null, json_stable
from ..repairs import c_repairs_partial, s_repairs_partial
from ..runtime import Budget, use_budget
from .admission import AdmissionController, ShedError
from .replica import ReplicaClient, ReplicaConfig, StaleReadError
from .specs import (
    PayloadError,
    Refusal,
    RenderedRows,
    delta_field,
    int_field,
    number_field,
    parse_constraints as _parse_constraints,
    parse_database as _parse_database,
    render_rows,
    sorted_rows,
    spec_of_instance,
    string_field,
)
from .store import (
    FencedError,
    StoreCorruptionError,
    StoreWriteError,
    TenantStore,
)

__all__ = ["CQAService", "PayloadError"]

#: A handler's answer: status, body (a JSON object, or the text of
#: ``/metrics``) and headers.
Handled = Tuple[int, Union[Dict[str, object], str], Dict[str, str]]

#: Mutation steps a registry entry keeps: a worker holding a version at
#: most this many writes old gets the steps instead of the instance.
DELTA_STEPS = 16


class Entry(NamedTuple):
    """A registry entry: instance, constraints, the version stamped on
    the registry write that stored it, and the last (at most
    :data:`DELTA_STEPS`) mutation steps that led to it, oldest first."""

    db: Database
    constraints: tuple
    version: int
    steps: Tuple[Step, ...] = ()


_NO_HEADERS: Dict[str, str] = {}

#: Versions come from one process-wide counter, so an ``(name,
#: version)`` instance key names one instance even across services that
#: share a worker pool (a pool worker keeps instances warm by that key).
_VERSIONS = itertools.count(1)


def _entry(db: Database, constraints: Sequence) -> Entry:
    """A registry entry for *db*, stamped with a fresh version; no
    steps lead to it."""
    return Entry(db, tuple(constraints), next(_VERSIONS))


def _spec_entry(spec: Dict[str, object]) -> Entry:
    return _entry(
        _parse_database(spec), _parse_constraints(spec.get("constraints"))
    )


def _mutated(
    entry: Entry, deleted: Tuple[Fact, ...], inserted: Tuple[Fact, ...]
) -> Entry:
    """The entry after deleting *deleted*, then inserting *inserted*:
    a fresh version, with this write as its last step."""
    step = (entry.version, deleted, inserted)
    return Entry(
        entry.db.delete(deleted).insert(inserted),
        entry.constraints,
        next(_VERSIONS),
        (entry.steps + (step,))[-DELTA_STEPS:],
    )


class _Renderings:
    """One registered name's kept answer renderings, keyed by the answer
    set, whatever version answered it.

    They hold at most *bound* rows, the fact count of the instance a
    read resolved, each answer counting at least one: the least
    recently used goes first, and an answer over the bound on its own
    is not kept.  This is the rule of the worker's answer memo
    (``KeptSqlite``).  Not thread-safe: the service locks around it.
    """

    __slots__ = ("_kept", "_rows")

    def __init__(self) -> None:
        # answer set -> its rendering, least recently used first.  A hit
        # re-inserts the rendering under the set the read brought: a
        # pool worker's handle hands back one set object for every
        # repeat of its answer (``PoolWorker.answers``), so the next
        # repeat finds its key by identity, without comparing rows.
        self._kept: Dict[frozenset, RenderedRows] = {}
        self._rows = 0

    def recall(
        self, answers: frozenset, bound: int
    ) -> Optional[RenderedRows]:
        found = self._kept.pop(answers, None)
        if found is None:
            return None
        self._kept[answers] = found
        self._trim(bound)
        return found

    def keep(
        self, answers: frozenset, rendering: RenderedRows, bound: int
    ) -> None:
        cost = len(rendering) or 1
        if cost > bound or answers in self._kept:
            return
        self._kept[answers] = rendering
        self._rows += cost
        self._trim(bound)

    def _trim(self, bound: int) -> None:
        kept = self._kept
        while self._rows > bound:
            rendering = kept.pop(next(iter(kept)))
            self._rows -= len(rendering) or 1


def _serialize_repairs(repairs) -> List[Dict[str, List[List[object]]]]:
    """Each repair's deleted and inserted facts as JSON rows, in
    :func:`sorted_rows` order.  Every fact the response names gets its
    row and its rank in that order once, and a repair lists its facts
    by rank: the rows and order that sorting each repair's own give."""
    if not repairs:
        return []
    fact_by_tid = repairs[0].original.fact_by_tid
    # Each fact the response names, keyed by its tid, or by itself when
    # inserted.
    facts = {
        tid: fact_by_tid(tid)
        for tid in frozenset().union(*(r.deleted_tids for r in repairs))
    }
    facts.update(
        (f, f) for f in frozenset().union(*(r.inserted for r in repairs))
    )
    row_of = {key: (f.relation, *f.values) for key, f in facts.items()}
    ordered = sorted_rows(row_of.values())
    rank = {row: index for index, row in enumerate(ordered)}
    rank_of = {key: rank[row] for key, row in row_of.items()}
    # A repair may insert NULL (an inclusion dependency's witness):
    # JSON writes it as null, as it does in an answer.
    json_rows = [
        [None if is_null(value) else value for value in row]
        for row in ordered
    ]

    def listed(keys) -> List[List[object]]:
        return [json_rows[i] for i in sorted(map(rank_of.__getitem__, keys))]

    return [
        {
            "deleted": listed(repair.deleted_tids),
            "inserted": listed(repair.inserted),
        }
        for repair in repairs
    ]


def _handler(*gates: str):
    """Declare a public handler and the gates it takes, checked in the
    order given before it runs (:meth:`CQAService._gate`).  Every
    :class:`Refusal` the gates or the handler raise, and every store
    write it could not make durable, is answered as its ``(status,
    body, headers)``."""

    assert set(gates) <= {"store", "recovered", "ready", "primary"}, gates

    def declare(method):
        @functools.wraps(method)
        def handle(self, *args, **kwargs) -> Handled:
            try:
                for gate in gates:
                    self._gate(gate)
                return method(self, *args, **kwargs)
            except StoreWriteError as exc:
                refusal = self._store_refusal(exc)
            except Refusal as exc:
                refusal = exc
            return refusal.status, refusal.body, refusal.headers

        return handle

    return declare


class CQAService:
    """Handlers over named databases; see the module docstring."""

    def __init__(
        self,
        policy: Optional[DispatchPolicy] = None,
        pool: Optional[WorkerPool] = None,
        admission: Optional[AdmissionController] = None,
        store: Optional[TenantStore] = None,
        clock=time.monotonic,
    ) -> None:
        self.pool = pool
        self.dispatcher = Dispatcher(policy, clock=clock, pool=pool)
        self.admission = admission or AdmissionController(clock=clock)
        self.store = store
        self._clock = clock
        self._lock = threading.Lock()
        self._databases: Dict[str, Entry] = {}
        # Apart from the registry lock, which a write holds through its
        # fsync: a read that renders must not wait on that.
        self._render_lock = threading.Lock()
        self._renderings: Dict[str, _Renderings] = {}
        # With a store attached nothing may be served until recover()
        # re-establishes the registry from disk; without one there is
        # nothing to recover and the service is born ready.
        self._phase = "recovering" if store is not None else "ready"
        self._role = "primary"
        self._primary_url: Optional[str] = None
        self._replica: Optional[ReplicaClient] = None
        self._max_stale_s = 5.0
        #: Primary-side per-follower shipping state (lag gauges).
        self._followers: Dict[str, Dict[str, object]] = {}

    # -- durability ----------------------------------------------------

    @property
    def phase(self) -> str:
        """``recovering`` → (``catching-up``) → ``ready`` → ``draining``."""
        return self._phase

    @property
    def role(self) -> str:
        """``primary`` | ``follower`` | ``fenced``."""
        return self._role

    def recover(self) -> Dict[str, object]:
        """Load the durable state and open for traffic (idempotent).

        Snapshot → replay → torn-tail truncation happen inside
        :meth:`TenantStore.recover`; this method turns the recovered
        specs back into live ``(Database, constraints)`` pairs,
        re-warms the worker pool against the recovered tenant set, and
        flips the phase to ``ready``.  Raises
        :class:`~repro.serve.store.StoreCorruptionError` (leaving the
        phase at ``recovering``) rather than serving a state with
        acknowledged writes missing.
        """
        if self.store is None:
            self._phase = "ready"
            return {"phase": self._phase, "databases": 0}
        recovered = self.store.recover()
        databases = {
            name: _spec_entry(spec)
            for name, spec in recovered.specs.items()
        }
        with self._lock:
            self._replace_registry(databases)
        if recovered.fenced_by is not None:
            # The durable latch survived the restart: a fenced
            # ex-primary reboots fenced, not back into acking at its
            # old epoch.  (``start_follower`` may still turn it into a
            # follower of the superseding lineage.)
            self._role = "fenced"
            emit_event(
                "replica.fence",
                epoch=recovered.fenced_by,
                reason="restored-from-disk",
            )
        if self.pool is not None:
            # The pool outlived nothing (fresh process) — ping every
            # worker so the first post-recovery request hits a warm,
            # verified interpreter rather than paying spawn latency.
            self.pool.health_check()
        self._phase = "ready"
        return {
            "phase": self._phase,
            "databases": len(databases),
            "last_lsn": recovered.last_lsn,
            "records_replayed": recovered.records_replayed,
            "state_digest": recovered.state_digest,
            "elapsed_s": recovered.elapsed_s,
        }

    def _gate(self, gate: str) -> None:
        """Raise the refusal of *gate* while it is shut.

        * ``store`` — shut without a durable store (400);
        * ``recovered`` — shut while the registry is being recovered
          (503 ``not ready``, ``Retry-After: 1``);
        * ``ready`` — shut while recovering or catching up: draining
          still serves, since its 503 lives on ``/healthz`` so load
          balancers stop *routing* while stragglers complete;
        * ``primary`` — shut on a node that may not ack writes (403
          ``not-primary``, with the primary's URL when known).
        """
        phase = self._phase
        if gate == "store" and self.store is None:
            raise Refusal(
                400, {"error": "replication requires a durable store"}
            )
        if phase == "recovering" and gate in ("recovered", "ready") or (
            phase == "catching-up" and gate == "ready"
        ):
            live_add("serve.requests.not_ready")
            raise Refusal(
                503,
                {"error": "not ready", "phase": phase},
                {"Retry-After": "1"},
            )
        if gate == "primary" and self._role != "primary":
            live_add("serve.requests.not_primary")
            body: Dict[str, object] = {
                "error": "not-primary",
                "role": self._role,
            }
            if self._primary_url:
                body["primary_url"] = self._primary_url
            raise Refusal(403, body)

    def _store_refusal(self, exc: StoreWriteError) -> Refusal:
        """The refusal of a write the store could not make durable."""
        if isinstance(exc, FencedError):
            # Race window: the store latched between our role gate and
            # the append.  The epoch check is the authority — refuse
            # like any other demoted primary.
            live_add("serve.requests.not_primary")
            return Refusal(403, {
                "error": "not-primary",
                "role": self._role,
                "reason": "fenced",
                "detail": str(exc),
            })
        live_add("serve.store_unavailable")
        return Refusal(503, {
            "error": "store-unavailable",
            "detail": str(exc),
            "phase": self._phase,
        })

    def _registered(self, name: str) -> Entry:
        """The registry entry of *name*, or a 404 (under the registry
        lock)."""
        found = self._databases.get(name)
        if found is None:
            raise Refusal(404, {"error": f"no database {name!r}"})
        return found

    # -- database registry --------------------------------------------

    @_handler("ready", "primary")
    def register_db(self, name: str, spec: Dict[str, object]) -> Handled:
        if not name or "/" in name:
            raise PayloadError(f"invalid database name {name!r}")
        entry = _spec_entry(spec)
        body: Dict[str, object] = {
            "db": name,
            "facts": len(entry.db),
            "constraints": len(entry.constraints),
        }
        with self._lock:
            if self.store is not None:
                body["lsn"] = self.store.append_put_db(name, spec)
            self._databases[name] = entry
        add("serve.db_registered")
        return 200, body, _NO_HEADERS

    def register_instance(
        self,
        name: str,
        db: Database,
        constraints: Sequence,
        constraint_spec: Optional[Dict[str, List[str]]] = None,
    ) -> None:
        """Register a pre-built instance (the CLI's --csv preload).

        With a store attached the instance is logged durably like any
        other registration; ``constraint_spec`` must then carry the
        textual constraint block (constraint objects do not
        round-trip), and :class:`StoreWriteError` propagates — a
        preload that could not be made durable must not look loaded.
        """
        with self._lock:
            if self.store is not None:
                self.store.append_put_db(
                    name, spec_of_instance(db, constraint_spec)
                )
            self._databases[name] = _entry(db, constraints)
        add("serve.db_registered")

    @_handler("ready", "primary")
    def remove_db(self, name: str) -> Handled:
        body: Dict[str, object] = {"db": name, "removed": True}
        with self._lock:
            self._registered(name)
            if self.store is not None:
                body["lsn"] = self.store.append_del_db(name)
            self._forget(name)
        return 200, body, _NO_HEADERS

    def _forget(self, name: str) -> None:
        """Remove *name* from the registry, with its kept renderings
        (under the registry lock)."""
        self._databases.pop(name, None)
        with self._render_lock:
            self._renderings.pop(name, None)

    def _replace_registry(self, databases: Dict[str, Entry]) -> None:
        """Make *databases* the whole registry; every kept rendering
        goes with the names it replaces (under the registry lock)."""
        self._databases = databases
        with self._render_lock:
            self._renderings.clear()

    @_handler("ready", "primary")
    def handle_mutate(
        self, name: str, payload: Dict[str, object]
    ) -> Handled:
        """POST /v1/db/<name>/mutate — a durable tuple-level delta.

        ``{"insert": [["Rel", v, ...], ...], "delete": [...]}`` — set
        semantics (inserting a present fact or deleting an absent one
        is a no-op), deletes applied before inserts, acknowledged only
        after the WAL append is durable.  The response carries the
        assigned ``lsn``: a client that saw it is entitled to find the
        delta present after any crash.
        """
        deletes = delta_field(payload, "delete")
        inserts = delta_field(payload, "insert")
        if not deletes and not inserts:
            raise PayloadError(
                "payload needs a non-empty 'insert' or 'delete' list"
            )
        record = {
            "op": "mutate", "db": name, "insert": inserts, "delete": deletes
        }
        body: Dict[str, object] = {"db": name}
        with self._lock:
            found = self._registered(name)
            for relation, *values in deletes + inserts:
                schema_rel = found.db.schema.relations.get(relation)
                if schema_rel is None:
                    raise PayloadError(
                        f"no relation {relation!r} in {name!r}"
                    )
                if len(values) != len(schema_rel.attributes):
                    raise PayloadError(
                        f"relation {relation!r} needs "
                        f"{len(schema_rel.attributes)} values"
                    )
            entry = self._entry_after(record)
            if self.store is not None:
                body["lsn"] = self.store.append_mutate(
                    name, insert=inserts, delete=deletes
                )
            self._databases[name] = entry
        live_add("serve.mutations")
        body.update(
            inserted=len(inserts),
            deleted=len(deletes),
            facts=len(entry.db),
        )
        return 200, body, _NO_HEADERS

    def _entry_after(self, record: Dict[str, object]) -> Optional[Entry]:
        """The registry entry a WAL-shaped *record* leaves its database
        with (``del_db`` and ``epoch``: none).  A ``mutate`` reads the
        current entry, so it needs the lock."""
        op = record.get("op")
        if op == "put_db":
            return _spec_entry(record["spec"])
        if op == "mutate":
            found = self._databases.get(record.get("db"))
            if found is None:
                raise StoreCorruptionError(
                    f"mutate against unknown database {record.get('db')!r}"
                    " (registry diverged from store)"
                )
            return _mutated(
                found,
                tuple(fact(*entry) for entry in record.get("delete") or []),
                tuple(fact(*entry) for entry in record.get("insert") or []),
            )
        if op in ("del_db", "epoch"):
            return None
        raise StoreCorruptionError(f"record with unknown op {op!r}")

    @_handler("ready")
    def list_dbs(self) -> Handled:
        with self._lock:
            listing = {
                name: {
                    "facts": len(entry.db),
                    "constraints": len(entry.constraints),
                }
                for name, entry in sorted(self._databases.items())
            }
        return 200, {"databases": listing}, _NO_HEADERS

    def _resolve_instance(
        self,
        payload: Dict[str, object],
        view: Optional[Dict[str, object]] = None,
    ) -> Tuple[Database, Sequence, Optional[InstanceKey]]:
        """The instance a request addresses: a registered name or an
        inline definition (one-shot, nothing persisted), with its
        instance key (None when inline): name, version and steps, all
        read from one registry entry under the lock.

        When a *view* doc is passed, the store's ``last_lsn`` is
        captured into it under the same lock that snapshots the
        registry, so the stamped ``as_of_lsn`` is exactly the LSN the
        served instance reflects — a write landing while the query
        runs cannot inflate it.
        """
        name = string_field(payload, "db")
        if name is not None:
            with self._lock:
                found = self._databases.get(name)
                if view is not None and self.store is not None:
                    view["as_of_lsn"] = self.store.last_lsn
            if found is None:
                raise PayloadError(f"no database {name!r} is registered")
            return (
                found.db,
                found.constraints,
                InstanceKey(name, found.version, found.steps),
            )
        if "relations" in payload:
            if view is not None and self.store is not None:
                view["as_of_lsn"] = self.store.last_lsn
            return (
                _parse_database(payload),
                tuple(_parse_constraints(payload.get("constraints"))),
                None,
            )
        raise PayloadError("payload needs 'db' or inline 'relations'")

    # -- the CQA endpoint ---------------------------------------------

    @_handler("ready")
    def handle_cqa(self, payload: Dict[str, object]) -> Handled:
        """POST /v1/cqa — consistent answers through the ladder.

        Degrades to the certain-core bracket when the warm pool is
        saturated; sheds (via the admission controller) before it
        queues past the deadline.
        """
        return self._serve_request(payload, self._run_cqa)

    @_handler("ready")
    def handle_repairs(self, payload: Dict[str, object]) -> Handled:
        """POST /v1/repairs — budgeted repair enumeration."""
        return self._serve_request(payload, self._run_repairs)

    def _serve_request(self, payload, runner) -> Handled:
        """Admission, accounting, and the error firewall shared by the
        budgeted endpoints: a refusal is answered with the request id
        and counted under its outcome.  Only a failure to answer, not a
        refusal, counts against the tenant's breaker."""
        with request_scope() as rid:
            live_add("serve.requests")
            started = self._clock()
            tenant = None
            try:
                tenant = string_field(payload, "tenant") or "default"
                timeout_s = self.admission.clamp_timeout(
                    number_field(payload, "timeout_s")
                )
            except PayloadError as exc:
                emit_event("serve.request", tenant=tenant)
                return self._refused(rid, started, exc)
            emit_event("serve.request", tenant=tenant, timeout_s=timeout_s)
            try:
                ticket = self.admission.admit(tenant, timeout_s)
            except ShedError as exc:
                return self._refused(rid, started, exc)
            outcome = "error"
            try:
                view = self._read_view(payload, timeout_s)
                status, body, headers = runner(
                    payload, timeout_s, rid, view
                )
                outcome = body.get("outcome", "ok")
                if view is not None and status == 200:
                    body, headers = self._stamp_view(body, headers, view)
                return status, body, headers
            except Refusal as exc:
                outcome = "refused"
                return self._refused(rid, started, exc)
            except DispatchError as exc:
                return self._refused(rid, started, Refusal(
                    503, {"error": "unavailable", "detail": str(exc)}
                ))
            except Exception as exc:  # noqa: BLE001 — handler firewall
                return self._refused(rid, started, Refusal(
                    500, {"error": f"{type(exc).__name__}: {exc}"}
                ))
            finally:
                ticket.finish(outcome, self._clock() - started)

    def _read_view(
        self, payload: Dict[str, object], timeout_s: float
    ) -> Optional[Dict[str, object]]:
        """Enforce the staleness contract for one read.

        Returns the view doc to stamp on a 200 (``None`` without a
        durable store).  A ``min_lsn`` the local state has not reached
        is waited on briefly (read-your-writes usually needs only the
        in-flight pull to land); past the wait budget, and whenever a
        non-primary's feed cannot prove freshness within
        ``max_stale_s``, the read sheds with :class:`StaleReadError` —
        a typed refusal, not a stale answer.  Lag-bounded is a
        property of the *replica*: a fenced node has no feed at all
        (its pull client is stopped), so its staleness is unknowable
        and every read sheds rather than aging silently behind a
        fabricated ``stale_s: 0.0``.
        """
        store = self.store
        if store is None:
            return None
        min_lsn = int_field(payload, "min_lsn", 0)
        role = self._role
        replica = self._replica
        if role == "primary":
            stale_s: Optional[float] = 0.0
        else:
            # No replica client (never started, or stopped by a
            # fence) means freshness is unknowable: None, never 0.0.
            stale_s = (
                replica.staleness_s() if replica is not None else None
            )
        reason = None
        if min_lsn and store.last_lsn < min_lsn and not store.wait_for_lsn(
            min_lsn, min(max(0.0, timeout_s), 2.0)
        ):
            reason = "behind-min-lsn"
        elif role != "primary" and (
            stale_s is None or stale_s > self._max_stale_s
        ):
            reason = "fenced" if role == "fenced" else "replication-stalled"
        if reason is not None:
            live_add("replica.stale_reads_shed")
            raise StaleReadError(
                reason,
                min_lsn=min_lsn,
                as_of_lsn=store.last_lsn,
                stale_s=stale_s,
                primary_url=self._primary_url,
            )
        return {"stale_s": stale_s}

    def _stamp_view(
        self,
        body: Dict[str, object],
        headers: Dict[str, str],
        view: Dict[str, object],
    ) -> Tuple[Dict[str, object], Dict[str, str]]:
        # ``as_of_lsn`` was captured by ``_resolve_instance`` under
        # the registry lock, so it is exactly the LSN of the snapshot
        # that answered — never inflated by a write that landed while
        # the query ran.  (The min_lsn wait precedes resolution, so it
        # is also >= any satisfied ``min_lsn``.)  The fallback covers
        # handlers that never resolve an instance.
        as_of = view.get("as_of_lsn")
        if not isinstance(as_of, int):
            as_of = self.store.last_lsn
        stale_s = view.get("stale_s")
        body["as_of_lsn"] = as_of
        headers = dict(headers)
        headers["X-As-Of-LSN"] = str(as_of)
        if stale_s is not None:
            body["stale_s"] = round(stale_s, 3)
            headers["X-Stale-S"] = f"{stale_s:.3f}"
        return body, headers

    def _refused(
        self, rid: str, started: float, refusal: Refusal
    ) -> Handled:
        return self._finish(rid, started, refusal.outcome, (
            refusal.status,
            {**refusal.body, "request_id": rid},
            refusal.headers,
        ))

    def _finish(
        self, rid: str, started: float, outcome: str, handled: Handled
    ) -> Handled:
        elapsed_ms = (self._clock() - started) * 1000.0
        live_add(f"serve.requests.{outcome}")
        live_observe("serve.latency_ms", elapsed_ms)
        if outcome != "shed":
            # Admission logs a shed as its own ``serve.shed`` event.
            emit_event(
                "serve.response",
                outcome=outcome,
                status=handled[0],
                elapsed_ms=elapsed_ms,
            )
        return handled

    def _run_cqa(
        self,
        payload: Dict[str, object],
        timeout_s: float,
        rid: str,
        view: Optional[Dict[str, object]] = None,
    ) -> Handled:
        db, constraints, key = self._resolve_instance(payload, view)
        query_text = payload.get("query")
        if not isinstance(query_text, str):
            raise PayloadError("payload needs a 'query' string")
        try:
            query = parse_query(query_text)
        except Exception as exc:
            raise PayloadError(f"cannot parse query: {exc}")
        semantics = str(payload.get("semantics", "s"))
        if semantics not in SEMANTICS:
            raise PayloadError(
                f"unknown repair semantics {semantics!r}; "
                f"expected one of {', '.join(map(repr, SEMANTICS))}"
            )
        started = self._clock()
        request = CQARequest(db, tuple(constraints), query, semantics)
        degraded_reason = None
        if self._should_degrade():
            answer = self._certain_core(request)
            if answer is not None:
                degraded_reason = "pool-saturated"
        if degraded_reason is None:
            result = self.dispatcher.dispatch(
                db,
                constraints,
                query,
                semantics=semantics,
                budget=Budget(timeout=timeout_s),
                instance_key=key,
            )
            answers, complete = result.answers, result.complete
            engine = result.provenance.engine
            detail = result.detail
        else:
            answers, complete = answer.answers, answer.complete
            engine = "certain-core"
            detail = answer.detail
            live_add("serve.degraded_fastpath")
            emit_event("serve.degrade", reason=degraded_reason)
        outcome = "ok" if complete else "degraded"
        body = {
            "answers": self._rendered(key, len(db), answers),
            "complete": complete,
            "engine": engine,
            "semantics": semantics,
            "elapsed_ms": round(
                (self._clock() - started) * 1000.0, 3
            ),
            "request_id": rid,
            "outcome": outcome,
        }
        if degraded_reason:
            body["degraded_reason"] = degraded_reason
        upper = detail.get("upper_bound") if detail else None
        if upper is not None:
            body["upper_bound"] = render_rows(upper)
        return self._finish(
            rid, started, outcome, (200, body, _NO_HEADERS)
        )

    def _rendered(
        self, key: Optional[InstanceKey], bound: int, answers: frozenset
    ) -> RenderedRows:
        """The rendering of a read's answer set: the one its registered
        name keeps for an equal set, else a new one, which the name
        keeps (within *bound* rows) when its values are
        :func:`json_stable`.  Inline instances keep nothing."""
        if key is None:
            return render_rows(answers)
        with self._render_lock:
            kept = self._renderings.get(key.name)
            rendering = (
                kept.recall(answers, bound) if kept is not None else None
            )
        if rendering is not None:
            live_add("serve.answers.reused")
            return rendering
        rendering = render_rows(answers)
        if json_stable(answers):
            with self._render_lock:
                # A name removed since this read resolved it keeps
                # nothing: its renderings went with it.
                if key.name in self._databases:
                    self._renderings.setdefault(
                        key.name, _Renderings()
                    ).keep(answers, rendering, bound)
        return rendering

    def _should_degrade(self) -> bool:
        """Degrade rather than queue when the pool has no idle worker
        (only meaningful when isolation is actually pool-backed)."""
        pool = self.pool
        return (
            pool is not None
            and bool(self.dispatcher.policy.isolate)
            and pool.idle_count() == 0
        )

    def _certain_core(self, request: CQARequest):
        """The anytime bracket, or None if it cannot serve this request
        (then the full ladder runs and takes its chances).  A run that
        fails on a request the rung accepted is counted as
        ``serve.degraded_fastpath_failed``."""
        engine = get_engine("certain-core")
        try:
            engine.check(request)
        except Exception:  # noqa: BLE001 — not this rung's request
            return None
        try:
            return engine.run(request)
        except Exception:  # noqa: BLE001 — fall back to the ladder
            live_add("serve.degraded_fastpath_failed")
            return None

    def _run_repairs(
        self,
        payload: Dict[str, object],
        timeout_s: float,
        rid: str,
        view: Optional[Dict[str, object]] = None,
    ) -> Handled:
        db, constraints, _ = self._resolve_instance(payload, view)
        semantics = str(payload.get("semantics", "s"))
        limit = int_field(payload, "limit", 1)
        started = self._clock()
        budget = Budget(timeout=timeout_s, max_results=limit)
        with use_budget(budget):
            if semantics == "s":
                partial = s_repairs_partial(
                    db, constraints, limit=limit, budget=budget
                )
            elif semantics == "c":
                partial = c_repairs_partial(
                    db, constraints, budget=budget, limit=limit
                )
            else:
                raise PayloadError(
                    f"unknown repair semantics {semantics!r}; "
                    "expected 's' or 'c'"
                )
        outcome = "ok" if partial.complete else "degraded"
        body = {
            "repairs": _serialize_repairs(partial.value),
            "complete": partial.complete,
            "semantics": semantics,
            "elapsed_ms": round(
                (self._clock() - started) * 1000.0, 3
            ),
            "request_id": rid,
            "outcome": outcome,
        }
        return self._finish(
            rid, started, outcome, (200, body, _NO_HEADERS)
        )

    # -- replication ---------------------------------------------------

    def start_follower(self, config: ReplicaConfig) -> None:
        """Enter the follower role and start pulling (post-recovery).

        The phase drops to ``catching-up`` until the pull loop reports
        zero lag once; mutations 403 from here on.
        """
        if self.store is None:
            raise ReproError(
                "follower mode requires a durable store (--data-dir)"
            )
        self._role = "follower"
        self._primary_url = config.upstream
        self._max_stale_s = config.max_stale_s
        self._phase = "catching-up"
        live_gauge("replica.epoch", self.store.epoch)
        self._replica = ReplicaClient(
            self, config, clock=self._clock
        ).start()

    def note_replica_progress(self, client: ReplicaClient) -> None:
        """Pull-loop callback: flip ``catching-up`` → ``ready`` at lag 0."""
        store = self.store
        if store is not None:
            live_gauge("replica.epoch", store.epoch)
        if self._phase == "catching-up" and client.lag() == 0:
            self._phase = "ready"
            live_add("replica.catch_ups")
            emit_event(
                "replica.caught_up",
                lsn=store.last_lsn if store else None,
                follower=client.config.follower_id,
            )

    def apply_replicated(self, record: Dict[str, object]) -> bool:
        """Apply one shipped record to the store *and* the registry.
        The store goes first: a duplicate it skips changes nothing."""
        with self._lock:
            applied = self.store.apply_replicated(record)
            if applied:
                entry = self._entry_after(record)
                if entry is not None:
                    self._databases[record.get("db")] = entry
                elif record.get("op") == "del_db":
                    self._forget(record.get("db"))
        return applied

    def install_replica_state(
        self, bootstrap: Dict[str, object]
    ) -> None:
        """Adopt a snapshot bootstrap: store and registry atomically."""
        specs = bootstrap.get("databases") or {}
        lsn = int(bootstrap.get("lsn") or 0)
        epoch = int(bootstrap.get("epoch") or 0)
        databases = {name: _spec_entry(spec) for name, spec in specs.items()}
        with self._lock:
            self.store.install_state(specs, lsn, epoch)
            self._replace_registry(databases)

    @_handler("store", "recovered")
    def handle_replica_pull(
        self, payload: Dict[str, object]
    ) -> Handled:
        """POST /v1/replica/pull — ship the WAL tail to a follower.

        Long-polls ``wait_s`` when the follower is caught up; answers
        a snapshot ``bootstrap`` when compaction already folded the
        requested range, or when the pull carries a *lower* epoch than
        ours.  A pull carrying a *higher* epoch than ours is proof a
        successor was promoted: we fence ourselves before answering
        (split-brain guard — the 409 is the demotion).
        """
        store = self.store
        req_epoch = int_field(payload, "epoch", 0) or 0
        if req_epoch > store.epoch:
            store.fence(req_epoch)
            self._role = "fenced"
            live_add("replica.self_fenced")
            emit_event(
                "replica.fence", epoch=req_epoch, reason="higher-epoch-pull"
            )
            raise Refusal(409, {
                "error": "fenced",
                "epoch": req_epoch,
                "own_epoch": store.epoch,
            })
        if self._role != "primary":
            fenced = self._role == "fenced"
            body: Dict[str, object] = {
                "error": "fenced" if fenced else "not-primary",
                "role": self._role,
                "epoch": store.epoch,
            }
            if self._primary_url:
                body["primary_url"] = self._primary_url
            raise Refusal(409 if fenced else 403, body)
        from_lsn = int_field(payload, "from_lsn", 0, required=True)
        wait_s = min(max(0.0, number_field(payload, "wait_s") or 0.0), 5.0)
        follower = string_field(payload, "follower") or "anon"
        # A lower-epoch puller may hold writes this lineage never had (a
        # fenced ex-primary rejoining): a bootstrap replaces them.
        same_epoch = req_epoch == store.epoch
        records = store.records_since(from_lsn) if same_epoch else None
        if records is not None and not records and wait_s > 0:
            store.wait_for_lsn(from_lsn + 1, wait_s)
            records = store.records_since(from_lsn)
        live_add("replica.pulls_served")
        if records is None:
            live_add("replica.bootstraps_served")
            body = {
                "bootstrap": store.state_transfer(),
                "last_lsn": store.last_lsn,
                "epoch": store.epoch,
            }
        else:
            live_add("replica.records_shipped", len(records))
            body = {
                "records": records,
                "last_lsn": store.last_lsn,
                "epoch": store.epoch,
            }
        lag = max(0, store.last_lsn - from_lsn)
        with self._lock:
            self._followers[follower] = {
                "acked_lsn": from_lsn,
                "lag_records": lag,
                "epoch": req_epoch,
                "last_pull_age_s": 0.0,
                "_last_pull_at": self._clock(),
            }
        live_gauge(f"replica.follower.lag.{follower}", lag)
        return 200, body, _NO_HEADERS

    @_handler("store", "recovered")
    def handle_replica_promote(
        self, payload: Optional[Dict[str, object]] = None
    ) -> Handled:
        """POST /v1/replica/promote — follower → candidate → primary.

        Candidate catch-up drains whatever the (possibly dead) primary
        still serves with one final best-effort pull, then the epoch
        bump makes the claim durable: from that record on, the old
        primary's epoch is stale and every surviving node will fence
        it on contact.
        """
        store = self.store
        if self._role == "primary":
            return (
                200,
                {
                    "role": "primary",
                    "epoch": store.epoch,
                    "last_lsn": store.last_lsn,
                    "already_primary": True,
                },
                _NO_HEADERS,
            )
        if self._role == "fenced":
            raise Refusal(409, {"error": "fenced", "epoch": store.fenced})
        started = self._clock()
        self._phase = "catching-up"
        replica = self._replica
        residual_lag = None
        if replica is not None:
            replica.stop()
            try:
                replica.pull_once(wait_s=0.0)
            except (StoreCorruptionError, StoreWriteError):
                pass  # dead or diverged upstream — promote from here
            residual_lag = replica.lag()
        try:
            epoch = store.bump_epoch()
        except StoreWriteError:
            # The claim never became durable: stay a follower, pulling
            # again.  A failed log refuses every write, a retried
            # promotion's included, until a restart recovers it.
            self._phase = "ready"
            if replica is not None:
                replica.start()
            raise
        self._replica = None
        self._role = "primary"
        self._primary_url = None
        self._phase = "ready"
        elapsed_ms = (self._clock() - started) * 1000.0
        live_add("replica.promotions")
        live_observe("replica.promotion_ms", elapsed_ms)
        live_gauge("replica.epoch", epoch)
        emit_event(
            "replica.promote",
            epoch=epoch,
            last_lsn=store.last_lsn,
            elapsed_ms=round(elapsed_ms, 3),
            residual_lag=residual_lag,
        )
        return (
            200,
            {
                "role": "primary",
                "epoch": epoch,
                "last_lsn": store.last_lsn,
                "promotion_ms": round(elapsed_ms, 3),
                "residual_lag": residual_lag,
            },
            _NO_HEADERS,
        )

    @_handler("store", "recovered")
    def handle_replica_fence(
        self, payload: Dict[str, object]
    ) -> Handled:
        """POST /v1/replica/fence — operator/peer demotion by epoch."""
        store = self.store
        epoch = int_field(payload, "epoch", 1, required=True)
        if not store.fence(epoch):
            raise Refusal(409, {
                "error": "stale-epoch",
                "epoch": store.epoch,
                "detail": (
                    f"own epoch {store.epoch} >= {epoch}; "
                    "refusing to fence the highest-epoch node"
                ),
            })
        if self._replica is not None:
            self._replica.stop()
            self._replica = None
        self._role = "fenced"
        live_add("replica.fenced")
        emit_event("replica.fence", epoch=epoch, reason="operator")
        return (
            200,
            {
                "role": "fenced",
                "fenced_by": epoch,
                "epoch": store.epoch,
                "last_lsn": store.last_lsn,
            },
            _NO_HEADERS,
        )

    def replication(self) -> Dict[str, object]:
        """JSON-ready replication status for ``/v1/replica/status``."""
        doc: Dict[str, object] = {
            "role": self._role,
            "phase": self._phase,
        }
        store = self.store
        if store is not None:
            doc["epoch"] = store.epoch
            doc["last_lsn"] = store.last_lsn
            doc["fenced_by"] = store.fenced
        replica = self._replica
        if replica is not None:
            doc["client"] = replica.stats()
            doc["max_stale_s"] = self._max_stale_s
        with self._lock:
            if self._followers:
                now = self._clock()
                followers = {}
                for name, info in self._followers.items():
                    entry = {
                        key: value
                        for key, value in info.items()
                        if not key.startswith("_")
                    }
                    entry["last_pull_age_s"] = round(
                        now - info["_last_pull_at"], 3
                    )
                    followers[name] = entry
                doc["followers"] = followers
        return doc

    @_handler()
    def handle_replica_status(self) -> Handled:
        return 200, self.replication(), _NO_HEADERS

    def begin_drain(self) -> None:
        """SIGTERM received: stop advertising readiness (idempotent)."""
        if self._phase == "draining":
            return
        self._phase = "draining"
        live_add("serve.drains")
        emit_event("serve.drain", role=self._role)

    # -- introspection endpoints, outside admission -------------------

    @_handler("ready")
    def handle_report(self, name: str) -> Handled:
        """GET /v1/db/<name>/report — inconsistency measures, computed
        under the admission policy's ``default_timeout_s``: a report
        that runs out of it answers 503 ``budget-exhausted``."""
        with self._lock:
            found = self._registered(name)
        timeout_s = self.admission.policy.default_timeout_s
        try:
            with use_budget(Budget(timeout=timeout_s, strict=True)):
                report = InconsistencyReport.of(
                    found.db, found.constraints
                )
        except BudgetExceededError as exc:
            raise Refusal(503, {
                "error": "budget-exhausted",
                "reason": str(exc.reason),
                "budget_s": timeout_s,
                "detail": (
                    f"the report on {name!r} did not finish within "
                    f"its {timeout_s:g}s budget"
                ),
            }) from exc
        ratio = report.violation_ratio
        return (
            200,
            {
                "db": name,
                "size": report.size,
                "repair_distance": report.repair_distance,
                "cardinality_measure": report.cardinality_measure,
                "g3": report.g3,
                # NaN (non-denial constraint mix) is not valid JSON.
                "violation_ratio": None if ratio != ratio else ratio,
                "per_constraint": dict(report.per_constraint),
            },
            _NO_HEADERS,
        )

    @_handler()
    def health(self) -> Handled:
        """Liveness *and* readiness: 503 with the phase while it is
        anything but ``ready`` — ``recovering``/``catching-up`` because
        answers could come from a half-recovered registry, and
        ``draining`` so load balancers stop routing during the drain
        window instead of only after close."""
        body: Dict[str, object] = {
            "status": "ok",
            "phase": self._phase,
            "role": self._role,
        }
        if self._phase != "ready":
            body["status"] = self._phase
            return 503, body, _NO_HEADERS
        if self.pool is not None:
            stats = self.pool.stats()
            body["pool"] = stats
            if stats["workers"] == 0 and not stats["draining"]:
                body["status"] = "degraded"
        if self.store is not None:
            body["store"] = self.store.stats()
            if self.store.failed is not None:
                body["status"] = "degraded"
        if self._role != "primary" or self._followers:
            body["replication"] = self.replication()
        body["tenants"] = self.admission.stats()
        return 200, body, _NO_HEADERS

    @_handler()
    def handle_status(self) -> Handled:
        """GET /status — the live plane's status document with the
        phase and role, and the operator's durability dashboard:
        snapshot age, WAL length, last-compaction stats, replication."""
        if live_installed():
            doc = dict(live_plane().status())
        else:
            doc = {"schema": None, "note": "live telemetry not installed"}
        doc["phase"] = self._phase
        doc["role"] = self._role
        if self.store is not None:
            doc["store"] = self.store.stats()
            doc["replication"] = self.replication()
        return 200, doc, _NO_HEADERS

    @_handler()
    def handle_metrics(self) -> Handled:
        """GET /metrics — the status document as Prometheus text."""
        return 200, prometheus_text(self.handle_status()[1]), _NO_HEADERS

    def close(self) -> None:
        """Stop replication, drain the pool, close the store; idempotent."""
        if self._replica is not None:
            self._replica.stop()
            self._replica = None
        if self.pool is not None:
            self.pool.drain()
        if self.store is not None:
            self.store.close()
