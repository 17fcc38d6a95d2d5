"""Durable tenant state: WAL + snapshots + crash-only recovery.

This package makes the service's database registry survive the
process.  Three pieces:

* :mod:`.wal` — a CRC32-framed append-only log of mutations
  (create/delete database, tuple insert/delete) with a configurable
  fsync policy.  A mutation is acknowledged only after its WAL append
  is durable per policy;
* :mod:`.snapshot` — periodic compaction of the log into
  content-addressed JSON snapshots keyed by the flight recorder's
  instance/constraint digests;
* :class:`TenantStore` (here) — the facade the
  :class:`~repro.serve.service.CQAService` talks to: ``recover()`` on
  startup (load latest valid snapshot, replay the WAL suffix, truncate
  a torn tail), ``append_*`` per mutation, automatic compaction every
  ``compact_every`` records.

Each change of state has one home: one commit step serves local
appends, replicated records and epoch bumps; one snapshot step serves
compaction and a follower's bootstrap; one replay serves ``recover()``
and :func:`verify_store`.

The recovery contract is *exactly the acknowledged prefix*: after a
kill -9 at any byte, restart yields the state produced by every
acknowledged mutation and no unacknowledged one.  A torn tail (the
frame a dying writer left incomplete) is truncated, never replayed;
mid-log corruption (a complete frame failing CRC with data behind it —
bit rot, not a tear) makes ``recover()`` *refuse* with
:class:`StoreCorruptionError` rather than silently serve a state with
acknowledged writes missing.  So does a replay whose records past the
loaded snapshot do not run on from its LSN by ones up to the LSN of
every snapshot file on disk (a corrupt snapshot's name still carries
its LSN).

The WAL doubles as the tuple-level delta stream Lopatenko–Bertossi
incremental repair semantics consume: every ``mutate`` record is an
``(insert, delete)`` fact-set pair against a known-good base state.

The same log is the unit of *replication*: every record and snapshot
carries a monotonically increasing fencing ``epoch``,
:meth:`TenantStore.records_since` streams the tail to followers (with
:meth:`TenantStore.state_transfer` as the snapshot-bootstrap fallback
once compaction has folded the requested range), and
:meth:`TenantStore.apply_replicated` is the follower-side apply loop —
idempotent under duplicated pulls, refusing gaps and lower-epoch
writers.  :meth:`TenantStore.fence` latches a demoted primary so its
appends raise :class:`FencedError` (split-brain acks are impossible:
at most one node holds the highest durable epoch and only it acks).
The latch is *durable*: engaging it writes a ``fenced.json`` marker
(atomic tmp + rename + dir fsync, like snapshots) that ``recover()``
reads back, so a fenced ex-primary that restarts stays fenced instead
of acking at its old epoch again.  It clears only when the directory's
history adopts the superseding lineage — a replicated record or
bootstrap at/above the fencing epoch (the rejoin-as-follower path).
"""

from __future__ import annotations

import copy
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ...errors import ReproError
from ...observability import add, span
from ...observability.export import fsync_dir, write_atomic
from ...observability.live import emit_event, live_add, live_observe
from .snapshot import (
    Snapshot,
    list_snapshots,
    load_latest_snapshot,
    prune_snapshots,
    state_digest,
    write_snapshot,
)
from .wal import (
    FSYNC_POLICIES,
    WalWriteError,
    WriteAheadLog,
    scan_wal,
    truncate_wal,
)

__all__ = [
    "FSYNC_POLICIES",
    "FencedError",
    "RecoveredState",
    "StoreCorruptionError",
    "StorePolicy",
    "StoreWriteError",
    "TenantStore",
    "apply_record",
    "inspect_store",
    "verify_store",
]

#: Re-export: the append-side failure the service maps to HTTP 503.
StoreWriteError = WalWriteError

WAL_FILE = "wal.log"
#: Durable fencing latch: present iff a higher-epoch writer superseded
#: this directory; read back by ``recover()`` so restarts stay fenced.
FENCE_FILE = "fenced.json"


class StoreCorruptionError(ReproError):
    """The log holds acknowledged records that cannot be recovered."""


class FencedError(StoreWriteError):
    """A higher-epoch writer exists; this node may not ack writes."""


@dataclass(frozen=True)
class StorePolicy:
    """Durability tunables (see README "Durability" for the tradeoffs)."""

    #: ``always`` | ``interval`` | ``never`` — when appends fsync.
    fsync: str = "interval"
    #: Appends between fsyncs under the ``interval`` policy.
    fsync_interval: int = 16
    #: WAL records between automatic compactions.
    compact_every: int = 256
    #: Snapshot generations kept on disk after a compaction.
    snapshots_kept: int = 2
    #: Truncate past mid-log corruption instead of refusing recovery
    #: (forensics/repair mode only; loses acknowledged records).
    allow_corruption: bool = False


@dataclass
class RecoveredState:
    """What :meth:`TenantStore.recover` re-established."""

    specs: Dict[str, Dict[str, object]]
    last_lsn: int
    snapshot_lsn: int
    records_replayed: int
    torn_bytes_truncated: int
    corrupt_bytes_dropped: int
    state_digest: str
    elapsed_s: float
    epoch: int = 0
    fenced_by: Optional[int] = None
    problems: List[str] = field(default_factory=list)


def _check_record(
    specs: Dict[str, Dict[str, object]], record: Dict[str, object]
) -> None:
    """Raise :class:`StoreCorruptionError` unless *record* applies to
    *specs*: a known op, a ``mutate`` against a known database, every
    inserted row into one of its relations.  Changes nothing."""
    op = record.get("op")
    name = record.get("db")
    # "epoch" is the fencing marker: durable but state-neutral.
    if op not in ("put_db", "del_db", "mutate", "epoch"):
        raise StoreCorruptionError(
            f"lsn {record.get('lsn')}: unknown op {op!r}"
        )
    if op != "mutate":
        return
    spec = specs.get(name)
    if spec is None:
        raise StoreCorruptionError(
            f"lsn {record.get('lsn')}: mutate against unknown "
            f"database {name!r}"
        )
    relations = spec.get("relations", {})
    for rel_name, *_values in record.get("insert") or ():
        if rel_name not in relations:
            raise StoreCorruptionError(
                f"lsn {record.get('lsn')}: insert into unknown "
                f"relation {rel_name!r} of {name!r}"
            )


def apply_record(
    specs: Dict[str, Dict[str, object]], record: Dict[str, object]
) -> None:
    """Apply one WAL record to a spec map, in place.

    A record :func:`_check_record` refuses raises before anything
    changes.  Set semantics mirror
    :class:`~repro.relational.database.Database`: inserting a present
    row is a no-op, deleting an absent one too — so replaying an
    acknowledged prefix is idempotent per record.
    """
    _check_record(specs, record)
    op = record.get("op")
    name = record.get("db")
    if op == "put_db":
        specs[name] = copy.deepcopy(record["spec"])
    elif op == "del_db":
        specs.pop(name, None)
    elif op == "mutate":
        relations = specs[name].get("relations", {})
        for rel_name, *values in record.get("delete") or ():
            rel = relations.get(rel_name)
            if rel is None:
                continue
            rel["rows"] = [row for row in rel["rows"] if row != values]
        for rel_name, *values in record.get("insert") or ():
            rows = relations[rel_name]["rows"]
            if values not in rows:
                rows.append(values)


def _epoch_of(record: Dict[str, object]) -> int:
    """The fencing epoch *record* carries (0 when absent or not an int)."""
    epoch = record.get("epoch", 0)
    return epoch if isinstance(epoch, int) else 0


class _Replay:
    """The newest readable snapshot plus the WAL records past it, which
    :meth:`TenantStore.recover` and :func:`verify_store` share.

    ``gap`` (None when nothing is missing) says that acknowledged
    records are in neither a readable snapshot nor the WAL: the records
    past the snapshot must start at its LSN + 1, rise by one, and reach
    the LSN of every snapshot file on disk.
    """

    def __init__(self, data_dir: str) -> None:
        self.data_dir = data_dir
        self.snapshot = load_latest_snapshot(data_dir)
        # Freshly parsed and owned by nobody else: applied in place.
        self.specs = self.snapshot.specs if self.snapshot else {}
        self.snapshot_lsn = self.snapshot.lsn if self.snapshot else 0
        self.last_lsn = self.snapshot_lsn
        self.epoch = self.snapshot.epoch if self.snapshot else 0
        self.applied: List[Dict[str, object]] = []
        self.gap: Optional[str] = None

    def apply(self, records: List[Dict[str, object]]) -> None:
        for record in records:
            self.epoch = max(self.epoch, _epoch_of(record))
            if record["lsn"] <= self.snapshot_lsn:
                continue  # folded into the snapshot already
            apply_record(self.specs, record)
            self.applied.append(record)
            self.last_lsn = record["lsn"]
        # The scan keeps LSNs strictly rising, so the applied records
        # are contiguous exactly when they are as many as they span.
        on_disk = [lsn for lsn, _ in list_snapshots(self.data_dir)]
        reach = max([self.last_lsn] + on_disk)
        if self.snapshot_lsn + len(self.applied) < reach:
            self.gap = (
                f"{self.data_dir}: acknowledged records up to lsn {reach} "
                "are in neither a readable snapshot nor the WAL (the "
                f"newest readable snapshot is at lsn {self.snapshot_lsn}, "
                f"and {len(self.applied)} WAL record(s) follow it)"
            )


class TenantStore:
    """Durable mirror of the service's database registry.

    All methods are thread-safe; appends are serialized under one lock
    (group commit is a future refinement — at the serve layer's request
    rates a single fsync stream is nowhere near the bottleneck, see
    ``benchmarks/bench_store.py``).
    """

    def __init__(
        self,
        data_dir,
        policy: Optional[StorePolicy] = None,
        clock=time.monotonic,
    ) -> None:
        self.data_dir = os.fspath(data_dir)
        self.policy = policy or StorePolicy()
        self._clock = clock
        self._lock = threading.Lock()
        #: Signalled on every applied record; backs ``wait_for_lsn``
        #: (long-poll shipping, follower read-your-writes waits).
        self._applied = threading.Condition(self._lock)
        self._specs: Dict[str, Dict[str, object]] = {}
        self._last_lsn = 0
        self._epoch = 0
        self._fenced_by: Optional[int] = None
        #: Records since the snapshot, in LSN order — the shippable
        #: tail.  Bounded by ``compact_every`` (cleared on compaction).
        self._tail: List[Dict[str, object]] = []
        self._snapshot_lsn = 0
        self._snapshot_digest: Optional[str] = None
        self._snapshot_at: Optional[float] = None
        self._records_since_snapshot = 0
        self._last_compaction: Optional[Dict[str, object]] = None
        self._recovery: Optional[RecoveredState] = None
        self._wal: Optional[WriteAheadLog] = None

    @property
    def wal_path(self) -> str:
        return os.path.join(self.data_dir, WAL_FILE)

    @property
    def fence_path(self) -> str:
        return os.path.join(self.data_dir, FENCE_FILE)

    def _persist_fence_locked(self) -> None:
        """Write the fencing latch durably (atomic, like snapshots).

        Best-effort on I/O failure: the in-memory latch already
        engaged (refusing acks needs no disk), so a marker that could
        not be written degrades durability of the *restart* guarantee
        only — loudly, via the event log.
        """
        marker = {"fenced_by": self._fenced_by, "epoch": self._epoch}
        try:
            write_atomic(
                self.fence_path,
                lambda handle: handle.write(json.dumps(marker) + "\n"),
                durable=True,
            )
        except OSError as exc:
            add("store.fence_persist_failures")
            emit_event(
                "store.fence_persist_failed",
                fenced_by=self._fenced_by,
                error=f"{type(exc).__name__}: {exc}",
            )

    def _release_fence_locked(self) -> None:
        """Clear the latch once our epoch reached the fencing epoch: the
        directory adopted the superseding lineage."""
        if self._fenced_by is None or self._epoch < self._fenced_by:
            return
        self._fenced_by = None
        try:
            os.unlink(self.fence_path)
        except OSError:
            pass  # absent, or stale: recover() ignores it at this epoch
        else:
            fsync_dir(self.fence_path)

    def _read_fence_marker(self) -> Optional[int]:
        try:
            with open(self.fence_path, "r", encoding="utf-8") as handle:
                fenced_by = json.load(handle).get("fenced_by")
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            emit_event(
                "store.fence_marker_unreadable",
                error=f"{type(exc).__name__}: {exc}",
            )
            return None
        return fenced_by if isinstance(fenced_by, int) else None

    @property
    def recovered(self) -> Optional[RecoveredState]:
        return self._recovery

    # -- recovery ------------------------------------------------------

    def recover(self) -> RecoveredState:
        """Snapshot → replay → torn-tail truncation → ready.

        Raises :class:`StoreCorruptionError` on mid-log corruption or
        on records neither a snapshot nor the WAL holds (unless the
        policy allows it), so acknowledged-write loss is refused, never
        silent, and changes nothing on disk.
        """
        with self._lock, span("store.recover"):
            started = self._clock()
            os.makedirs(self.data_dir, exist_ok=True)
            live_add("store.recoveries")
            problems: List[str] = []
            scan = scan_wal(self.wal_path)
            if scan.corrupt:
                problems.append(
                    f"{self.wal_path}: {scan.detail} — complete frames "
                    "behind the bad one mean acknowledged records would "
                    "be lost"
                )
            replay = _Replay(self.data_dir)
            replay.apply(scan.records)
            if replay.gap is not None:
                problems.append(replay.gap)
            if problems and not self.policy.allow_corruption:
                raise StoreCorruptionError(problems[0])
            dropped = 0
            if scan.corrupt:
                dropped = scan.total_bytes - scan.good_bytes
                truncate_wal(self.wal_path, scan.good_bytes)
                emit_event(
                    "store.truncate",
                    bytes=dropped,
                    reason="corruption-allowed",
                )
            torn = 0
            if scan.torn:
                torn = truncate_wal(self.wal_path, scan.good_bytes)
                problems.append(
                    f"torn tail truncated ({torn} byte(s): {scan.detail})"
                )
                emit_event(
                    "store.truncate", bytes=torn, reason="torn-tail"
                )
            replayed = len(replay.applied)
            add("store.records_replayed", replayed)
            fenced_by = self._read_fence_marker()
            if fenced_by is not None and fenced_by <= replay.epoch:
                # The directory's history already adopted the
                # superseding lineage (rejoined as a follower and
                # replayed records at/above the fencing epoch): the
                # latch is spent.
                fenced_by = None
            digest, _per_db = state_digest(replay.specs)
            elapsed = self._clock() - started
            self._specs = replay.specs
            self._last_lsn = replay.last_lsn
            self._epoch = replay.epoch
            self._fenced_by = fenced_by
            if fenced_by is None:
                try:
                    os.unlink(self.fence_path)
                except OSError:
                    pass
            self._tail = replay.applied
            self._snapshot_lsn = replay.snapshot_lsn
            snapshot = replay.snapshot
            self._snapshot_digest = snapshot.digest if snapshot else None
            self._snapshot_at = self._clock() if snapshot else None
            self._records_since_snapshot = replayed
            self._wal = WriteAheadLog(
                self.wal_path,
                fsync=self.policy.fsync,
                fsync_interval=self.policy.fsync_interval,
            ).open(at_bytes=scan.good_bytes)
            self._recovery = RecoveredState(
                specs=replay.specs,
                last_lsn=replay.last_lsn,
                snapshot_lsn=replay.snapshot_lsn,
                records_replayed=replayed,
                torn_bytes_truncated=torn,
                corrupt_bytes_dropped=dropped,
                state_digest=digest,
                elapsed_s=elapsed,
                epoch=replay.epoch,
                fenced_by=fenced_by,
                problems=problems,
            )
            live_observe("store.recovery_ms", elapsed * 1000.0)
            emit_event(
                "store.recover",
                databases=len(replay.specs),
                replayed=replayed,
                last_lsn=replay.last_lsn,
                snapshot_lsn=replay.snapshot_lsn,
                torn_bytes=torn,
                digest=digest[:12],
            )
            return self._recovery

    # -- durable appends ----------------------------------------------

    def _check_recovered(self) -> None:
        if self._wal is None:
            raise StoreWriteError(
                "store is not recovered; call recover() first"
            )

    def _commit_locked(self, record: Dict[str, object], sync=False) -> None:
        """The one commit step, for a record its caller stamped and
        guarded: check against the mirror, WAL append (``sync`` forces
        the fsync), mirror, LSN and epoch, shipping tail, compaction
        when due, wake-ups.  A record the mirror refuses raises
        :class:`StoreCorruptionError` before the append, so it writes
        nothing.  A failed append or fsync fails the log (its file may
        hold the record, so no later record may take that LSN) and
        raises :class:`StoreWriteError` with nothing changed in
        memory."""
        _check_record(self._specs, record)
        self._wal.append(record)
        if sync:
            try:
                self._wal.sync()
            except OSError as exc:
                self._wal.failed = str(exc)
                raise StoreWriteError(f"fsync of lsn {record['lsn']}: {exc}")
        apply_record(self._specs, record)
        self._last_lsn = record["lsn"]
        self._epoch = max(self._epoch, _epoch_of(record))
        self._tail.append(record)
        self._records_since_snapshot += 1
        if self._records_since_snapshot >= self.policy.compact_every:
            self._compact_locked()
        self._applied.notify_all()

    def _append(self, record: Dict[str, object]) -> int:
        """Commit *record* at the next LSN and the current epoch.
        Caller holds no lock; raises :class:`StoreWriteError` (no ack,
        no state change) on any durability failure."""
        with self._lock:
            self._check_recovered()
            if self._fenced_by is not None:
                live_add("replica.fenced_rejects")
                raise FencedError(
                    f"fenced: epoch {self._fenced_by} supersedes "
                    f"{self._epoch}; this node may not ack writes"
                )
            lsn = self._last_lsn + 1
            self._commit_locked(dict(record, lsn=lsn, epoch=self._epoch))
            return lsn

    def append_put_db(self, name: str, spec: Dict[str, object]) -> int:
        return self._append({"op": "put_db", "db": name, "spec": spec})

    def append_del_db(self, name: str) -> int:
        return self._append({"op": "del_db", "db": name})

    def append_mutate(
        self,
        name: str,
        insert: List[List[object]],
        delete: List[List[object]],
    ) -> int:
        return self._append(
            {
                "op": "mutate",
                "db": name,
                "insert": insert,
                "delete": delete,
            }
        )

    # -- replication ---------------------------------------------------

    @property
    def last_lsn(self) -> int:
        return self._last_lsn

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def fenced(self) -> Optional[int]:
        """The superseding epoch this node was fenced by, or None."""
        return self._fenced_by

    def bump_epoch(self) -> int:
        """Durably claim the next epoch (promotion); returns it.

        The claim is a WAL record synced to disk regardless of the
        fsync policy: a primary that acked writes under epoch *e* must
        never reboot believing it is still entitled to epoch *e* after
        a successor claimed *e+1* through it.
        """
        with self._lock:
            self._check_recovered()
            if self._fenced_by is not None:
                raise FencedError(
                    f"fenced by epoch {self._fenced_by}; a fenced node "
                    "cannot claim a new epoch without operator intent"
                )
            epoch = self._epoch + 1
            self._commit_locked(
                {"op": "epoch", "lsn": self._last_lsn + 1, "epoch": epoch},
                sync=True,
            )
            live_add("store.epoch_bumps")
            return self._epoch

    def fence(self, epoch: int) -> bool:
        """Latch the store against a higher-epoch writer — durably.

        Returns True when the latch engaged (``epoch`` strictly
        exceeds our own); False means the caller's epoch is stale and
        *they* should fence instead.  Idempotent and crash-surviving:
        the latch is persisted as a ``fenced.json`` marker that
        ``recover()`` restores, so a fenced ex-primary never reboots
        back into acking at its old epoch.  It clears only when this
        directory's history adopts records at/above the fencing epoch
        (:meth:`apply_replicated` / :meth:`install_state` — the
        rejoin-as-follower path).
        """
        with self._lock:
            if epoch <= self._epoch and self._fenced_by is None:
                return False
            if self._fenced_by is None or epoch > self._fenced_by:
                self._fenced_by = epoch
                self._persist_fence_locked()
            return True

    def records_since(
        self, from_lsn: int
    ) -> Optional[List[Dict[str, object]]]:
        """Shippable records with ``lsn > from_lsn``, in order.

        Returns None when the range predates the in-memory tail
        (compaction folded it): the follower must bootstrap from
        :meth:`state_transfer` instead.
        """
        with self._lock:
            if from_lsn >= self._last_lsn:
                return []
            if from_lsn < self._snapshot_lsn or (
                self._tail
                and from_lsn < self._tail[0]["lsn"] - 1
            ):
                return None
            return [
                copy.deepcopy(record)
                for record in self._tail
                if record["lsn"] > from_lsn
            ]

    def state_transfer(self) -> Dict[str, object]:
        """Full-state bootstrap payload for a new/lagging follower."""
        with self._lock:
            add("replica.state_transfers")
            return {
                "databases": copy.deepcopy(self._specs),
                "lsn": self._last_lsn,
                "epoch": self._epoch,
                "state_digest": state_digest(self._specs)[0],
            }

    def apply_replicated(self, record: Dict[str, object]) -> bool:
        """Follower apply loop: replay one shipped record durably.

        Preserves the primary's LSN and epoch.  Duplicates
        (``lsn <= last_lsn``, from a retried/duplicated pull) are
        skipped idempotently (returns False); a gap means the stream
        desynchronized and raises :class:`StoreCorruptionError`; a
        record from a *lower* epoch than ours is a fenced writer's and
        raises :class:`FencedError`.
        """
        with self._lock:
            self._check_recovered()
            lsn = record.get("lsn")
            if not isinstance(lsn, int) or lsn <= 0:
                raise StoreCorruptionError(
                    f"replicated record without a valid lsn: {record!r}"
                )
            # Stale-writer guard, both forms: a record older than what
            # we have already applied, or older than the epoch we were
            # explicitly fenced by (the fence may name an epoch no
            # record has reached us from yet).
            record_epoch = _epoch_of(record)
            floor = max(self._epoch, self._fenced_by or 0)
            if record_epoch < floor:
                live_add("replica.fenced_rejects")
                raise FencedError(
                    f"record lsn {lsn} from stale epoch "
                    f"{record_epoch} < {floor}"
                )
            if lsn <= self._last_lsn:
                live_add("store.duplicate_skipped")
                return False
            if lsn != self._last_lsn + 1:
                raise StoreCorruptionError(
                    f"replication gap: expected lsn "
                    f"{self._last_lsn + 1}, got {lsn}"
                )
            self._commit_locked(dict(record))
            self._release_fence_locked()
            return True

    def install_state(
        self,
        specs: Dict[str, Dict[str, object]],
        lsn: int,
        epoch: int,
    ) -> None:
        """Adopt a :meth:`state_transfer` payload (snapshot bootstrap).

        Crash-safe like compaction: the snapshot is written atomically
        *before* the WAL resets, so a kill between the two replays
        pre-bootstrap records, sees their LSNs folded into the
        snapshot, and skips them.  A WAL reaching past *lsn* (a
        superseded lineage rejoining) is emptied first instead.
        """
        with self._lock:
            self._check_recovered()
            if self._fenced_by is not None and epoch < self._fenced_by:
                live_add("replica.fenced_rejects")
                raise FencedError(
                    f"bootstrap from stale epoch {epoch} < "
                    f"{self._fenced_by}"
                )
            specs = copy.deepcopy(specs)
            if self._last_lsn > lsn:
                self._wal.reset()
            self._snapshot_locked(
                specs, lsn, epoch, {"bootstrap": True, "at_lsn": lsn}
            )
            self._specs = specs
            self._last_lsn = lsn
            self._epoch = epoch
            self._release_fence_locked()
            live_add("replica.bootstraps")
            self._applied.notify_all()

    def wait_for_lsn(self, lsn: int, timeout_s: float) -> bool:
        """Block until ``last_lsn >= lsn`` or the timeout elapses."""
        deadline = self._clock() + max(0.0, timeout_s)
        with self._applied:
            while self._last_lsn < lsn:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    return False
                self._applied.wait(min(remaining, 0.5))
            return True

    # -- compaction ----------------------------------------------------

    def compact(self) -> Dict[str, object]:
        """Fold the WAL into a fresh snapshot now; returns its stats."""
        with self._lock:
            return self._compact_locked()

    def _snapshot_locked(
        self,
        specs: Dict[str, Dict[str, object]],
        lsn: int,
        epoch: int,
        compaction: Dict[str, object],
    ) -> Snapshot:
        """The one snapshot step: write *specs* as the state at *lsn*,
        reset the WAL, prune, and start a new tail.

        The snapshot is durable before the WAL resets, so a crash
        between the two replays records the snapshot holds and skips
        them.  Every other snapshot at or above *lsn* goes before the
        prune: it belongs to a history a bootstrap replaced.
        """
        snapshot = write_snapshot(
            self.data_dir, specs, lsn, compaction=compaction, epoch=epoch
        )
        if self._wal is not None:
            self._wal.reset()
        for other_lsn, path in list_snapshots(self.data_dir):
            if other_lsn >= lsn and path != snapshot.path:
                os.remove(path)
        prune_snapshots(self.data_dir, keep=self.policy.snapshots_kept)
        self._tail = []
        self._snapshot_lsn = lsn
        self._snapshot_digest = snapshot.digest
        self._snapshot_at = self._clock()
        self._records_since_snapshot = 0
        return snapshot

    def _compact_locked(self) -> Dict[str, object]:
        started = self._clock()
        with span("store.compact"):
            folded = self._records_since_snapshot
            # No copy: write_snapshot only reads the mirror, under the
            # lock every change to it takes.
            snapshot = self._snapshot_locked(
                self._specs,
                self._last_lsn,
                self._epoch,
                {"records_folded": folded, "at_lsn": self._last_lsn},
            )
        elapsed = self._clock() - started
        self._last_compaction = {
            "at_lsn": snapshot.lsn,
            "records_folded": folded,
            "elapsed_ms": round(elapsed * 1000.0, 3),
            "digest": snapshot.digest[:12],
        }
        live_add("store.compactions")
        emit_event(
            "store.compact",
            at_lsn=snapshot.lsn,
            records_folded=folded,
            elapsed_ms=round(elapsed * 1000.0, 3),
        )
        return dict(self._last_compaction)

    # -- introspection -------------------------------------------------

    def current_state_digest(self) -> str:
        """Digest of the in-memory mirror (recomputed, not cached)."""
        with self._lock:
            digest, _ = state_digest(self._specs)
            return digest

    def stats(self) -> Dict[str, object]:
        """JSON-ready durability stats for ``/status`` and health."""
        with self._lock:
            wal = self._wal
            snapshot_age = (
                round(self._clock() - self._snapshot_at, 3)
                if self._snapshot_at is not None
                else None
            )
            recovery = None
            if self._recovery is not None:
                recovery = {
                    "records_replayed": self._recovery.records_replayed,
                    "torn_bytes_truncated": (
                        self._recovery.torn_bytes_truncated
                    ),
                    "elapsed_ms": round(
                        self._recovery.elapsed_s * 1000.0, 3
                    ),
                    "state_digest": self._recovery.state_digest[:12],
                }
            return {
                "data_dir": self.data_dir,
                "fsync": self.policy.fsync,
                "databases": len(self._specs),
                "last_lsn": self._last_lsn,
                "epoch": self._epoch,
                "fenced_by": self._fenced_by,
                "tail_records": len(self._tail),
                "wal": {
                    "records_since_snapshot": (
                        self._records_since_snapshot
                    ),
                    "size_bytes": wal.size_bytes if wal else None,
                    "appended": wal.appended if wal else 0,
                    "failed": wal.failed if wal else None,
                },
                "snapshot": {
                    "lsn": self._snapshot_lsn,
                    "digest": (
                        self._snapshot_digest[:12]
                        if self._snapshot_digest
                        else None
                    ),
                    "age_s": snapshot_age,
                },
                "last_compaction": self._last_compaction,
                "recovery": recovery,
            }

    @property
    def failed(self) -> Optional[str]:
        """Why the store refuses writes, or None while healthy."""
        wal = self._wal
        return wal.failed if wal is not None else None

    def close(self) -> None:
        with self._lock:
            if self._wal is not None:
                self._wal.close()
                self._wal = None


# -- offline tools (the ``repro store`` CLI family) --------------------


def inspect_store(data_dir) -> Dict[str, object]:
    """Read-only description of a data directory (no recovery run)."""
    data_dir = os.fspath(data_dir)
    wal_path = os.path.join(data_dir, WAL_FILE)
    scan = scan_wal(wal_path)
    by_op: Dict[str, int] = {}
    for record in scan.records:
        op = str(record.get("op"))
        by_op[op] = by_op.get(op, 0) + 1
    snapshots = [
        {"lsn": lsn, "path": os.path.basename(path)}
        for lsn, path in list_snapshots(data_dir)
    ]
    return {
        "data_dir": data_dir,
        "wal": {
            "records": len(scan.records),
            "by_op": dict(sorted(by_op.items())),
            "good_bytes": scan.good_bytes,
            "total_bytes": scan.total_bytes,
            "torn": scan.torn,
            "corrupt": scan.corrupt,
            "detail": scan.detail,
            "first_lsn": (
                scan.records[0]["lsn"] if scan.records else None
            ),
            "last_lsn": (
                scan.records[-1]["lsn"] if scan.records else None
            ),
        },
        "snapshots": snapshots,
    }


def verify_store(data_dir) -> Dict[str, object]:
    """Full verification: CRC chain, snapshot digests, clean replay.

    ``ok`` is False exactly when recovery would lose acknowledged
    records: mid-log corruption, a replay that fails, or a replay that
    cannot account for every acknowledged LSN (the rule ``recover()``
    refuses on).  A torn tail is *repairable* (a crash artifact
    recovery truncates) and is reported without failing verification.
    """
    data_dir = os.fspath(data_dir)
    problems: List[str] = []
    repairable: List[str] = []
    scan = scan_wal(os.path.join(data_dir, WAL_FILE))
    if scan.corrupt:
        problems.append(f"wal: {scan.detail}")
    elif scan.torn:
        repairable.append(f"wal torn tail: {scan.detail}")
    replay = _Replay(data_dir)
    digest = None
    try:
        replay.apply(scan.records)
        digest, _ = state_digest(replay.specs)
    except Exception as exc:  # noqa: BLE001 — verification must report
        problems.append(f"replay failed: {exc}")
    if replay.gap is not None:
        problems.append(replay.gap)
    snapshot = replay.snapshot
    return {
        "data_dir": data_dir,
        "ok": not problems,
        "problems": problems,
        "repairable": repairable,
        "snapshot_lsn": replay.snapshot_lsn,
        "snapshot_digest": snapshot.digest if snapshot else None,
        "records_replayed": len(replay.applied),
        "last_lsn": replay.last_lsn,
        "epoch": replay.epoch,
        "state_digest": digest,
        "databases": {
            name: {
                "facts": sum(
                    len(rel.get("rows", []))
                    for rel in spec.get("relations", {}).values()
                ),
            }
            for name, spec in sorted(replay.specs.items())
        },
    }
