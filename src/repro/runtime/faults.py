"""Deterministic fault injection for the stress-test harness.

A :class:`FaultPlan` simulates the three failure classes the runtime
layer must degrade gracefully under:

* **deadline expiry** — after a configured number of checkpoint calls,
  every active budget behaves as if its wall clock ran out;
* **step starvation** — same trigger, but reported as step exhaustion;
* **transient SQLite failures** — the rewriting backend's
  :func:`repro.relational.sqlbridge.run_sql` raises
  :class:`~repro.errors.TransientBackendError` with a seed-driven
  probability, exercising the retry/backoff path;
* **storage faults** — the durable store's WAL
  (:mod:`repro.serve.store.wal`) routes every frame write through
  :func:`storage_write` and every fsync through :func:`storage_fsync`,
  so a plan can inject short writes (the frame is cut to a prefix and
  the append fails un-acked), silent bit flips (the frame lands whole
  but corrupted — acked, then caught by CRC at recovery), and fsync
  failures, all on the same seeded schedule.

Everything is driven by one ``random.Random(seed)``: the same seed and
the same call sequence inject the same faults, so stress tests assert
exact outcomes.  Plans install via the :func:`inject` context manager;
with no plan installed every hook is a global read.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from ..errors import TransientBackendError
from ..observability import add
from . import budget as _budget
from .budget import BudgetExhaustion

__all__ = [
    "FaultPlan",
    "active_plan",
    "inject",
    "sqlite_attempt",
    "storage_fsync",
    "storage_write",
]


class FaultPlan:
    """A deterministic schedule of injected faults.

    ``expire_deadline_after`` / ``starve_steps_after`` are checkpoint
    counts after which every budget checkpoint reports deadline/step
    exhaustion.  ``sqlite_failure_rate`` is the per-attempt probability
    of a transient backend error, capped at ``max_sqlite_failures``
    total injections (None = unlimited).

    The ``storage_*_rate`` knobs are per-write (or per-fsync)
    probabilities of the corresponding storage fault, jointly capped at
    ``max_storage_faults`` total injections.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        expire_deadline_after: Optional[int] = None,
        starve_steps_after: Optional[int] = None,
        sqlite_failure_rate: float = 0.0,
        max_sqlite_failures: Optional[int] = None,
        storage_short_write_rate: float = 0.0,
        storage_bitflip_rate: float = 0.0,
        storage_fsync_fail_rate: float = 0.0,
        max_storage_faults: Optional[int] = None,
    ) -> None:
        if not 0.0 <= sqlite_failure_rate <= 1.0:
            raise ValueError("sqlite_failure_rate must be in [0, 1]")
        for label, rate in (
            ("storage_short_write_rate", storage_short_write_rate),
            ("storage_bitflip_rate", storage_bitflip_rate),
            ("storage_fsync_fail_rate", storage_fsync_fail_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{label} must be in [0, 1]")
        self.seed = seed
        self.expire_deadline_after = expire_deadline_after
        self.starve_steps_after = starve_steps_after
        self.sqlite_failure_rate = sqlite_failure_rate
        self.max_sqlite_failures = max_sqlite_failures
        self.storage_short_write_rate = storage_short_write_rate
        self.storage_bitflip_rate = storage_bitflip_rate
        self.storage_fsync_fail_rate = storage_fsync_fail_rate
        self.max_storage_faults = max_storage_faults
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.checkpoints_seen = 0
        self.sqlite_attempts = 0
        self.sqlite_failures_injected = 0
        self.storage_writes = 0
        self.storage_faults_injected = 0

    # -- flight-recorder snapshot/restore ------------------------------

    def snapshot(self) -> dict:
        """JSON-ready full state: parameters, counters, and the RNG.

        Captured at request start by the flight recorder so replay can
        resume the injection schedule exactly where it stood — a plan
        shared across many requests injects different faults per
        request, and a mid-stream capture must replay *its* faults, not
        the first request's.
        """
        with self._lock:
            version, internal, gauss_next = self._rng.getstate()
            return {
                "seed": self.seed,
                "expire_deadline_after": self.expire_deadline_after,
                "starve_steps_after": self.starve_steps_after,
                "sqlite_failure_rate": self.sqlite_failure_rate,
                "max_sqlite_failures": self.max_sqlite_failures,
                "storage_short_write_rate": self.storage_short_write_rate,
                "storage_bitflip_rate": self.storage_bitflip_rate,
                "storage_fsync_fail_rate": self.storage_fsync_fail_rate,
                "max_storage_faults": self.max_storage_faults,
                "checkpoints_seen": self.checkpoints_seen,
                "sqlite_attempts": self.sqlite_attempts,
                "sqlite_failures_injected": self.sqlite_failures_injected,
                "storage_writes": self.storage_writes,
                "storage_faults_injected": self.storage_faults_injected,
                "rng_state": [version, list(internal), gauss_next],
            }

    @staticmethod
    def restore(snapshot: dict) -> "FaultPlan":
        """Rebuild a plan from a :meth:`snapshot` (deterministic replay).

        Keys this plan no longer knows are ignored, so a snapshot that
        still carries the removed replica-fault knobs (all zero, since
        nothing set them) restores the same schedule.
        """
        plan = FaultPlan(
            seed=int(snapshot.get("seed", 0)),
            expire_deadline_after=snapshot.get("expire_deadline_after"),
            starve_steps_after=snapshot.get("starve_steps_after"),
            sqlite_failure_rate=float(
                snapshot.get("sqlite_failure_rate") or 0.0
            ),
            max_sqlite_failures=snapshot.get("max_sqlite_failures"),
            storage_short_write_rate=float(
                snapshot.get("storage_short_write_rate") or 0.0
            ),
            storage_bitflip_rate=float(
                snapshot.get("storage_bitflip_rate") or 0.0
            ),
            storage_fsync_fail_rate=float(
                snapshot.get("storage_fsync_fail_rate") or 0.0
            ),
            max_storage_faults=snapshot.get("max_storage_faults"),
        )
        plan.checkpoints_seen = int(snapshot.get("checkpoints_seen", 0))
        plan.sqlite_attempts = int(snapshot.get("sqlite_attempts", 0))
        plan.sqlite_failures_injected = int(
            snapshot.get("sqlite_failures_injected", 0)
        )
        plan.storage_writes = int(snapshot.get("storage_writes", 0))
        plan.storage_faults_injected = int(
            snapshot.get("storage_faults_injected", 0)
        )
        rng_state = snapshot.get("rng_state")
        if rng_state:
            version, internal, gauss_next = rng_state
            plan._rng.setstate(
                (int(version), tuple(int(x) for x in internal), gauss_next)
            )
        return plan

    # -- hooks (called by budget.checkpoint / sqlbridge.run_sql) -------

    def _on_checkpoint(self) -> Optional[BudgetExhaustion]:
        with self._lock:
            self.checkpoints_seen += 1
            seen = self.checkpoints_seen
        if (
            self.expire_deadline_after is not None
            and seen > self.expire_deadline_after
        ):
            add("runtime.faults.deadline_injected")
            return BudgetExhaustion.DEADLINE
        if (
            self.starve_steps_after is not None
            and seen > self.starve_steps_after
        ):
            add("runtime.faults.starvation_injected")
            return BudgetExhaustion.STEPS
        return None

    def _on_sqlite_attempt(self) -> None:
        """Raise a transient backend error per the seeded schedule."""
        if self.sqlite_failure_rate <= 0.0:
            return
        with self._lock:
            self.sqlite_attempts += 1
            if (
                self.max_sqlite_failures is not None
                and self.sqlite_failures_injected
                >= self.max_sqlite_failures
            ):
                return
            if self._rng.random() >= self.sqlite_failure_rate:
                return
            self.sqlite_failures_injected += 1
        add("runtime.faults.sqlite_injected")
        raise TransientBackendError(
            "injected transient SQLite failure "
            f"(#{self.sqlite_failures_injected}, seed={self.seed})"
        )

    def _storage_budget_spent(self) -> bool:
        return (
            self.max_storage_faults is not None
            and self.storage_faults_injected >= self.max_storage_faults
        )

    def _on_storage_write(self, data: bytes) -> bytes:
        """Possibly corrupt one WAL frame write, per the seeded schedule.

        Returns the bytes the writer should actually put on disk: a
        strict prefix for a short write (the caller detects the length
        mismatch and fails the append un-acked) or a bit-flipped copy
        of the full frame (silent — the ack stands, and recovery's CRC
        scan is what must catch it).
        """
        with self._lock:
            self.storage_writes += 1
            if self._storage_budget_spent() or len(data) == 0:
                return data
            if (
                self.storage_short_write_rate > 0.0
                and self._rng.random() < self.storage_short_write_rate
            ):
                self.storage_faults_injected += 1
                cut = self._rng.randrange(len(data))
                add("runtime.faults.storage_short_write_injected")
                return data[:cut]
            if (
                self.storage_bitflip_rate > 0.0
                and self._rng.random() < self.storage_bitflip_rate
            ):
                self.storage_faults_injected += 1
                position = self._rng.randrange(len(data))
                bit = 1 << self._rng.randrange(8)
                add("runtime.faults.storage_bitflip_injected")
                flipped = bytearray(data)
                flipped[position] ^= bit
                return bytes(flipped)
        return data

    def _on_storage_fsync(self) -> None:
        """Raise an injected fsync failure per the seeded schedule."""
        if self.storage_fsync_fail_rate <= 0.0:
            return
        with self._lock:
            if self._storage_budget_spent():
                return
            if self._rng.random() >= self.storage_fsync_fail_rate:
                return
            self.storage_faults_injected += 1
        add("runtime.faults.storage_fsync_injected")
        raise OSError(
            "injected fsync failure "
            f"(#{self.storage_faults_injected}, seed={self.seed})"
        )


_PLAN: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    """The installed fault plan, or None."""
    return _PLAN


def sqlite_attempt() -> None:
    """Fault hook for the SQLite backend (no-op without a plan)."""
    plan = _PLAN
    if plan is not None:
        plan._on_sqlite_attempt()


def storage_write(data: bytes) -> bytes:
    """Fault hook for WAL frame writes (identity without a plan)."""
    plan = _PLAN
    if plan is not None:
        return plan._on_storage_write(data)
    return data


def storage_fsync() -> None:
    """Fault hook for WAL fsyncs (no-op without a plan)."""
    plan = _PLAN
    if plan is not None:
        plan._on_storage_fsync()


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install *plan* for the duration of the block (non-reentrant)."""
    global _PLAN
    if _PLAN is not None:
        raise RuntimeError("a fault plan is already installed")
    _PLAN = plan
    _budget._fault_hook = plan._on_checkpoint
    try:
        yield plan
    finally:
        _PLAN = None
        _budget._fault_hook = None
