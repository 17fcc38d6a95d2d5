"""Supervised warm worker pool: isolation without the spawn tax.

:func:`repro.dispatch.worker.run_isolated` pays a full interpreter
start-up plus package import per request — fine for one CLI dispatch,
two orders of magnitude too slow for serving.  The pool keeps a fixed
set of **warm** workers (``python -m repro.dispatch.worker --loop``)
that paid that cost once at spawn; a request is then one framed pickle
round-trip over the worker's pipes (sub-millisecond for the employee
workload, ~300ms for a cold spawn).

The pool is a *supervisor*, not just a free-list:

* **spawn → warm** — a worker counts only after answering a ``ping``
  handshake within ``spawn_timeout_s``; a worker that cannot warm up is
  killed and retried by the respawner.
* **warm → busy → warm** — :meth:`WorkerPool.run_engine` checks a
  worker out, runs exactly one job on it under a deadline-aware framed
  read (``poll`` on the raw pipe fd — no blocking buffered reads in
  the serving path), and checks it back in.
* **recycle** — a worker is retired and replaced when it (a) blows its
  watchdog (killed, ``WorkerTimeoutError``), (b) crashes or garbles the
  stream (``WorkerCrashError``), (c) has served ``max_requests`` jobs,
  or (d) reports RSS above ``max_rss_kb``.  Every run result carries the
  child's ``served``/``rss_kb``, so (c) and (d) need no extra syscalls.
  Replacement spawns happen on a background respawner thread so the
  request that discovered the bad worker is not taxed with the ~300ms
  spawn.  The planned recycles (c) and (d) keep the old worker serving
  until its successor is warm, so they never cost warm capacity: the
  old worker leaves the idle set only once the successor has joined it.
* **drain** — graceful shutdown: stop admitting, send each idle worker
  an ``exit`` frame, wait, then hard-kill stragglers.  Every retirement
  funnels through one reap path (kill if alive, close pipe fds,
  ``wait``), so the pool can never leak processes or fds.

**Warm instance state.**  A request whose ``instance_key`` names a
registered database's version (an
:class:`~repro.dispatch.engines.InstanceKey`, which also carries the
registry's last mutation steps) carries ``(name, version)`` in its
job's ``instance_key`` field.  Every result frame lists the keys the
worker holds warm (``warm``: ``(name, version)`` pairs), and the pool
keeps that list per worker.  Checkout prefers an idle worker holding
the key, then one holding another version of the same name; it never
waits for a busy holder.  The version the chosen worker listed for the
name decides the job's kind:

* the requested version — a *key-only* job (``request.db`` is None)
  that runs on the worker's decoded instance and SQLite connection;
* the base version of one of the key's steps, when the steps from
  there name fewer facts than the instance holds — a *delta* job: no
  instance, only those ``steps``, which the worker applies to its
  instance and connection before it runs the job;
* anything else — a *miss* that ships the whole instance, which the
  worker then keeps.

A worker that cannot resolve a job without an instance, or cannot
advance it, answers a ``protocol`` frame, which is a
:class:`WorkerCrashError`: the worker is retired, never trusted for a
stale answer.  A step holding a value SQLite cannot store is no such
disagreement: the worker drops the entry and answers ``inapplicable``.
``pool.warm.hits``, ``pool.warm.deltas`` and
``pool.warm.misses`` count the three kinds of keyed jobs, and
``pool.warm.reused`` the statements that workers answered from their
warm entry's memo (every result frame says how many, ``reused``).

**Repeated answers.**  Each :class:`PoolWorker` keeps, per warm name,
the answer set of the last keyed reply marked ``answers_kept: "new"``,
as its worker does (see :func:`~repro.dispatch.worker.serve_loop`).  A
reply marked ``"same"`` carries no rows, and ``run_engine`` answers
with the handle's kept set: the same object on every repeat, so the
server finds its rendering by identity.  A reply marked None drops the
name's set, and so does a frame whose ``warm`` no longer lists the
name.  A reply that refers to a set the handle does not hold is a
:class:`WorkerCrashError`, like a protocol frame.  ``pool.answers.repeated``
counts the replies answered by reference.

When every worker is busy (or replacement spawns have not caught up),
checkout fails *fast* with :class:`PoolSaturatedError` after
``grab_timeout_s`` instead of queueing — backpressure is the admission
controller's job (:mod:`repro.serve.admission`), and the dispatcher
treats saturation as "this rung is temporarily unavailable": it falls
through the ladder (typically to the in-process anytime certain-core
bracket) without charging the engine's circuit breaker.

Thread safety: ``run_engine`` may be called from many serving threads
at once.  The idle set is a ``queue.Queue``; per-worker state is only
ever touched by the thread that checked the worker out; pool-wide
accounting sits behind one lock.
"""

from __future__ import annotations

import math
import os
import pickle
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from queue import Empty, Queue
from typing import Dict, List, Optional

from ..observability.live import emit_event, live_add, live_gauge, live_observe
from .engines import InstanceKey
from .worker import (
    WorkerCrashError,
    WorkerError,
    WorkerTimeoutError,
    _FRAME,
    _child_env,
    build_job,
    call_worker,
    unmarshal_answer,
)

__all__ = [
    "PoolConfig",
    "PoolSaturatedError",
    "PoolWorker",
    "WorkerPool",
]


class PoolSaturatedError(WorkerError):
    """No warm worker could be checked out before ``grab_timeout_s``.

    Deliberately *not* an engine failure: the dispatcher skips the rung
    without penalizing its breaker, and the serving layer answers from
    the degraded bracket or sheds.
    """


@dataclass(frozen=True)
class PoolConfig:
    """Supervision policy for a :class:`WorkerPool`."""

    #: Number of warm workers kept alive.
    size: int = 2
    #: Retire a worker after this many served requests (None = never).
    max_requests: Optional[int] = 200
    #: Retire a worker whose reported RSS exceeds this (None = never).
    max_rss_kb: Optional[int] = None
    #: Deadline for the spawn→warm ping handshake.
    spawn_timeout_s: float = 15.0
    #: How long checkout waits for an idle worker before declaring
    #: saturation.  Kept short: queueing is admission control's job.
    grab_timeout_s: float = 0.25
    #: Graceful-drain deadline before stragglers are hard-killed.
    drain_timeout_s: float = 5.0


class PoolWorker:
    """Parent-side handle on one ``--loop`` worker process: warm in a
    :class:`WorkerPool`, cold and single-use under
    :func:`~repro.dispatch.worker.run_isolated`.

    Owned by at most one thread at a time (whoever checked it out of
    the pool), so it carries no locks.  All reads go through
    :meth:`_read_frame` — ``poll`` plus ``os.read`` on the raw pipe
    fd under an absolute deadline; the ``Popen`` buffered reader is
    never used, so a timeout can never strand bytes in a buffer we do
    not control.
    """

    _ids = iter(range(1, 1 << 30))

    def __init__(self) -> None:
        self.worker_id = next(self._ids)
        self.served = 0
        self.rss_kb = 0
        #: The warm keys of its last frame, as ``{name: version}``.
        self.warm: Dict[str, int] = {}
        #: Per warm name, the answer set its worker keeps too: the one
        #: its last ``answers_kept: "new"`` reply carried.
        self.answers: Dict[str, frozenset] = {}
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.dispatch.worker", "--loop"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=_child_env(),
        )
        self._fd = self.proc.stdout.fileno()
        self._buf = bytearray()
        self._poller = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    # -- framed I/O under a deadline ----------------------------------

    def _recv_exact(self, n: int, end: Optional[float]) -> bytes:
        if self._poller is None:
            # poll, not select: select() refuses an fd number past
            # 1023, which a busy server's pipes reach.
            self._poller = select.poll()
            self._poller.register(self._fd, select.POLLIN)
        while len(self._buf) < n:
            timeout_ms = None
            if end is not None:
                remaining = end - time.monotonic()
                if remaining <= 0:
                    raise WorkerTimeoutError(
                        f"worker {self.pid} exceeded its read deadline"
                    )
                # Round up: a sub-millisecond wait of 0 would spin.
                timeout_ms = math.ceil(remaining * 1000)
            if not self._poller.poll(timeout_ms):
                continue
            chunk = os.read(self._fd, 65536)
            if not chunk:
                raise WorkerCrashError(
                    f"worker {self.pid} closed its pipe mid-request"
                )
            self._buf.extend(chunk)
        out = bytes(self._buf[:n])
        del self._buf[:n]
        return out

    def _read_frame(self, deadline_s: Optional[float]) -> bytes:
        end = (
            time.monotonic() + deadline_s if deadline_s is not None else None
        )
        (length,) = _FRAME.unpack(self._recv_exact(_FRAME.size, end))
        return self._recv_exact(length, end)

    def _send(self, payload: bytes) -> None:
        try:
            self.proc.stdin.write(_FRAME.pack(len(payload)))
            self.proc.stdin.write(payload)
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrashError(
                f"worker {self.pid} rejected a frame: {exc}"
            )

    def call(
        self, job: Dict[str, object], deadline_s: Optional[float]
    ) -> Dict[str, object]:
        """One request/response round-trip; raises Worker*Error.

        A ``protocol`` error frame (a key-only job naming a key the
        worker does not hold) raises :class:`WorkerCrashError`: the two
        sides disagree about the worker's state, so it must go.  So
        does a reply that refers to an answer set this handle does not
        hold.  A keyed reply's ``answers_kept`` settles the name's kept
        answer set; one by reference gets it as its ``answers``.
        """
        self._send(pickle.dumps(job))
        frame = self._read_frame(deadline_s)
        try:
            result = pickle.loads(frame)
        except Exception as exc:
            raise WorkerCrashError(
                f"worker {self.pid} returned unreadable output: {exc}"
            )
        self.served = int(result.get("served", self.served))
        self.rss_kb = int(result.get("rss_kb", self.rss_kb))
        self.warm = dict(result.get("warm", ()))
        for name in [n for n in self.answers if n not in self.warm]:
            del self.answers[name]
        if result.get("kind") == "protocol":
            raise WorkerCrashError(
                f"worker {self.pid} {result.get('message')}"
            )
        key = job.get("instance_key")
        if key is not None and result.get("ok"):
            name = key[0]
            mark = result.get("answers_kept")
            if mark == "same":
                if name not in self.answers:
                    raise WorkerCrashError(
                        f"worker {self.pid} referred to an answer set "
                        f"of {name!r} it never sent"
                    )
                result["answers"] = self.answers[name]
            elif mark == "new":
                self.answers[name] = result["answers"]
            else:
                self.answers.pop(name, None)
        return result

    def ping(self, deadline_s: float) -> Dict[str, object]:
        result = self.call({"op": "ping"}, deadline_s)
        if not (result.get("ok") and result.get("op") == "pong"):
            raise WorkerCrashError(
                f"worker {self.pid} answered ping with {result!r}"
            )
        return result

    # -- teardown ------------------------------------------------------

    def send_exit(self) -> None:
        """Best-effort graceful-exit request (drain path)."""
        try:
            self._send(pickle.dumps({"op": "exit"}))
        except WorkerError:
            pass

    def reap(self) -> None:
        """Kill if alive, close pipe fds, wait: never a zombie or
        leaked fd, whatever state the worker died in."""
        proc = self.proc
        try:
            if proc.poll() is None:
                proc.kill()
        except OSError:  # pragma: no cover - racing an exiting child
            pass
        for stream in (proc.stdin, proc.stdout):
            if stream is not None and not stream.closed:
                try:
                    stream.close()
                except OSError:  # pragma: no cover
                    pass
        try:
            proc.wait(timeout=5.0)
        except Exception:  # pragma: no cover - unkillable child
            pass


class WorkerPool:
    """Fixed-size supervised pool of warm isolation workers."""

    def __init__(self, config: Optional[PoolConfig] = None) -> None:
        self.config = config or PoolConfig()
        self._idle: "Queue[PoolWorker]" = Queue()
        self._lock = threading.Lock()
        self._workers: List[PoolWorker] = []  # every live worker
        self._draining = False
        self._spawns = 0
        self._recycles = 0
        self._recycle_reasons: Dict[str, int] = {}
        self._respawners: List[threading.Thread] = []
        # Planned recycles: worker -> reason while its successor warms
        # (_retiring), then while it is still checked out after the
        # successor joined (_superseded; retired at its check-in).
        self._retiring: Dict[PoolWorker, str] = {}
        self._superseded: Dict[PoolWorker, str] = {}

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "WorkerPool":
        """Spawn and warm the full complement; raises if any worker
        cannot pass its handshake."""
        for _ in range(self.config.size):
            self._admit(self._spawn_warm())
        self._publish_gauges()
        return self

    def _spawn_warm(self) -> PoolWorker:
        worker = PoolWorker()
        try:
            worker.ping(self.config.spawn_timeout_s)
        except WorkerError:
            worker.reap()
            raise
        with self._lock:
            self._spawns += 1
        live_add("pool.spawns")
        emit_event("pool.spawn", pid=worker.pid, worker_id=worker.worker_id)
        return worker

    def _admit(self, worker: PoolWorker) -> None:
        with self._lock:
            if self._draining:
                worker.reap()
                return
            self._workers.append(worker)
        self._idle.put(worker)

    def _retire(self, worker: PoolWorker, reason: str) -> None:
        """Take a worker out of service permanently and backfill it,
        unless a successor already warms or serves in its place.  Reaped
        first, so a worker no longer on the books is already gone."""
        worker.reap()
        with self._lock:
            if worker in self._workers:
                self._workers.remove(worker)
            self._recycles += 1
            self._recycle_reasons[reason] = (
                self._recycle_reasons.get(reason, 0) + 1
            )
            succeeded = self._retiring.pop(worker, None) is not None
            succeeded |= self._superseded.pop(worker, None) is not None
            backfill = not self._draining and not succeeded
        live_add("pool.recycles")
        live_add(f"pool.recycles.{reason}")
        emit_event(
            "pool.recycle",
            pid=worker.pid,
            worker_id=worker.worker_id,
            reason=reason,
            served=worker.served,
            rss_kb=worker.rss_kb,
        )
        if backfill:
            self._respawn_async()
        self._publish_gauges()

    def _respawn_async(
        self, predecessor: Optional[PoolWorker] = None
    ) -> None:
        """Spawn a worker off the request path: a backfill for a retired
        worker, or the successor of *predecessor*, which is retired only
        once the successor is in the idle set."""

        def _spawn() -> None:
            try:
                worker = self._spawn_warm()
            except WorkerError:
                live_add("pool.spawn_failures")
                if predecessor is not None:
                    # It keeps serving; its next check-in tries again.
                    with self._lock:
                        self._retiring.pop(predecessor, None)
            else:
                self._admit(worker)
                if predecessor is not None:
                    self._hand_over(predecessor)
            self._publish_gauges()

        thread = threading.Thread(
            target=_spawn, name="pool-respawn", daemon=True
        )
        with self._lock:
            self._respawners = [
                t for t in self._respawners if t.is_alive()
            ]
            self._respawners.append(thread)
        thread.start()

    def _hand_over(self, worker: PoolWorker) -> None:
        """Retire *worker* now that its successor is in the idle set: at
        once when idle, at its check-in when checked out."""
        with self._lock:
            reason = self._retiring.get(worker)
            if reason is None or self._draining:
                return  # already retired (crash, timeout) or draining
            with self._idle.mutex:
                idle = worker in self._idle.queue
                if idle:
                    self._idle.queue.remove(worker)
            if not idle:
                self._superseded[worker] = self._retiring.pop(worker)
        if idle:
            self._retire(worker, reason)

    def wait_ready(self, timeout_s: float = 30.0) -> bool:
        """Block until the pool is back to full idle strength (all
        respawns and planned recycles caught up, no worker checked
        out)."""
        end = time.monotonic() + timeout_s
        while time.monotonic() < end:
            with self._lock:
                full = (
                    not self._draining
                    and len(self._workers) >= self.config.size
                    and not self._retiring
                    and not self._superseded
                )
            if full and self._idle.qsize() >= self.config.size:
                return True
            time.sleep(0.01)
        return False

    def drain(self, timeout_s: Optional[float] = None) -> None:
        """Graceful shutdown: stop admitting, ask workers to exit,
        hard-kill whatever is left after the deadline."""
        timeout_s = (
            self.config.drain_timeout_s if timeout_s is None else timeout_s
        )
        with self._lock:
            self._draining = True
        emit_event("pool.drain", workers=len(self._workers))
        live_add("pool.drains")
        end = time.monotonic() + timeout_s
        # Politely stop every idle worker first.
        while True:
            try:
                worker = self._idle.get_nowait()
            except Empty:
                break
            worker.send_exit()
            try:
                worker.proc.wait(timeout=max(0.1, end - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass
            worker.reap()
            with self._lock:
                if worker in self._workers:
                    self._workers.remove(worker)
        # Busy workers get the remaining grace, then the axe.
        while time.monotonic() < end:
            with self._lock:
                if not self._workers:
                    break
            time.sleep(0.05)
        with self._lock:
            stragglers = list(self._workers)
            self._workers.clear()
        for worker in stragglers:
            worker.reap()
        for thread in list(self._respawners):
            thread.join(timeout=max(0.1, end - time.monotonic()))
        # A respawner may have admitted a fresh worker after the idle
        # sweep; _admit reaps immediately while draining, but drain any
        # that slipped in before the flag was visible.
        while True:
            try:
                self._idle.get_nowait().reap()
            except Empty:
                break
        self._publish_gauges()

    # -- serving -------------------------------------------------------

    def run_engine(
        self,
        engine_name: str,
        request,
        *,
        watchdog_s: float,
        budget_timeout: Optional[float] = None,
        wedge_s: Optional[float] = None,
        crash_code: Optional[int] = None,
        pad_rss_kb: Optional[int] = None,
    ):
        """Drop-in replacement for :func:`run_isolated` on warm workers.

        Same contract: returns the ``EngineAnswer``, re-raises
        marshalled engine errors as their typed classes, raises
        :class:`WorkerTimeoutError`/:class:`WorkerCrashError` on a bad
        worker — plus :class:`PoolSaturatedError` when no worker frees
        up within ``grab_timeout_s``.  No ``MIN_WATCHDOG_S`` floor:
        warm workers have already paid start-up, so the caller's
        deadline is taken literally.  A request with an
        ``instance_key`` goes to a worker holding it, or an earlier
        version of it, when one is idle, and then ships only the key,
        or the steps since that version (see the module docstring).
        """
        with self._lock:
            if self._draining:
                raise PoolSaturatedError("worker pool is draining")
        key = request.instance_key
        try:
            worker = self._checkout(key)
        except Empty:
            live_add("pool.saturated")
            raise PoolSaturatedError(
                f"no idle worker within {self.config.grab_timeout_s:.2f}s "
                f"(pool size {self.config.size})"
            )
        self._publish_gauges()
        kind = steps = None
        if key is not None:
            held = worker.warm.get(key.name)
            if held == key.version:
                kind = "hits"
            else:
                steps = key.steps_since(held, len(request.db))
                kind = "misses" if steps is None else "deltas"
            # The job carries the key apart from the request, and the
            # steps only in a delta job.
            request = replace(
                request,
                db=request.db if kind == "misses" else None,
                instance_key=None,
            )
        job = build_job(
            engine_name,
            request,
            budget_timeout=budget_timeout,
            wedge_s=wedge_s,
            crash_code=crash_code,
            pad_rss_kb=pad_rss_kb,
        )
        if kind is not None:
            job["instance_key"] = (key.name, key.version)
            if steps is not None:
                job["steps"] = steps
            live_add(f"pool.warm.{kind}")
        live_add("pool.dispatches")
        started = time.monotonic()
        try:
            result = call_worker(worker, job, engine_name, watchdog_s)
        except WorkerTimeoutError:
            self._retire(worker, "timeout")
            raise
        except WorkerCrashError:
            self._retire(worker, "crash")
            raise
        live_observe(
            "pool.dispatch_ms", (time.monotonic() - started) * 1000.0
        )
        if result.get("reused"):
            live_add("pool.warm.reused", int(result["reused"]))
        if result.get("answers_kept") == "same":
            live_add("pool.answers.repeated")
        self._check_in(worker)
        return unmarshal_answer(result)

    def _checkout(self, key: Optional[InstanceKey]) -> PoolWorker:
        """An idle worker for a job on instance *key*: one holding the
        key, else one holding another version of its name, else the
        longest idle.  Never waits for a busy holder; raises ``Empty``
        after ``grab_timeout_s`` when no worker is idle."""
        if key is not None:
            name, version, _ = key
            with self._idle.mutex:
                idle = self._idle.queue
                worker = next(
                    (w for w in idle if w.warm.get(name) == version),
                    None,
                ) or next((w for w in idle if name in w.warm), None)
                if worker is not None:
                    idle.remove(worker)
                    return worker
        return self._idle.get(timeout=self.config.grab_timeout_s)

    def _check_in(self, worker: PoolWorker) -> None:
        """Return a healthy worker to the idle set.

        A worker the recycling policy has done with (``max-requests``,
        ``rss``) goes back too, and a successor starts warming; a dead
        or superseded worker is retired instead.
        """
        cfg = self.config
        reason = None
        if cfg.max_requests is not None and worker.served >= cfg.max_requests:
            reason = "max-requests"
        elif cfg.max_rss_kb is not None and worker.rss_kb > cfg.max_rss_kb:
            reason = "rss"
        with self._lock:
            superseded = self._superseded.get(worker)
            keep = (
                superseded is None
                and worker.proc.poll() is None
                and (reason is None or not self._draining)
            )
            succeed = (
                keep and reason is not None and worker not in self._retiring
            )
            if succeed:
                self._retiring[worker] = reason
            if keep:
                self._idle.put(worker)
        if not keep:
            self._retire(worker, superseded or reason or "crash")
            return
        if succeed:
            self._respawn_async(predecessor=worker)
        self._publish_gauges()

    # -- health & introspection ---------------------------------------

    def health_check(self, deadline_s: float = 1.0) -> Dict[str, int]:
        """Heartbeat every *idle* worker; retire the unresponsive.

        Busy workers are not probed — their in-flight read deadline is
        already their health check.
        """
        checked = retired = 0
        held: List[PoolWorker] = []
        while True:
            try:
                held.append(self._idle.get_nowait())
            except Empty:
                break
        for worker in held:
            checked += 1
            try:
                worker.ping(deadline_s)
            except WorkerError:
                self._retire(worker, "heartbeat")
                retired += 1
            else:
                self._check_in(worker)
        self._publish_gauges()
        return {"checked": checked, "retired": retired}

    def idle_count(self) -> int:
        return self._idle.qsize()

    def _publish_gauges(self) -> None:
        with self._lock:
            total = len(self._workers)
        live_gauge("pool.workers", total)
        live_gauge("pool.idle", self._idle.qsize())

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "size": self.config.size,
                "workers": len(self._workers),
                "idle": self._idle.qsize(),
                "spawns": self._spawns,
                "recycles": self._recycles,
                "recycle_reasons": dict(self._recycle_reasons),
                "draining": self._draining,
                "pids": [w.pid for w in self._workers],
            }
