"""Process-level isolation for engines that can wedge non-cooperatively.

PR 3's cooperative ``checkpoint()`` cancels pure-Python loops, but it
cannot interrupt a stuck C-extension call: a wedged SQLite
materialization or a pathological grounding holds the GIL-released
thread forever and no budget checkpoint ever fires.  For those engines
the dispatcher can pay for hard isolation: the engine runs in a fresh
``subprocess`` (a new interpreter, ``python -m repro.dispatch.worker``)
with

* the request pickled into the child and the result pickled back
  (structured marshalling — never a traceback scrape);
* a cooperative :class:`~repro.runtime.Budget` installed inside the
  child, so well-behaved engines still degrade gracefully there;
* a **watchdog deadline** in the parent: if the child has produced no
  result when it expires, the child is killed and
  :class:`WorkerTimeoutError` is raised — the dispatcher records a
  ``dispatch.worker_kills`` counter and falls to the next rung.

Two entry points share one job/result schema:

* **loop** (:func:`serve_loop`, ``python -m repro.dispatch.worker
  --loop``) — length-prefixed pickle *frames* on stdin/stdout, served
  until EOF or an ``exit`` op.  Every parent speaks it through
  :class:`repro.dispatch.pool.PoolWorker`: the warm
  :class:`~repro.dispatch.pool.WorkerPool` pays the interpreter and
  engine imports once at spawn, then each request is one frame
  round-trip; :func:`run_isolated` spawns one cold worker, runs one
  job on it, and reaps it — a full start-up per request, the right
  tool for a single CLI dispatch, far too slow for serving.  ``ping``
  frames double as the supervisor's heartbeat.  Every response frame
  carries the child's RSS and served-request count, which drive the
  pool's recycling policy, and ``warm``, the ``(name, version)`` keys
  of the registered-database instances it keeps between jobs.  A pool
  job may carry such a key as ``instance_key``; when the worker already
  holds that version, the job's request comes without its instance (a
  key-only job).  When it holds an earlier version, the request may
  instead come with the mutation ``steps`` since that version (a
  *delta* job), and the worker advances its instance and SQLite
  connection in place (see :func:`serve_loop`).  A warm entry answers
  a statement it already ran from memory while no step has touched a
  relation the statement reads; ``reused`` in the response frame
  counts those.  A keyed reply whose answer set equals the one the
  name's previous reply kept carries no rows, only ``answers_kept:
  "same"``, and the parent answers with its own copy.
* **one-shot** (:func:`child_main`, argument-less ``python -m
  repro.dispatch.worker``) — one job on stdin, one result on stdout,
  process exits; callable in-process for tests.

The parent's **request id** crosses the boundary: the job carries the
ambient :func:`~repro.observability.live.current_request_id`, the child
runs under a matching :func:`~repro.observability.live.request_scope`,
and any events the child emits (budget exhaustion, engine internals)
are marshalled back and re-emitted on the parent's planes tagged
``worker=True`` — so ``obs events --request rNNNNNN`` shows one
correlated trail even for isolated rungs.

Fault plans (:mod:`repro.runtime.faults`) are process-local and do NOT
propagate into workers; isolation is for real wedges, fault injection
exercises the in-process path.  The payload accepts test hooks: a
``wedge_s`` sleep simulating a non-cooperative hang (watchdog tests), a
``crash_code`` hard exit simulating a dying worker, and a ``pad_rss_kb``
ballast allocation that genuinely grows the child's RSS (pool-recycling
tests).
"""

from __future__ import annotations

import contextlib
import os
import pickle
import struct
import sys
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import (
    BudgetExceededError,
    NotRewritableError,
    ReproError,
    UnstorableValueError,
)
from ..observability import add
from ..observability.flight.recorder import flight_installed
from ..observability.live import (
    LivePlane,
    current_request_id,
    emit_event,
    install_live,
    live_installed,
    request_scope,
    uninstall_live,
)
from ..relational.nulls import json_stable
from ..relational.sqlbridge import KeptSqlite, keeping
from ..runtime import Budget, use_budget

__all__ = [
    "WorkerError",
    "WorkerTimeoutError",
    "WorkerCrashError",
    "read_frame",
    "write_frame",
    "run_isolated",
    "serve_loop",
]

#: Hard floor for the watchdog: interpreter start-up plus import of the
#: repro package costs real time, and a watchdog below it would kill
#: healthy workers before they compute anything.  Warm-pool workers have
#: already paid the start-up, so :class:`~repro.dispatch.pool.WorkerPool`
#: is exempt from this floor.
MIN_WATCHDOG_S = 2.0

#: Frame header of the loop protocol: 4-byte big-endian payload length.
_FRAME = struct.Struct(">I")

#: Refuse absurd frames instead of allocating them (a desynced or
#: corrupted stream would otherwise ask for gigabytes).
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Registered databases a loop worker keeps warm between jobs: at most
#: this many names, one version of each, least recently used out first.
WARM_CAPACITY = 16


class WorkerError(ReproError):
    """Base class for isolation-worker failures."""


class WorkerTimeoutError(WorkerError):
    """The watchdog expired and the worker was killed."""


class WorkerCrashError(WorkerError):
    """The worker died or returned unparsable output."""


def _marshal_error(exc: BaseException) -> Dict[str, object]:
    from .engines import EngineInapplicableError

    if isinstance(exc, NotRewritableError):
        kind = "not-rewritable"
    elif isinstance(exc, EngineInapplicableError):
        kind = "inapplicable"
    elif isinstance(exc, BudgetExceededError):
        kind = "budget"
    else:
        kind = "failure"
    payload: Dict[str, object] = {
        "ok": False,
        "kind": kind,
        "type": type(exc).__name__,
        "message": str(exc),
    }
    if kind == "budget":
        payload["reason"] = str(getattr(exc, "reason", "deadline"))
    return payload


def _unmarshal_error(record: Dict[str, object]) -> BaseException:
    from .engines import EngineInapplicableError

    kind = record.get("kind")
    message = f"[worker] {record.get('type')}: {record.get('message')}"
    if kind == "not-rewritable":
        return NotRewritableError(message)
    if kind == "inapplicable":
        return EngineInapplicableError(message)
    if kind == "budget":
        return BudgetExceededError(record.get("reason"), message)
    return WorkerCrashError(message)


# ----------------------------------------------------------------------
# Frame protocol (loop mode).  Child side uses blocking buffered reads;
# the parent side (pool.py) reads the raw fd under a poll() deadline.
# ----------------------------------------------------------------------


def read_frame(stream) -> Optional[bytes]:
    """Read one length-prefixed frame; None on clean EOF.

    Raises :class:`WorkerCrashError` on a truncated or oversized frame —
    a half-written frame means the peer died mid-send, and resyncing a
    pickle stream is not possible.
    """
    header = stream.read(_FRAME.size)
    if not header:
        return None
    if len(header) < _FRAME.size:
        raise WorkerCrashError("truncated frame header")
    (length,) = _FRAME.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WorkerCrashError(f"frame of {length} bytes exceeds the cap")
    payload = stream.read(length)
    if payload is None or len(payload) < length:
        raise WorkerCrashError("truncated frame payload")
    return payload


def write_frame(stream, payload: bytes) -> None:
    """Write one length-prefixed frame and flush it."""
    stream.write(_FRAME.pack(len(payload)))
    stream.write(payload)
    stream.flush()


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------

#: Ballast kept alive by the ``pad_rss_kb`` test hook so the allocation
#: actually shows up in the child's resident set.
_BALLAST: List[bytearray] = []


def _rss_kb() -> int:
    """This process's *current* resident set in KiB (0 when unavailable).

    Current, not peak (``ru_maxrss``): the pool's RSS recycling policy
    watches for steady growth — a leak — and a peak figure would never
    come back down after one large request.
    """
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * (os.sysconf("SC_PAGESIZE") // 1024)
    except (OSError, ValueError, IndexError):
        pass
    try:  # pragma: no cover - non-Linux fallback (peak, close enough)
        import resource

        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS.
        return int(rss // 1024) if sys.platform == "darwin" else int(rss)
    except Exception:  # pragma: no cover
        return 0


def _execute_job(job: Dict[str, object]) -> Dict[str, object]:
    """Run one engine job; returns the marshalled result record.

    Shared by the one-shot and loop modes, so both speak exactly the
    same job/result schema.
    """
    wedge_s = job.get("wedge_s")
    if wedge_s:  # test hook: simulate a non-cooperative hang
        import time

        time.sleep(wedge_s)
    if job.get("crash_code") is not None:  # test hook: die mid-request
        os._exit(int(job["crash_code"]))
    pad_kb = job.get("pad_rss_kb")
    if pad_kb:  # test hook: genuinely grow the resident set
        # b"x" * n writes every byte, so the pages are dirty and
        # resident — a zeroed bytearray would stay copy-on-write blank.
        _BALLAST.append(b"x" * (int(pad_kb) * 1024))
    request_id = job.get("request_id")
    scope = (
        request_scope(request_id)
        if request_id
        else contextlib.nullcontext()
    )
    # When the parent is observing (live plane or flight recorder), the
    # child installs its own plane so events emitted inside — budget
    # exhaustion, engine internals — can be marshalled back with the
    # result instead of dying with the process.
    plane = (
        install_live(LivePlane()) if job.get("collect_events") else None
    )
    try:
        from .engines import get_engine

        engine = get_engine(job["engine"])
        timeout = job.get("budget_timeout")
        budget = Budget(timeout=timeout) if timeout else None
        with scope, use_budget(budget):
            answer = engine.run(job["request"])
        result: Dict[str, object] = {
            "ok": True,
            "answers": answer.answers,
            "complete": answer.complete,
            "detail": answer.detail,
        }
    except BaseException as exc:
        result = _marshal_error(exc)
    if plane is not None:
        uninstall_live()
        result["events"] = [
            {
                key: value
                for key, value in record.items()
                if key not in ("seq", "ts", "span_id")
            }
            for record in plane.events.records()
        ]
    return result


class _WarmInstances:
    """A loop worker's warm state: per registered database name, the
    latest version a job carried, decoded, with its SQLite
    materialization (built by the first statement that needs it), the
    memo of its statements' answers, and the answer set of the name's
    last successful reply when a repeat of it may go by reference
    (:meth:`keep_answers`)."""

    def __init__(self) -> None:
        # name -> (version, kept, answer set or None); insertion order
        # is recency order.
        self._entries: Dict[
            str, Tuple[int, KeptSqlite, Optional[frozenset]]
        ] = {}

    def keys(self) -> List[Tuple[str, int]]:
        return [
            (name, version)
            for name, (version, _, _) in self._entries.items()
        ]

    def resolve(self, key: Tuple[str, int], steps: Sequence) -> KeptSqlite:
        """The entry a job without an instance runs on: *key*'s own,
        or, given *steps*, the entry at the first step's base, advanced
        by them (``KeptSqlite.advance``) and re-keyed to *key*.

        Raises ``LookupError`` when no entry matches, and the name then
        has none.  If an advance fails, its SQLite transaction has
        rolled back; the entry is dropped and closed, and the error
        propagates.
        """
        name, version = key
        base = steps[0][0] if steps else version
        entry = self._entries.get(name)
        if entry is None or entry[0] != base:
            if entry is not None:
                del self._entries[name]
                entry[1].close()
            raise LookupError(f"holds no warm instance {(name, base)!r}")
        kept = entry[1]
        if steps:
            del self._entries[name]
            try:
                for _, deleted, inserted in steps:
                    kept.advance(deleted, inserted)
            except BaseException:
                kept.close()
                raise
            self._entries[name] = (version, kept, entry[2])
        return kept

    def settle(
        self, key: Tuple[str, int], kept: KeptSqlite, ok: bool
    ) -> List[KeptSqlite]:
        """Record the outcome of a job that ran on *kept*: after a
        success it becomes the name's entry, with the name's answer
        set; after any failure the name has none.  Returns what no
        longer has an entry, for the caller to close once the result
        frame is out."""
        name, version = key
        displaced = []
        old = self._entries.pop(name, None)
        if old is not None and old[1] is not kept:
            displaced.append(old[1])
        if not ok:
            displaced.append(kept)
            return displaced
        self._entries[name] = (
            version, kept, old[2] if old is not None else None
        )
        while len(self._entries) > WARM_CAPACITY:
            oldest = next(iter(self._entries))
            displaced.append(self._entries.pop(oldest)[1])
        return displaced

    def keep_answers(self, name: str, answers: frozenset) -> Optional[str]:
        """Settle *name*'s answer set after a successful reply with
        *answers*.  Returns ``"same"`` when they equal the set the name
        keeps, which then goes by reference; ``"new"`` when the name
        keeps them now; None when it keeps none.  A set is kept only if
        it has no more rows than the entry's instance has facts and all
        its values are :func:`json_stable`, for which equal means the
        same values."""
        version, kept, previous = self._entries[name]
        if len(answers) > len(kept.db):
            answers, mark = None, None
        elif previous is not None and previous == answers:
            answers, mark = previous, "same"
        elif json_stable(answers):
            mark = "new"
        else:
            answers, mark = None, None
        self._entries[name] = (version, kept, answers)
        return mark


def child_main(stdin=None, stdout=None) -> int:
    """One-shot entry point (also callable in-process for tests): read
    one pickled job, run it, write one pickled result."""
    stdin = sys.stdin.buffer if stdin is None else stdin
    stdout = sys.stdout.buffer if stdout is None else stdout
    try:
        job = pickle.loads(stdin.read())
    except Exception as exc:  # malformed payload: structured, exit 0
        pickle.dump(
            {
                "ok": False,
                "kind": "failure",
                "type": type(exc).__name__,
                "message": f"cannot read job: {exc}",
            },
            stdout,
        )
        stdout.flush()
        return 0
    pickle.dump(_execute_job(job), stdout)
    stdout.flush()
    return 0


def serve_loop(stdin=None, stdout=None) -> int:
    """Warm-pool entry point: serve framed jobs until EOF or ``exit``.

    Jobs are pickled dicts with an ``op`` discriminator:

    * ``run`` (default) — the :func:`_execute_job` schema;
    * ``ping`` — heartbeat; answers ``{"ok": True, "op": "pong",
      "pid"}`` without touching any engine;
    * ``exit`` — acknowledge and leave (the pool's graceful drain).

    Every response frame also carries ``served``, ``rss_kb`` and
    ``warm``, so each doubles as a health sample and as the worker's
    current list of warm ``(name, version)`` keys, and ``reused``: how
    many of the job's statements its warm entry answered from memory.

    **Warm state.**  A run job may carry an ``instance_key`` naming a
    registered database's version.  With the instance in the request,
    the job is a miss: after a successful run the worker keeps that
    version, decoded, with the SQLite materialization ``run_sql`` built
    for it, as the name's entry (at most :data:`WARM_CAPACITY` names,
    one version each).  With ``request.db`` None, the job runs on the
    warm entry: as it is for a key-only job, and for a *delta* job
    (one with ``steps``) after advancing the entry at the first step's
    base version by each step, decoded instance and connection alike,
    and re-keying it to the job's key.  A version the worker does not
    hold is a protocol error, answered with ``kind: "protocol"``, never
    guessed; so is a failed advance, which rolls back and drops the
    entry, but for a step holding a value SQLite cannot store, which
    answers ``kind: "inapplicable"`` as fm-sql would on that version.
    Any failed run drops the name's entry.  Displaced entries
    are freed only after the result frame is written.

    An entry also remembers the rows of each SQL statement that
    succeeded on it (:class:`~repro.relational.sqlbridge.KeptSqlite`),
    so a job repeating a statement gets its rows without running
    SQLite; a delta job's advance first drops the statements that read
    a relation its steps touched.  Every job is still sent, run and
    answered.

    **Repeated answers.**  An entry also keeps the answer set of the
    name's last successful reply, when it has no more rows than the
    entry's instance has facts and only :func:`json_stable` values.
    Every successful keyed reply says in ``answers_kept`` what became of
    its set: ``"new"``, the name keeps it now; ``"same"``, it equals the
    kept one, and the reply's ``answers`` is None: the parent, which
    keeps the set of the name's last ``"new"`` reply, answers with that
    set; None, the name keeps no set.  The set lives as long as the
    name's entry: a failed run, a failed resolve or an eviction drops
    it with the entry, and the name leaves ``warm``.

    A malformed frame gets a structured error response; a truncated
    stream (parent died) ends the loop.  Never raises: a worker that
    dies of its own protocol handling would look like an engine crash
    to the supervisor.
    """
    stdin = sys.stdin.buffer if stdin is None else stdin
    stdout = sys.stdout.buffer if stdout is None else stdout
    # Pre-warm: pay the engine imports at spawn, not on first request.
    from . import engines  # noqa: F401

    served = 0
    warm = _WarmInstances()

    def reply(record: Dict[str, object], reused: int = 0) -> None:
        record.update(
            served=served, rss_kb=_rss_kb(), warm=warm.keys(), reused=reused
        )
        write_frame(stdout, pickle.dumps(record))

    while True:
        try:
            frame = read_frame(stdin)
        except WorkerCrashError:
            return 1
        if frame is None:
            return 0
        try:
            job = pickle.loads(frame)
        except Exception as exc:
            reply({
                "ok": False,
                "kind": "failure",
                "type": type(exc).__name__,
                "message": f"cannot read job: {exc}",
            })
            continue
        op = job.get("op", "run")
        if op == "exit":
            reply({"ok": True, "op": "exit"})
            return 0
        if op == "ping":
            reply({"ok": True, "op": "pong", "pid": os.getpid()})
            continue
        key = job.get("instance_key")
        kept = None
        if key is not None:
            request = job["request"]
            if request.db is None:
                try:
                    kept = warm.resolve(key, job.get("steps") or ())
                except UnstorableValueError as exc:
                    # The entry is gone: fm-sql cannot serve this version.
                    from .engines import EngineInapplicableError

                    reply(_marshal_error(EngineInapplicableError(str(exc))))
                    continue
                except Exception as exc:
                    reply({
                        "ok": False,
                        "kind": "protocol",
                        "type": type(exc).__name__,
                        "message": f"cannot run on {key!r}: {exc}",
                    })
                    continue
                job["request"] = replace(request, db=kept.db)
            else:
                kept = KeptSqlite(request.db)
        before = kept.reused if kept is not None else 0
        with keeping(kept):
            result = _execute_job(job)
        reused = kept.reused - before if kept is not None else 0
        displaced = []
        if key is not None:
            displaced = warm.settle(key, kept, bool(result["ok"]))
            if result["ok"]:
                mark = warm.keep_answers(key[0], result["answers"])
                result["answers_kept"] = mark
                if mark == "same":
                    result["answers"] = None
        served += 1
        try:
            reply(result, reused)
        except (BrokenPipeError, OSError):
            return 1
        for entry in displaced:
            entry.close()
        del displaced  # frees replaced instances here, off the read path


# ----------------------------------------------------------------------
# Parent side.  The process handle (PoolWorker) lives in pool.py.
# ----------------------------------------------------------------------


def _child_env() -> Dict[str, str]:
    """The worker environment: inherit, but guarantee repro is importable
    (the parent may run from a checkout without installing the package)."""
    env = dict(os.environ)
    src_dir = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    existing = env.get("PYTHONPATH", "")
    paths = [src_dir] + ([existing] if existing else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _replay_child_events(records) -> None:
    """Re-emit events the worker child collected onto the parent planes.

    The child ran under the parent's request id, so the ambient
    :func:`request_scope` stamps the same correlation key; ``worker=True``
    marks the process hop.  Best-effort: a record the event schema
    rejects is dropped, never raised into the serving path.
    """
    for record in records or ():
        fields = {
            key: value
            for key, value in record.items()
            if key not in ("kind", "request_id")
        }
        fields["worker"] = True
        try:
            emit_event(record["kind"], **fields)
        except Exception:  # noqa: BLE001 — telemetry only
            continue


def build_job(
    engine_name: str,
    request,
    *,
    budget_timeout: Optional[float] = None,
    wedge_s: Optional[float] = None,
    crash_code: Optional[int] = None,
    pad_rss_kb: Optional[int] = None,
) -> Dict[str, object]:
    """The job record both execution modes understand.

    Captures the ambient request id and whether the parent is observing
    at *build* time, so a job queued briefly still correlates with the
    request that created it.
    """
    return {
        "engine": engine_name,
        "request": request,
        "budget_timeout": budget_timeout,
        "wedge_s": wedge_s,
        "crash_code": crash_code,
        "pad_rss_kb": pad_rss_kb,
        "request_id": current_request_id(),
        "collect_events": live_installed() or flight_installed(),
    }


def unmarshal_answer(result: Dict[str, object]):
    """Turn a worker result record into an EngineAnswer (or raise the
    marshalled engine error), replaying any child events first."""
    from .engines import EngineAnswer

    _replay_child_events(result.get("events"))
    if not result.get("ok"):
        raise _unmarshal_error(result)
    return EngineAnswer(
        frozenset(result["answers"]),
        bool(result["complete"]),
        dict(result.get("detail") or {}),
    )


def call_worker(worker, job, engine_name: str, watchdog_s: float):
    """Run *job* on *worker* under *watchdog_s* and return its result
    record.  Counts the run as ``dispatch.worker_runs``; a watchdog kill
    also counts ``dispatch.worker_kills`` and
    ``dispatch.worker_kills.<engine>``, emits ``worker.kill`` and
    re-raises the :class:`WorkerTimeoutError`."""
    add("dispatch.worker_runs")
    try:
        return worker.call(job, watchdog_s)
    except WorkerTimeoutError:
        add("dispatch.worker_kills")
        add(f"dispatch.worker_kills.{engine_name}")
        emit_event("worker.kill", engine=engine_name, watchdog_s=watchdog_s)
        raise


def run_isolated(
    engine_name: str,
    request,
    *,
    watchdog_s: float,
    budget_timeout: Optional[float] = None,
    wedge_s: Optional[float] = None,
):
    """Run an engine on one cold worker; return its EngineAnswer.

    Spawns a bare :class:`~repro.dispatch.pool.PoolWorker`, runs the
    job with one :meth:`~repro.dispatch.pool.PoolWorker.call` under
    ``watchdog_s`` — floored at :data:`MIN_WATCHDOG_S`, since the child
    pays its start-up inside the deadline — and reaps it.
    ``budget_timeout`` installs a cooperative budget inside the child
    so the engine can degrade before the watchdog has to fire.  Raises
    :class:`WorkerTimeoutError` on kill, :class:`WorkerCrashError` on a
    dead/garbled worker, and re-raises marshalled engine errors as
    their typed classes.  Whatever happens, the child is reaped and its
    pipe fds are closed before this returns or raises.
    """
    from .pool import PoolWorker  # pool.py builds on this module

    job = build_job(
        engine_name,
        request,
        budget_timeout=budget_timeout,
        wedge_s=wedge_s,
    )
    deadline = max(float(watchdog_s), MIN_WATCHDOG_S)
    worker = PoolWorker()
    try:
        result = call_worker(worker, job, engine_name, deadline)
    except WorkerTimeoutError:
        raise WorkerTimeoutError(
            f"engine {engine_name} exceeded its {deadline:.1f}s "
            "watchdog and was killed"
        )
    finally:
        worker.reap()
    return unmarshal_answer(result)


if __name__ == "__main__":  # pragma: no cover
    if "--loop" in sys.argv[1:]:
        sys.exit(serve_loop())
    sys.exit(child_main())
