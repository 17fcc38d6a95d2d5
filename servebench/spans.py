"""Span recording around the serving layers' public entry points.

Used only in traced runs.  In the server process, the launcher
(``traced.py``) calls :func:`instrument`, which replaces each entry
point the per-layer metrics need with a wrapper that records ``(name,
start, end, parent, attrs)``.  Spans nest per thread, so a request's
spans form a tree under its ``CQAService.handle_cqa`` span, which
carries the request id.  They stay in memory and are written once,
after the server drained.

The pool's worker processes record their own stages with the same
:class:`Recorder` (``workerhook/sitecustomize.py``).  No recorder keeps
a reference to a request or its database, only request ids and sizes:
holding on to old instance versions changes the program's speed.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from typing import Callable, List, Optional


class Recorder:
    """In-memory spans; thread-safe appends, per-thread nesting."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        attrs: Optional[Callable] = None,
        under: Optional[str] = None,
    ) -> Callable:
        """*fn* recorded as a span *name*; ``attrs(args, result)``
        annotates it.  With *under*, only calls made directly inside a
        span of that name are recorded (others keep their time in
        their caller's span)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            if under is not None and (
                parent is None or self.spans[parent][0] != under
            ):
                return fn(*args, **kwargs)
            record = [name, time.perf_counter(), 0.0, parent, None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    record[4] = attrs(args, result)
                return result
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return wrapper


def _body(result) -> dict:
    body = result[1] if isinstance(result, tuple) else None
    return body if isinstance(body, dict) else {}


def instrument(recorder: Recorder) -> None:
    """Wrap every entry point the per-layer metrics need."""
    from repro.constraints.conflicts import ConflictHypergraph
    from repro.dispatch import dispatcher, engines, pool
    from repro.serve import admission, service, store
    from repro.serve.store import wal

    wrap = recorder.wrap

    def patch(owner, attr: str, name: str, **options) -> None:
        setattr(owner, attr, wrap(name, getattr(owner, attr), **options))

    cqa = service.CQAService
    patch(cqa, "handle_cqa", "serve.service",
          attrs=lambda a, r: {"rid": _body(r).get("request_id")})
    patch(cqa, "handle_mutate", "serve.service.mutate",
          attrs=lambda a, r: {"lsn": _body(r).get("lsn")})
    patch(admission.AdmissionController, "admit", "serve.admission")
    patch(dispatcher.Dispatcher, "dispatch", "dispatch.dispatcher",
          attrs=lambda a, r: {"skipped": sum(
              rung.status != "ok" for rung in r.provenance.rungs
          )})
    ConflictHypergraph.build = staticmethod(wrap(
        "dispatch.shape", ConflictHypergraph.build,
        under="dispatch.dispatcher",
    ))
    # The applicability checks rewrite in the server process.
    patch(engines, "fuxman_miller_rewrite", "cqa.rewrite")
    patch(engines.AspEngine, "check", "asp")
    patch(engines.AspEngine, "run", "asp")

    patch(pool.WorkerPool, "run_engine", "dispatch.pool")
    # The frame that carries a read's job to its worker, with its size.
    patch(pool.PoolWorker, "_send", "dispatch.pool.send",
          attrs=lambda a, r: {"bytes": len(a[1])}, under="dispatch.pool")

    wal_append = wal.WriteAheadLog.append

    def measured_append(self, record):
        before = self.size_bytes
        wal_append(self, record)
        return self.size_bytes - before

    wal.WriteAheadLog.append = wrap(
        "serve.store.wal", measured_append,
        attrs=lambda a, r: {"bytes": r},
    )
    patch(store.TenantStore, "append_mutate", "serve.store.append")
    patch(store.TenantStore, "append_put_db", "serve.store.append")
    patch(store, "write_snapshot", "serve.store.snapshot",
          attrs=lambda a, r: {"bytes": os.path.getsize(r.path)})
