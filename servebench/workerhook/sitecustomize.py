"""Span recording inside the pool's worker processes (traced run only).

``traced.py`` puts this directory on ``PYTHONPATH`` and names a spans
directory in ``SERVEBENCH_WORKER_SPANS`` before it starts the server;
the pool's workers inherit both, and Python imports this module when
each of them starts.  It wraps the worker-side stages of a job with the
same span recorder the launcher uses:

* ``dispatch.pool.decode`` — ``pickle.loads`` of an incoming frame; a
  job's span carries its request id;
* ``dispatch.pool.worker`` — ``FuxmanMillerSqlEngine.run``, under the
  job's request id;
* ``cqa.rewrite`` — ``fuxman_miller_rewrite`` and ``query_to_sql``;
* ``relational.sqlbridge.materialize`` — ``to_sqlite``, with the facts
  it loads;
* ``relational.sqlbridge.exec`` — ``run_sql`` (its self time: execution
  and result conversion).

The pool kills a recycled worker without warning, so the spans are
appended to ``worker-<pid>.jsonl`` in that directory when each job's
engine run returns, before its result goes back to the server.
"""

import os
import sys


def _install(directory: str) -> None:
    import functools
    import json
    import pickle

    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    )))
    sys.path.insert(0, root)
    try:
        from servebench.spans import Recorder
    finally:
        sys.path.remove(root)
    from repro.cqa import sqlgen
    from repro.dispatch import engines
    from repro.observability.live import current_request_id
    from repro.relational import sqlbridge

    recorder = Recorder()
    wrap = recorder.wrap
    path = os.path.join(directory, f"worker-{os.getpid()}.jsonl")
    written = 0

    def flush() -> None:
        nonlocal written
        spans = recorder.spans[written:]
        written += len(spans)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(spans) + "\n")

    def job_attrs(args, job):
        if isinstance(job, dict) and "engine" in job:
            return {"rid": job.get("request_id")}
        return None

    pickle.loads = wrap("dispatch.pool.decode", pickle.loads, job_attrs)
    engine = engines.FuxmanMillerSqlEngine
    run = wrap(
        "dispatch.pool.worker", engine.run,
        lambda args, result: {"rid": current_request_id()},
    )

    @functools.wraps(engine.run)
    def flushing_run(*args, **kwargs):
        try:
            return run(*args, **kwargs)
        finally:
            flush()

    engine.run = flushing_run
    engines.fuxman_miller_rewrite = wrap(
        "cqa.rewrite", engines.fuxman_miller_rewrite
    )
    sqlgen.query_to_sql = wrap("cqa.rewrite", sqlgen.query_to_sql)
    sqlgen.run_sql = wrap("relational.sqlbridge.exec", sqlgen.run_sql)
    sqlbridge.to_sqlite = wrap(
        "relational.sqlbridge.materialize", sqlbridge.to_sqlite,
        lambda args, result: {"rows": len(args[0])},
    )


if os.environ.get("SERVEBENCH_WORKER_SPANS"):
    _install(os.environ["SERVEBENCH_WORKER_SPANS"])
