"""Command-line interface: repairs and CQA over CSV data.

Lets a downstream user exercise the core pipeline without writing Python::

    python -m repro repairs --csv Employee=emp.csv \\
        --fd "Employee: Name -> Salary"

    python -m repro cqa --csv Employee=emp.csv \\
        --fd "Employee: Name -> Salary" \\
        --query "Q(X, Y) :- Employee(X, Y)" --method rewrite

    python -m repro check --csv Supply=s.csv --csv Articles=a.csv \\
        --ind "Supply[Item] <= Articles[Item]"

Subcommands: ``check`` (violations report), ``repairs`` (enumerate
S-/C-repairs), ``cqa`` (consistent answers by enumeration, Fuxman–Miller
rewriting, or SQL), ``dispatch`` (consistent answers through the
resilient multi-engine fallback ladder, with provenance), ``measure``
(inconsistency degrees), ``serve`` (the admission-controlled CQA HTTP
server over a warm worker pool; ``--follower-of`` runs it as a
WAL-shipping read replica) with its ``loadgen`` counterpart,
``replica`` (failover operations: status / promote / fence), and
the ``obs`` family over recorded telemetry
(``obs report`` / ``obs flamegraph`` on JSONL traces, ``obs diff`` /
``obs check`` on ``BENCH_*.json`` perf suites).  CSV files need a
header row naming the attributes.

Every data subcommand accepts an execution budget: ``--timeout SECONDS``
and/or ``--max-steps N`` activate cooperative cancellation across the
whole pipeline.  When the budget runs out, ``repairs`` and ``cqa
--method enumerate`` degrade gracefully — they print the sound partial
result with an ``INCOMPLETE`` marker and exit 0 — while ``--strict``
(and any code path that cannot produce a sound partial result) aborts
with exit code 6.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import logging
import math
import os
import sys
from typing import Dict, List, Sequence, Tuple

from .constraints import IntegrityConstraint
from .cqa import (
    answers_via_sql,
    consistent_answers_fm,
    consistent_answers_partial,
    fuxman_miller_rewrite,
)
from .errors import BudgetExceededError, ReproError
from .logic import parse_denial, parse_fd, parse_inclusion, parse_query
from .measures import InconsistencyReport
from .observability import collect
from .relational import Database, RelationSchema, Schema
from .repairs import c_repairs_partial, s_repairs_partial
from .runtime import Budget, use_budget

#: Exit code for an exhausted execution budget without a sound partial
#: result (``--strict``, or a method with no anytime variant).
EXIT_BUDGET_EXHAUSTED = 6

#: Exit code for ``obs replay``: a recorded flight envelope no longer
#: reproduces its answer/provenance bit-for-bit (the CI replay gate).
EXIT_REPLAY_DIVERGENCE = 8

#: Exit code for ``store verify`` (and a ``serve`` that cannot
#: recover): the durable log holds acknowledged records that cannot be
#: recovered — mid-log corruption, not a truncatable torn tail.
EXIT_STORE_CORRUPT = 10

logger = logging.getLogger("repro.cli")


def _load_csv(spec: str) -> Tuple[str, RelationSchema, List[Tuple]]:
    """Parse ``Relation=path.csv`` into (name, schema, rows)."""
    if "=" not in spec:
        raise SystemExit(
            f"--csv expects Relation=path.csv, got {spec!r}"
        )
    name, path = spec.split("=", 1)
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SystemExit(f"{path}: empty CSV (need a header row)")
        rows = [tuple(_coerce(v) for v in row) for row in reader]
    return name, RelationSchema(name, tuple(header)), rows


def _coerce(value: str):
    """Finite numerals become numbers; everything else stays a string,
    also ``nan`` or ``inf`` (a surname, say), which JSON cannot carry."""
    try:
        return int(value)
    except ValueError:
        pass
    try:
        number = float(value)
    except ValueError:
        return value
    return number if math.isfinite(number) else value


def _build_database(csv_specs: Sequence[str]) -> Database:
    schemas = []
    data: Dict[str, List[Tuple]] = {}
    for spec in csv_specs:
        name, rel_schema, rows = _load_csv(spec)
        logger.info("loaded %s: %d row(s)", name, len(rows))
        schemas.append(rel_schema)
        data[name] = rows
    if not schemas:
        raise SystemExit("at least one --csv Relation=path.csv is required")
    return Database.from_dict(data, schema=Schema.of(*schemas))


def _build_constraints(args) -> List[IntegrityConstraint]:
    constraints: List[IntegrityConstraint] = []
    for kind, parse, texts in (
        ("--fd", parse_fd, args.fd or ()),
        ("--ind", parse_inclusion, args.ind or ()),
        ("--dc", parse_denial, args.dc or ()),
    ):
        for text in texts:
            try:
                constraints.append(parse(text))
            except ReproError as exc:
                raise SystemExit(
                    f"cannot parse {kind} constraint {text!r}: {exc}"
                )
    if not constraints:
        raise SystemExit(
            "no constraints given (use --fd / --ind / --dc)"
        )
    logger.info("parsed %d constraint(s)", len(constraints))
    return constraints


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--csv", action="append", metavar="REL=FILE",
        help="load a relation from a CSV file (repeatable)",
    )
    parser.add_argument(
        "--fd", action="append", metavar="'R: A -> B'",
        help="functional dependency (repeatable)",
    )
    parser.add_argument(
        "--ind", action="append", metavar="'R[A] <= S[B]'",
        help="inclusion dependency (repeatable)",
    )
    parser.add_argument(
        "--dc", action="append", metavar="':- R(X), S(X)'",
        help="denial constraint (repeatable)",
    )
    parser.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="wall-clock deadline for the whole run (anytime results "
             "where the method supports them)",
    )
    parser.add_argument(
        "--max-steps", type=int, metavar="N", dest="max_steps",
        help="cooperative step budget for the whole run",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="abort with exit code 6 on budget exhaustion instead of "
             "printing a partial result",
    )
    parser.add_argument(
        "--trace", metavar="FILE",
        help="write a JSONL span trace of the run to FILE",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the span/counter summary to stderr after the run",
    )
    parser.add_argument(
        "--profile-mem", action="store_true",
        help="attribute tracemalloc peak/net memory to spans "
             "(slow; implies --metrics unless --trace is given)",
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "-v", "--verbose", action="store_true",
        help="log progress details to stderr",
    )
    verbosity.add_argument(
        "-q", "--quiet", action="store_true",
        help="only log errors",
    )


def _cmd_check(args) -> int:
    db = _build_database(args.csv or ())
    constraints = _build_constraints(args)
    total = 0
    for ic in constraints:
        violations = ic.violations(db)
        total += len(violations)
        print(f"{ic.name}: {len(violations)} violation(s)")
        for v in violations[: args.limit]:
            print(f"  {sorted(map(repr, v.facts))}")
    print(f"consistent: {total == 0}")
    return 0 if total == 0 else 1


def _cmd_repairs(args) -> int:
    db = _build_database(args.csv or ())
    constraints = _build_constraints(args)
    finder = c_repairs_partial if args.cardinality else s_repairs_partial
    partial = finder(db, constraints)
    repairs = partial.value
    kind = "C" if args.cardinality else "S"
    if partial.complete:
        print(f"{len(repairs)} {kind}-repair(s)")
    else:
        print(
            f"{len(repairs)} {kind}-repair(s) -- INCOMPLETE: "
            f"budget exhausted ({partial.exhausted})"
        )
    for i, repair in enumerate(repairs[: args.limit]):
        print(f"repair {i}: -{sorted(map(repr, repair.deleted))} "
              f"+{sorted(map(repr, repair.inserted))}")
    if len(repairs) > args.limit:
        print(f"... {len(repairs) - args.limit} more (raise --limit)")
    return 0


def _cmd_cqa(args) -> int:
    db = _build_database(args.csv or ())
    constraints = _build_constraints(args)
    query = parse_query(args.query)
    note = ""
    if args.method == "enumerate":
        partial = consistent_answers_partial(db, constraints, query)
        answers = partial.value
        if not partial.complete:
            note = (
                f" -- INCOMPLETE: budget exhausted ({partial.exhausted}); "
                f"sound under-approximation "
                f"({partial.detail.get('fallback', '?')} fallback)"
            )
    elif args.method == "rewrite":
        answers = consistent_answers_fm(db, constraints, query)
    elif args.method == "sql":
        rewritten = fuxman_miller_rewrite(query, constraints, db)
        answers = answers_via_sql(db, rewritten)
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown method {args.method}")
    for row in sorted(answers, key=repr):
        print(",".join(str(v) for v in row))
    print(f"-- {len(answers)} consistent answer(s) via {args.method}{note}",
          file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# Observers shared by dispatch and serve
# ----------------------------------------------------------------------


def _add_observer_flags(parser: argparse.ArgumentParser) -> None:
    """``--telemetry``, and ``--record`` / ``--record-anomalies``."""
    parser.add_argument(
        "--telemetry", metavar="DIR",
        help="install the live telemetry plane and write events.jsonl, "
             "status.json, and metrics.prom into DIR",
    )
    record = parser.add_mutually_exclusive_group()
    record.add_argument(
        "--record", metavar="DIR",
        help="flight-record every request into DIR (one replayable "
             "JSON envelope per request; see 'obs replay')",
    )
    record.add_argument(
        "--record-anomalies", metavar="DIR", dest="record_anomalies",
        help="flight-record only anomalous requests (breaker trips, "
             "budget exhaustion, shadow disagreement, worker kills, "
             "errors) into DIR",
    )


@contextlib.contextmanager
def _observers(args):
    """Install the live plane on ``--telemetry`` and the flight recorder
    on ``--record`` / ``--record-anomalies`` for the block.

    Yields the function that writes status.json and metrics.prom, or
    None without ``--telemetry``.  On exit uninstalls both, reports the
    envelopes written and writes the status files a last time.
    """
    from .observability.flight import (
        FlightRecorder,
        install_recorder,
        uninstall_recorder,
    )
    from .observability.live import (
        LivePlane,
        install_live,
        uninstall_live,
        write_prometheus,
        write_status_json,
    )

    plane = recorder = None
    record_dir = args.record or args.record_anomalies

    def write_telemetry() -> None:
        write_status_json(
            os.path.join(args.telemetry, "status.json"), plane.status()
        )
        write_prometheus(
            os.path.join(args.telemetry, "metrics.prom"), plane.status()
        )

    try:
        if args.telemetry:
            os.makedirs(args.telemetry, exist_ok=True)
            plane = install_live(LivePlane(
                event_sink=os.path.join(args.telemetry, "events.jsonl"),
            ))
        if record_dir:
            os.makedirs(record_dir, exist_ok=True)
            recorder = install_recorder(FlightRecorder(
                record_dir,
                mode="all" if args.record else "anomaly",
            ))
        yield write_telemetry if plane is not None else None
    finally:
        if recorder is not None:
            uninstall_recorder()
            print(
                f"-- recorded {len(recorder.written)} flight "
                f"envelope(s) to {record_dir}",
                file=sys.stderr,
            )
        if plane is not None:
            uninstall_live()
            write_telemetry()
            plane.close()
            logger.info("wrote live telemetry to %s", args.telemetry)


def _cmd_dispatch(args) -> int:
    from .dispatch import (
        DEFAULT_LADDER,
        DispatchError,
        DispatchPolicy,
        Dispatcher,
    )
    from .runtime import FaultPlan, inject

    db = _build_database(args.csv or ())
    constraints = _build_constraints(args)
    query = parse_query(args.query)
    ladder = tuple(args.engine) if args.engine else DEFAULT_LADDER
    policy = DispatchPolicy(
        ladder=ladder,
        isolate=tuple(args.isolate or ()),
        shadow_rate=args.shadow_rate,
        shadow_seed=args.seed,
        rung_timeout=args.rung_timeout,
    )
    dispatcher = Dispatcher(policy)
    faults = contextlib.nullcontext()
    if args.fault_sqlite_rate or args.fault_starve_after is not None:
        faults = inject(FaultPlan(
            seed=args.seed,
            sqlite_failure_rate=args.fault_sqlite_rate,
            starve_steps_after=args.fault_starve_after,
        ))
    result = None
    errors = 0
    with _observers(args), faults:
        # --repeat N serves the same request N times through the one
        # stateful dispatcher — a seeded workload for the live plane
        # (breaker trips, rolling windows) without a driver script.
        for _ in range(max(1, args.repeat)):
            try:
                result = dispatcher.dispatch(
                    db, constraints, query, semantics=args.semantics
                )
            except DispatchError:
                if args.repeat <= 1:
                    raise
                errors += 1
    if result is None:
        raise DispatchError(
            f"all {args.repeat} repeated request(s) failed"
        )
    if errors:
        print(
            f"-- {errors}/{args.repeat} request(s) failed outright",
            file=sys.stderr,
        )
    for row in sorted(result.answers, key=repr):
        print(",".join(str(v) for v in row))
    note = ""
    if not result.complete:
        note = (
            " -- INCOMPLETE: sound under-approximation "
            f"({result.provenance.engine})"
        )
        upper = result.detail.get("upper_bound")
        if upper is not None:
            note += f"; upper bound has {len(upper)} answer(s)"
    print(
        f"-- {len(result.answers)} consistent answer(s) via "
        f"{result.provenance.engine}{note}",
        file=sys.stderr,
    )
    if args.provenance:
        print("-- ladder:", file=sys.stderr)
        for line in result.provenance.render().splitlines():
            print(f"--   {line}", file=sys.stderr)
    return 0


def _cmd_measure(args) -> int:
    db = _build_database(args.csv or ())
    constraints = _build_constraints(args)
    print(InconsistencyReport.of(db, constraints).render())
    return 0


# ----------------------------------------------------------------------
# serve: CQA-as-a-service
# ----------------------------------------------------------------------


class _TelemetryFlusher:
    """Calls *write* every *interval_s* seconds on the running event
    loop's default executor, never on the loop thread: the
    ``os.replace`` behind each status file can block for tens of
    milliseconds, and every request on the loop would wait it out."""

    def __init__(self, write, interval_s: float) -> None:
        import asyncio

        self._write = write
        self._interval_s = interval_s
        self._writing = None
        self._task = asyncio.ensure_future(self._run())

    async def _run(self) -> None:
        import asyncio

        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self._interval_s)
            self._writing = loop.run_in_executor(None, self._write)
            # Shielded, so that close() cancelling this task leaves
            # the write in flight for close() to wait out.
            await asyncio.shield(self._writing)

    async def close(self) -> None:
        """Stop flushing, then wait for a write in flight: a final
        write after this one would share its temp file."""
        import asyncio

        self._task.cancel()
        if self._writing is not None:
            await asyncio.wait([self._writing])


def _cmd_serve(args) -> int:
    if args.follower_of and not args.data_dir:
        raise SystemExit(
            "--follower-of requires --data-dir (the follower applies "
            "the shipped WAL to its own durable store)"
        )
    with _observers(args) as write_telemetry:
        recovery_failure = _serve(args, write_telemetry)
    if recovery_failure:
        from .serve.store import StoreCorruptionError

        exc = recovery_failure[0]
        print(f"error: recovery failed: {exc}", file=sys.stderr)
        if isinstance(exc, StoreCorruptionError):
            return EXIT_STORE_CORRUPT
        return 2
    print("-- server stopped cleanly", file=sys.stderr)
    return 0


def _serve(args, write_telemetry) -> List[BaseException]:
    """Serve until SIGINT or SIGTERM, then drain.  *write_telemetry*
    (None without ``--telemetry``) is flushed every
    ``--status-interval``.  Returns the recovery failure, if any."""
    import asyncio
    import signal

    from .dispatch import DispatchPolicy, PoolConfig, WorkerPool
    from .runtime.faults import FaultPlan, inject
    from .serve import (
        AdmissionController,
        CQAHTTPServer,
        CQAService,
        ServerConfig,
        TenantPolicy,
    )

    pool = None
    isolate = tuple(args.isolate or ())
    if args.workers > 0:
        pool = WorkerPool(PoolConfig(
            size=args.workers,
            max_requests=args.max_requests_per_worker,
            max_rss_kb=args.max_rss_kb,
        )).start()
        logger.info(
            "warm worker pool ready: %d worker(s)", args.workers
        )
    store = None
    if args.data_dir:
        from .serve.store import StorePolicy, TenantStore

        os.makedirs(args.data_dir, exist_ok=True)
        store = TenantStore(args.data_dir, StorePolicy(
            fsync=args.fsync,
            fsync_interval=args.fsync_interval,
            compact_every=args.compact_every,
        ))
    # Seeded storage chaos (the CI crash drive): installed for the
    # whole server lifetime so WAL appends fault deterministically.
    chaos = contextlib.nullcontext()
    if args.fault_storage_short_rate or args.fault_storage_fsync_rate:
        chaos = inject(FaultPlan(
            seed=args.fault_seed,
            storage_short_write_rate=args.fault_storage_short_rate,
            storage_fsync_fail_rate=args.fault_storage_fsync_rate,
            max_storage_faults=args.fault_storage_max,
        ))
    service = CQAService(
        policy=DispatchPolicy(isolate=isolate),
        pool=pool,
        admission=AdmissionController(TenantPolicy(
            max_concurrent=args.max_concurrent,
            max_queue=args.max_queue,
            quota_requests=args.quota_requests,
            quota_window_s=args.quota_window,
        )),
        store=store,
    )

    def _preload() -> None:
        if not args.csv or args.follower_of:
            # A follower's databases arrive over the replication
            # stream; a locally preloaded one would be shadowed state.
            return
        db = _build_database(args.csv)
        constraints = _build_constraints(args)
        service.register_instance(
            args.db_name,
            db,
            constraints,
            constraint_spec={
                "fd": list(args.fd or []),
                "ind": list(args.ind or []),
                "dc": list(args.dc or []),
            },
        )
        logger.info(
            "registered database %r: %d fact(s)", args.db_name, len(db)
        )

    if store is None:
        _preload()
    server = CQAHTTPServer(service, ServerConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
    ))

    recovery_failure: List[BaseException] = []

    async def _main() -> None:
        # Listen first, recover second: the server answers /healthz
        # with 503 {"phase": "recovering"} while WAL replay runs, so
        # orchestrators see liveness without being served from a
        # half-recovered registry.
        await server.start()
        print(
            f"-- serving CQA on http://{args.host}:{server.port} "
            f"(pool={args.workers}, isolate={list(isolate)}"
            + (f", data-dir={args.data_dir}" if store is not None else "")
            + ")",
            file=sys.stderr,
            flush=True,
        )
        loop = asyncio.get_event_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)

        def _recover_and_preload() -> None:
            try:
                info = service.recover()
                _preload()
                print(
                    f"-- recovered {info['databases']} database(s) "
                    f"through lsn {info.get('last_lsn', 0)} "
                    f"({info.get('records_replayed', 0)} replayed) in "
                    f"{info.get('elapsed_s', 0.0):.3f}s",
                    file=sys.stderr,
                    flush=True,
                )
                if args.follower_of:
                    from .serve import ReplicaConfig

                    service.start_follower(ReplicaConfig(
                        upstream=args.follower_of,
                        follower_id=args.replica_id,
                        poll_interval_s=args.replica_poll_interval,
                        max_stale_s=args.max_stale_s,
                    ))
                    print(
                        f"-- following {args.follower_of} as "
                        f"{args.replica_id!r} (catching up; reads "
                        f"shed past {args.max_stale_s}s staleness)",
                        file=sys.stderr,
                        flush=True,
                    )
            except BaseException as exc:  # noqa: BLE001 — must surface
                recovery_failure.append(exc)
                loop.call_soon_threadsafe(stop.set)

        recovering = None
        if store is not None:
            recovering = loop.run_in_executor(
                None, _recover_and_preload
            )

        flusher = None
        if write_telemetry is not None:
            flusher = _TelemetryFlusher(
                write_telemetry, args.status_interval
            )
        serving = asyncio.ensure_future(server.serve_forever())
        await stop.wait()
        print("-- draining ...", file=sys.stderr, flush=True)
        if flusher is not None:
            await flusher.close()
        if recovering is not None:
            await recovering
        serving.cancel()
        await server.stop()

    with chaos:
        asyncio.run(_main())
    return recovery_failure


def _cmd_loadgen(args) -> int:
    import json as _json

    from .serve.loadgen import (
        EXIT_UNSOUND,
        run_closed_loop,
        run_open_loop,
    )

    payload = {
        "db": args.db,
        "query": args.query,
        "semantics": args.semantics,
        "tenant": args.tenant,
    }
    if args.request_timeout is not None:
        payload["timeout_s"] = args.request_timeout
    expect = None
    if args.expect:
        with open(args.expect, "r", encoding="utf-8") as handle:
            expect = _json.load(handle)
        if not isinstance(expect, list):
            raise SystemExit(
                f"{args.expect}: expected a JSON list of answer rows"
            )
    mix = dict(
        mutation_rate=args.mutation_rate,
        mutate_relation=args.mutate_relation,
        mutate_width=args.mutate_width,
        seed=args.seed,
        read_your_writes=args.read_your_writes,
        read_port=args.read_port,
    )
    if args.rate is not None:
        report = run_open_loop(
            args.host,
            args.port,
            payload,
            rate_per_s=args.rate,
            duration_s=args.duration,
            expect=expect,
            **mix,
        )
    else:
        report = run_closed_loop(
            args.host,
            args.port,
            payload,
            total=args.requests,
            concurrency=args.concurrency,
            expect=expect,
            **mix,
        )
    print(report.render(), file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            _json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        logger.info("wrote load report to %s", args.out)
    if args.check and not report.sound:
        print(
            f"error: {report.wrong} wrong answer(s), "
            f"{report.malformed} malformed response(s), "
            f"{report.ryw_violations} read-your-writes violation(s)",
            file=sys.stderr,
        )
        return EXIT_UNSOUND
    return 0


# ----------------------------------------------------------------------
# store: durable tenant data directories
# ----------------------------------------------------------------------


def _cmd_store_inspect(args) -> int:
    import json as _json

    from .serve.store import inspect_store

    print(_json.dumps(inspect_store(args.data_dir), indent=2,
                      sort_keys=True))
    return 0


def _cmd_store_verify(args) -> int:
    import json as _json

    from .serve.store import verify_store

    report = verify_store(args.data_dir)
    print(_json.dumps(report, indent=2, sort_keys=True))
    for note in report["repairable"]:
        print(f"note: repairable at next recovery: {note}",
              file=sys.stderr)
    if not report["ok"]:
        for problem in report["problems"]:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_STORE_CORRUPT
    return 0


# ----------------------------------------------------------------------
# replica: failover operations against a running server
# ----------------------------------------------------------------------


def _cmd_replica(args) -> int:
    import json as _json

    from .serve.replica import json_request, parse_server_url

    try:
        server = parse_server_url(args.url)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.replica_command == "status":
        status, body = json_request(*server, "GET", "/v1/replica/status")
    elif args.replica_command == "promote":
        status, body = json_request(
            *server, "POST", "/v1/replica/promote", {}
        )
    else:  # fence
        status, body = json_request(
            *server, "POST", "/v1/replica/fence", {"epoch": args.epoch}
        )
    print(_json.dumps(body, indent=2, sort_keys=True))
    if status >= 400:
        print(f"error: server answered {status}", file=sys.stderr)
        return 2
    return 0


# ----------------------------------------------------------------------
# obs: trace analysis and perf-regression gating
# ----------------------------------------------------------------------


def _load_trace_trees(path):
    """Parse a JSONL trace into (root trees, final metrics snapshot)."""
    from .observability import build_trees, read_trace

    records = read_trace(path)
    snapshot = None
    for record in records:
        if record.get("kind") == "metrics":
            snapshot = record.get("snapshot")
    return build_trees(records), snapshot


def _cmd_obs_report(args) -> int:
    from .observability.analysis import render_report

    roots, snapshot = _load_trace_trees(args.trace_file)
    print(render_report(roots, snapshot, top=args.top))
    return 0


def _cmd_obs_flamegraph(args) -> int:
    import pathlib

    from .observability.analysis import render_flamegraph

    roots, _ = _load_trace_trees(args.trace_file)
    out = args.output or str(
        pathlib.Path(args.trace_file).with_suffix(".html")
    )
    html = render_flamegraph(roots, title=f"trace: {args.trace_file}")
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(html)
    print(f"wrote {out}", file=sys.stderr)
    return 0


def _cmd_obs_diff(args) -> int:
    from .observability.analysis import (
        diff_suites,
        exit_code,
        load_suite,
        render_findings,
    )

    findings = diff_suites(
        load_suite(args.old),
        load_suite(args.new),
        threshold=args.threshold,
    )
    print(render_findings(findings, counters_only=args.counters_only))
    return exit_code(findings, counters_only=args.counters_only)


def _cmd_obs_check(args) -> int:
    from .observability.analysis import (
        check_baselines,
        exit_code,
        render_findings,
    )

    findings = check_baselines(
        args.baseline, args.results, threshold=args.threshold
    )
    print(render_findings(findings, counters_only=args.counters_only))
    return exit_code(findings, counters_only=args.counters_only)


def _load_status(path) -> dict:
    import json

    with open(path, "r", encoding="utf-8") as handle:
        status = json.load(handle)
    if not isinstance(status, dict):
        raise SystemExit(f"{path}: not a status document")
    return status


def _cmd_obs_status(args) -> int:
    from .observability.live import prometheus_text, render_status

    status = _load_status(args.status_file)
    if args.prom:
        sys.stdout.write(prometheus_text(status))
    else:
        print(render_status(status))
    return 0


def _cmd_obs_watch(args) -> int:
    import time as _time

    from .observability.live import render_status

    for i in range(args.count):
        if i:
            _time.sleep(args.interval)
        try:
            status = _load_status(args.status_file)
        except FileNotFoundError:
            print(f"(waiting for {args.status_file})", file=sys.stderr)
            continue
        print(render_status(status))
        if i + 1 < args.count:
            print("---")
    return 0


def _cmd_obs_slo(args) -> int:
    from .observability.live import (
        EXIT_SLO_VIOLATION,
        evaluate_slos,
        load_slo_config,
        render_slo,
    )

    slos = load_slo_config(args.config)
    status = _load_status(args.status)
    results = evaluate_slos(slos, status)
    print(render_slo(results))
    violated = [r for r in results if not r["ok"]]
    if violated and args.check:
        print(
            f"-- {len(violated)} SLO(s) violated", file=sys.stderr
        )
        return EXIT_SLO_VIOLATION
    return 0


def _cmd_obs_replay(args) -> int:
    from .observability.flight.replay import replay_file

    divergent = 0
    for path in args.envelopes:
        try:
            report = replay_file(path)
        except ReproError as exc:
            print(f"{path}: replay failed: {exc}", file=sys.stderr)
            divergent += 1
            continue
        print(report.render())
        if not report.ok:
            divergent += 1
    if divergent:
        print(
            f"-- {divergent}/{len(args.envelopes)} envelope(s) "
            "diverged from their recording",
            file=sys.stderr,
        )
        return EXIT_REPLAY_DIVERGENCE
    return 0


def _cmd_obs_explain(args) -> int:
    from .observability.flight import read_envelope
    from .observability.flight.replay import explain_envelope

    print(explain_envelope(read_envelope(args.envelope)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Database repairs and consistent query answering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="report constraint violations")
    _add_common(check)
    check.add_argument("--limit", type=int, default=10)
    check.set_defaults(func=_cmd_check)

    repairs = sub.add_parser("repairs", help="enumerate repairs")
    _add_common(repairs)
    repairs.add_argument(
        "--cardinality", action="store_true",
        help="C-repairs instead of S-repairs",
    )
    repairs.add_argument("--limit", type=int, default=10)
    repairs.set_defaults(func=_cmd_repairs)

    cqa = sub.add_parser("cqa", help="consistent query answering")
    _add_common(cqa)
    cqa.add_argument(
        "--query", required=True, metavar="'Q(X) :- R(X, Y)'",
    )
    cqa.add_argument(
        "--method", choices=("enumerate", "rewrite", "sql"),
        default="enumerate",
    )
    cqa.set_defaults(func=_cmd_cqa)

    dispatch = sub.add_parser(
        "dispatch",
        help="consistent answers via the resilient multi-engine ladder",
    )
    _add_common(dispatch)
    dispatch.add_argument(
        "--query", required=True, metavar="'Q(X) :- R(X, Y)'",
    )
    dispatch.add_argument(
        "--semantics", choices=("s", "c", "delete-only"), default="s",
        help="repair semantics the answers must be certain under",
    )
    dispatch.add_argument(
        "--engine", action="append", metavar="NAME",
        help="restrict the ladder to these engines, in order "
             "(repeatable; default: the full ladder)",
    )
    dispatch.add_argument(
        "--isolate", action="append", metavar="NAME",
        help="run this engine in a watchdogged subprocess "
             "(repeatable; only isolatable engines are eligible)",
    )
    dispatch.add_argument(
        "--rung-timeout", type=float, metavar="SECONDS",
        dest="rung_timeout",
        help="wall-clock cap per ladder rung",
    )
    dispatch.add_argument(
        "--shadow-rate", type=float, default=0.0, dest="shadow_rate",
        help="fraction of requests cross-checked on a second engine",
    )
    dispatch.add_argument(
        "--seed", type=int, default=0,
        help="seed for the shadow sampling stream",
    )
    dispatch.add_argument(
        "--provenance", action="store_true",
        help="print the per-rung ladder outcomes to stderr",
    )
    dispatch.add_argument(
        "--fault-sqlite-rate", type=float, default=0.0,
        dest="fault_sqlite_rate", metavar="RATE",
        help="chaos testing: inject SQLite failures at this rate "
             "(seeded by --seed)",
    )
    dispatch.add_argument(
        "--fault-starve-after", type=int, dest="fault_starve_after",
        metavar="STEPS",
        help="chaos testing: starve cooperative budgets after STEPS "
             "checkpointed steps",
    )
    dispatch.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="serve the request N times through one dispatcher "
             "(a seeded workload for --telemetry; default 1)",
    )
    _add_observer_flags(dispatch)
    dispatch.set_defaults(func=_cmd_dispatch)

    measure = sub.add_parser(
        "measure", help="repair-based inconsistency measures"
    )
    _add_common(measure)
    measure.set_defaults(func=_cmd_measure)

    serve = sub.add_parser(
        "serve",
        help="CQA-as-a-service: admission-controlled HTTP server over "
             "a warm worker pool",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8145,
        help="listen port (0 picks a free one; default 8145)",
    )
    serve.add_argument(
        "--csv", action="append", metavar="REL=FILE",
        help="preload a relation into the named database (repeatable)",
    )
    serve.add_argument(
        "--fd", action="append", metavar="'R: A -> B'",
        help="functional dependency of the preloaded database",
    )
    serve.add_argument(
        "--ind", action="append", metavar="'R[A] <= S[B]'",
        help="inclusion dependency of the preloaded database",
    )
    serve.add_argument(
        "--dc", action="append", metavar="':- R(X), S(X)'",
        help="denial constraint of the preloaded database",
    )
    serve.add_argument(
        "--db-name", default="default", dest="db_name",
        help="name the preloaded --csv database registers under",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="warm isolation workers (0 disables the pool; default 2)",
    )
    serve.add_argument(
        "--isolate", action="append", metavar="NAME",
        help="run this engine on the warm pool (repeatable; only "
             "isolatable engines are eligible)",
    )
    serve.add_argument(
        "--max-requests-per-worker", type=int, default=200,
        dest="max_requests_per_worker", metavar="N",
        help="recycle a worker after N served requests (default 200)",
    )
    serve.add_argument(
        "--max-rss-kb", type=int, dest="max_rss_kb", metavar="KB",
        help="recycle a worker whose resident set exceeds KB",
    )
    serve.add_argument(
        "--max-concurrent", type=int, default=4, dest="max_concurrent",
        help="per-tenant concurrent requests (default 4)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=8, dest="max_queue",
        help="per-tenant queued requests beyond those running "
             "(default 8)",
    )
    serve.add_argument(
        "--quota-requests", type=int, dest="quota_requests", metavar="N",
        help="per-tenant request quota per window (default unmetered)",
    )
    serve.add_argument(
        "--quota-window", type=float, default=60.0, dest="quota_window",
        metavar="SECONDS", help="quota window length (default 60)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=8, dest="max_inflight",
        help="server-wide concurrent budgeted requests before the "
             "server-busy shed (default 8)",
    )
    serve.add_argument(
        "--data-dir", dest="data_dir", metavar="DIR",
        help="durable tenant state: WAL + snapshots live in DIR; "
             "mutations ack only after a durable append, and startup "
             "recovers snapshot + WAL suffix (healthz is 503 "
             "'recovering' until replay completes)",
    )
    serve.add_argument(
        "--fsync", choices=("always", "interval", "never"),
        default="interval",
        help="WAL fsync policy (default interval; see README "
             "'Durability' for the tradeoffs)",
    )
    serve.add_argument(
        "--fsync-interval", type=int, default=16, dest="fsync_interval",
        metavar="N", help="appends between fsyncs under the interval "
                          "policy (default 16)",
    )
    serve.add_argument(
        "--compact-every", type=int, default=256, dest="compact_every",
        metavar="N",
        help="WAL records between snapshot compactions (default 256)",
    )
    serve.add_argument(
        "--fault-seed", type=int, default=0, dest="fault_seed",
        help="seed for injected storage faults (default 0)",
    )
    serve.add_argument(
        "--fault-storage-short-rate", type=float, default=0.0,
        dest="fault_storage_short_rate", metavar="RATE",
        help="per-append probability of an injected short write "
             "(crash-drive chaos; default 0)",
    )
    serve.add_argument(
        "--fault-storage-fsync-rate", type=float, default=0.0,
        dest="fault_storage_fsync_rate", metavar="RATE",
        help="per-fsync probability of an injected fsync failure "
             "(default 0)",
    )
    serve.add_argument(
        "--fault-storage-max", type=int, dest="fault_storage_max",
        metavar="N",
        help="cap total injected storage faults (default unlimited)",
    )
    serve.add_argument(
        "--follower-of", dest="follower_of", metavar="URL",
        help="run as a read-only follower of the primary at URL "
             "(http://host:port); requires --data-dir, serves reads "
             "under the min_lsn/as_of_lsn staleness contract, and "
             "rejects mutations with 403 not-primary until promoted",
    )
    serve.add_argument(
        "--replica-id", default="follower", dest="replica_id",
        metavar="NAME",
        help="stable follower identity reported to the primary "
             "(per-follower lag gauges; default 'follower')",
    )
    serve.add_argument(
        "--replica-poll-interval", type=float, default=0.2,
        dest="replica_poll_interval", metavar="SECONDS",
        help="follower pause between empty pulls (default 0.2)",
    )
    serve.add_argument(
        "--max-stale-s", type=float, default=5.0, dest="max_stale_s",
        metavar="SECONDS",
        help="follower reads shed once the replication feed has been "
             "silent this long (default 5)",
    )
    _add_observer_flags(serve)
    serve.add_argument(
        "--status-interval", type=float, default=5.0,
        dest="status_interval", metavar="SECONDS",
        help="how often --telemetry flushes status.json (default 5)",
    )
    verbosity = serve.add_mutually_exclusive_group()
    verbosity.add_argument("-v", "--verbose", action="store_true")
    verbosity.add_argument("-q", "--quiet", action="store_true")
    serve.set_defaults(func=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive load at a CQA server and validate every response",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=8145)
    loadgen.add_argument(
        "--db", default="default", help="registered database to query"
    )
    loadgen.add_argument(
        "--query", required=True, metavar="'Q(X) :- R(X, Y)'",
    )
    loadgen.add_argument(
        "--semantics", choices=("s", "c", "delete-only"), default="s",
    )
    loadgen.add_argument("--tenant", default="loadgen")
    loadgen.add_argument(
        "--request-timeout", type=float, dest="request_timeout",
        metavar="SECONDS", help="per-request timeout_s sent upstream",
    )
    loadgen.add_argument(
        "--requests", type=int, default=100, metavar="N",
        help="closed loop: total requests (default 100)",
    )
    loadgen.add_argument(
        "--concurrency", type=int, default=4, metavar="C",
        help="closed loop: concurrent workers (default 4)",
    )
    loadgen.add_argument(
        "--rate", type=float, metavar="RPS",
        help="open loop: fixed arrival rate (overrides --requests)",
    )
    loadgen.add_argument(
        "--duration", type=float, default=30.0, metavar="SECONDS",
        help="open loop: how long to fire (default 30)",
    )
    loadgen.add_argument(
        "--expect", metavar="FILE",
        help="JSON list of expected certain-answer rows; complete "
             "responses must match exactly, degraded ones must be a "
             "subset",
    )
    loadgen.add_argument(
        "--mutation-rate", type=float, default=0.0,
        dest="mutation_rate", metavar="RATE",
        help="mixed read/write workload: per-request probability of a "
             "unique-row insert via POST /v1/db/<db>/mutate instead of "
             "the query (default 0; point --mutate-relation at a "
             "relation the query does not mention)",
    )
    loadgen.add_argument(
        "--mutate-relation", default="Audit", dest="mutate_relation",
        metavar="REL",
        help="relation the mutation workload inserts into "
             "(default Audit)",
    )
    loadgen.add_argument(
        "--mutate-width", type=int, default=2, dest="mutate_width",
        metavar="N",
        help="column count of the mutated relation (default 2)",
    )
    loadgen.add_argument(
        "--seed", type=int, default=0,
        help="seed for the read/write mix (default 0)",
    )
    loadgen.add_argument(
        "--read-your-writes", action="store_true",
        dest="read_your_writes",
        help="thread the highest durably acked lsn into every read as "
             "min_lsn; a 200 whose as_of_lsn is below it is a "
             "read-your-writes violation (fails --check)",
    )
    loadgen.add_argument(
        "--read-port", type=int, dest="read_port", metavar="PORT",
        help="send reads to PORT (a follower) while mutations keep "
             "hitting --port (the primary)",
    )
    loadgen.add_argument(
        "--out", metavar="FILE", help="write the report JSON to FILE"
    )
    loadgen.add_argument(
        "--check", action="store_true",
        help="exit 9 when any response was wrong, malformed, or a "
             "stale read below a requested min_lsn",
    )
    verbosity = loadgen.add_mutually_exclusive_group()
    verbosity.add_argument("-v", "--verbose", action="store_true")
    verbosity.add_argument("-q", "--quiet", action="store_true")
    loadgen.set_defaults(func=_cmd_loadgen)

    store = sub.add_parser(
        "store",
        help="inspect and verify durable tenant data directories "
             "(serve --data-dir)",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_inspect = store_sub.add_parser(
        "inspect",
        help="describe the WAL and snapshots (read-only, no recovery)",
    )
    store_inspect.add_argument("data_dir", metavar="DIR")
    store_inspect.set_defaults(func=_cmd_store_inspect)
    store_verify = store_sub.add_parser(
        "verify",
        help="verify the CRC chain, snapshot digests, and a clean "
             "replay; exit 10 when acknowledged records cannot be "
             "recovered",
    )
    store_verify.add_argument("data_dir", metavar="DIR")
    store_verify.set_defaults(func=_cmd_store_verify)

    replica = sub.add_parser(
        "replica",
        help="failover operations against a running server "
             "(status / promote / fence)",
    )
    replica_sub = replica.add_subparsers(
        dest="replica_command", required=True
    )
    replica_status = replica_sub.add_parser(
        "status",
        help="print the server's replication status document",
    )
    replica_status.add_argument(
        "--url", required=True, metavar="http://host:port",
    )
    replica_status.set_defaults(func=_cmd_replica)
    replica_promote = replica_sub.add_parser(
        "promote",
        help="promote a follower: stop pulling, drain the residual "
             "stream, bump the epoch durably, start taking writes",
    )
    replica_promote.add_argument(
        "--url", required=True, metavar="http://host:port",
    )
    replica_promote.set_defaults(func=_cmd_replica)
    replica_fence = replica_sub.add_parser(
        "fence",
        help="fence a (possibly ex-primary) server: all further "
             "appends at or below --epoch are rejected durably",
    )
    replica_fence.add_argument(
        "--url", required=True, metavar="http://host:port",
    )
    replica_fence.add_argument(
        "--epoch", type=int, required=True,
        help="the fencing epoch (the new primary's epoch)",
    )
    replica_fence.set_defaults(func=_cmd_replica)

    obs = sub.add_parser(
        "obs", help="analyse traces and gate benchmark regressions"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    report = obs_sub.add_parser(
        "report", help="text analysis of a JSONL trace"
    )
    report.add_argument("trace_file", metavar="TRACE.jsonl")
    report.add_argument(
        "--top", type=int, default=25,
        help="rows in the per-span-name table (default 25)",
    )
    report.set_defaults(func=_cmd_obs_report)

    flame = obs_sub.add_parser(
        "flamegraph", help="self-contained HTML flame view of a trace"
    )
    flame.add_argument("trace_file", metavar="TRACE.jsonl")
    flame.add_argument(
        "-o", "--output", metavar="FILE.html",
        help="output path (default: trace path with .html suffix)",
    )
    flame.set_defaults(func=_cmd_obs_flamegraph)

    threshold_help = (
        "allowed timing ratio new/old before a regression is flagged "
        "(default 1.5)"
    )
    counters_only_help = (
        "gate on deterministic counters only; timing findings become "
        "advisory (for noisy shared runners)"
    )

    diff = obs_sub.add_parser(
        "diff", help="compare two BENCH_<suite>.json files"
    )
    diff.add_argument("old", metavar="OLD.json")
    diff.add_argument("new", metavar="NEW.json")
    diff.add_argument("--threshold", type=float, default=1.5,
                      help=threshold_help)
    diff.add_argument("--counters-only", action="store_true",
                      help=counters_only_help)
    diff.set_defaults(func=_cmd_obs_diff)

    check_bench = obs_sub.add_parser(
        "check", help="gate benchmark results against committed baselines"
    )
    check_bench.add_argument(
        "--baseline", default="benchmarks/baselines",
        help="directory of committed BENCH_*.json baselines",
    )
    check_bench.add_argument(
        "--results", default="benchmarks/results",
        help="directory of freshly generated BENCH_*.json results",
    )
    check_bench.add_argument("--threshold", type=float, default=1.5,
                             help=threshold_help)
    check_bench.add_argument("--counters-only", action="store_true",
                             help=counters_only_help)
    check_bench.set_defaults(func=_cmd_obs_check)

    status = obs_sub.add_parser(
        "status", help="render a live status.json snapshot"
    )
    status.add_argument("status_file", metavar="STATUS.json")
    status.add_argument(
        "--prom", action="store_true",
        help="emit Prometheus text exposition instead of the human view",
    )
    status.set_defaults(func=_cmd_obs_status)

    watch = obs_sub.add_parser(
        "watch", help="re-render a status.json snapshot periodically"
    )
    watch.add_argument("status_file", metavar="STATUS.json")
    watch.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="seconds between renders (default 2)",
    )
    watch.add_argument(
        "--count", type=int, default=1000000, metavar="N",
        help="stop after N renders (default: effectively forever)",
    )
    watch.set_defaults(func=_cmd_obs_watch)

    slo = obs_sub.add_parser(
        "slo", help="evaluate declared SLOs against a status snapshot"
    )
    slo.add_argument(
        "--config", required=True, metavar="SLO.json",
        help="SLO config ({'slos': [...]}; see benchmarks/slo.json)",
    )
    slo.add_argument(
        "--status", required=True, metavar="STATUS.json",
        help="live status snapshot to evaluate against",
    )
    slo.add_argument(
        "--check", action="store_true",
        help="exit 7 when any objective is violated (for CI gating)",
    )
    slo.set_defaults(func=_cmd_obs_slo)

    replay = obs_sub.add_parser(
        "replay",
        help="re-execute recorded flight envelopes and diff the "
             "answer/provenance bit-for-bit",
    )
    replay.add_argument(
        "envelopes", nargs="+", metavar="ENVELOPE.json",
        help="flight envelope file(s) written by dispatch --record",
    )
    replay.set_defaults(func=_cmd_obs_replay)

    explain = obs_sub.add_parser(
        "explain",
        help="render the decision trail of a recorded flight envelope",
    )
    explain.add_argument(
        "envelope", metavar="ENVELOPE.json",
        help="flight envelope file written by dispatch --record",
    )
    explain.set_defaults(func=_cmd_obs_explain)
    return parser


def _configure_logging(args) -> None:
    if getattr(args, "quiet", False):
        level = logging.ERROR
    elif getattr(args, "verbose", False):
        level = logging.INFO
    else:
        level = logging.WARNING
    logging.basicConfig(
        level=level, format="%(name)s: %(message)s", stream=sys.stderr
    )
    logging.getLogger("repro").setLevel(level)


def _build_budget(args) -> Budget:
    """The run-wide execution budget from CLI flags, or None."""
    timeout = getattr(args, "timeout", None)
    max_steps = getattr(args, "max_steps", None)
    strict = getattr(args, "strict", False)
    if timeout is None and max_steps is None:
        if strict:
            raise SystemExit(
                "--strict requires a budget (--timeout and/or --max-steps)"
            )
        return None
    return Budget(timeout=timeout, max_steps=max_steps, strict=strict)


def main(argv: Sequence[str] = None) -> int:
    """CLI entry point.

    Exit codes: 0 success (including graceful partial results under an
    exhausted budget, and ``dispatch`` answers degraded to the sound
    INCOMPLETE bracket), 1 inconsistency reported by ``check``, 2 bad
    input (unparsable constraints/queries, missing files, unsupported
    query fragments, a ``dispatch`` request no engine can serve),
    6 execution budget exhausted without a sound partial result
    (``--strict``, or a method with no anytime variant).
    ``obs diff`` / ``obs check`` add the gating codes of
    :mod:`repro.observability.analysis.regression`: 3 timing
    regression, 4 counter drift, 5 benchmark set changed; ``obs slo
    --check`` exits 7 when a declared objective is violated; ``obs
    replay`` exits 8 when a recorded flight envelope diverges from its
    recording; ``loadgen --check`` exits 9 when the server answered
    wrongly, shed malformedly, or served a stale read below a
    requested ``min_lsn``; ``store verify`` (and a ``serve
    --data-dir`` that cannot recover) exits 10 when the durable log
    holds acknowledged records that cannot be recovered.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args)
    trace = getattr(args, "trace", None)
    metrics = getattr(args, "metrics", False)
    profile_mem = getattr(args, "profile_mem", False)
    budget = _build_budget(args)
    try:
        with use_budget(budget):
            if trace or metrics or profile_mem:
                from .observability.analysis import profile_memory

                with collect() as collector:
                    if profile_mem:
                        with profile_memory(collector.tracer):
                            code = args.func(args)
                    else:
                        code = args.func(args)
                if trace:
                    lines = collector.write_trace(trace)
                    logger.info(
                        "wrote %d trace line(s) to %s", lines, trace
                    )
                if metrics or (profile_mem and not trace):
                    print(collector.summary(), file=sys.stderr)
                return code
            return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET_EXHAUSTED
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
