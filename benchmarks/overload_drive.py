"""CI overload driver: 2× capacity must bend the server, never break it.

Phase A (overload): measure the server's sequential capacity, then fire
an *open-loop* load at twice that rate for ``--duration`` seconds — the
arrival schedule does not relent when the server slows, so the server
must shed or degrade.  The gate:

* **zero wrong answers** — every 200 is the exact certain-answer set
  (``complete: true``) or an explicitly-marked sound subset;
* **well-formed sheds** — every 429/503 carries ``error: "shed"``, a
  reason, ``retry_after_s``, and a ``Retry-After`` header;
* **visible backpressure** — at 2× capacity at least one request must
  have been shed or degraded (a server that "handled everything" at 2×
  its measured capacity measured wrong);
* **zero worker leaks** — the pool is back at full strength after the
  storm, and no worker process survives the graceful stop.

Phase B (record): a fresh server runs 100 deterministic sequential
requests under the flight recorder (``mode="all"``) and writes the
envelopes plus the live-plane status document.  CI then replays every
envelope (``repro obs replay``) and checks the serving SLOs against the
status — exercising the observability plane over the serving stack.

Exit codes: 0 clean, 9 (EXIT_UNSOUND) on any wrong/malformed response,
1 on any other gate failure.

Run locally::

    PYTHONPATH=src python benchmarks/overload_drive.py --duration 10
"""

import argparse

from _drivelib import EMPLOYEE_SPEC, Harness, fail, worker_children
from repro.dispatch import DispatchPolicy, PoolConfig, WorkerPool
from repro.observability.flight import (
    FlightRecorder,
    install_recorder,
    uninstall_recorder,
)
from repro.observability.live import (
    LivePlane,
    install_live,
    uninstall_live,
    write_status_json,
)
from repro.serve import (
    AdmissionController,
    CQAService,
    ServerConfig,
    TenantPolicy,
    run_closed_loop,
    run_open_loop,
)
from repro.serve.loadgen import EXIT_UNSOUND

CERTAIN_NAMES = [["page"], ["smith"], ["stowe"]]


def phase_overload(duration_s: float) -> int:
    pool = WorkerPool(PoolConfig(size=2)).start()
    service = CQAService(
        policy=DispatchPolicy(isolate=("fm-sql",)),
        pool=pool,
        admission=AdmissionController(
            TenantPolicy(
                max_concurrent=4,
                max_queue=4,
                default_timeout_s=2.0,
                max_timeout_s=5.0,
            )
        ),
    )
    service.register_db("emp", EMPLOYEE_SPEC)
    payload = {
        "db": "emp",
        "query": "Q(X) :- Employee(X, Y)",
        "timeout_s": 2.0,
    }
    with Harness(
        service, ServerConfig(port=0, max_inflight=6)
    ) as server:
        calibration = run_closed_loop(
            "127.0.0.1",
            server.port,
            payload,
            total=30,
            concurrency=1,
            expect=CERTAIN_NAMES,
        )
        if not calibration.sound:
            return fail(
                "calibration run unsound:\n" + calibration.render(),
                EXIT_UNSOUND,
            )
        capacity_rps = calibration.to_dict()["throughput_rps"]
        rate = max(2.0, 2.0 * capacity_rps)
        print(
            f"-- capacity ~{capacity_rps:.1f} rps sequential; "
            f"driving open-loop at {rate:.1f} rps for {duration_s:.0f}s"
        )
        report = run_open_loop(
            "127.0.0.1",
            server.port,
            payload,
            rate_per_s=rate,
            duration_s=duration_s,
            expect=CERTAIN_NAMES,
        )
        print(report.render())
        if not report.sound:
            return fail(
                f"{report.wrong} wrong answer(s), "
                f"{report.malformed} malformed shed(s) under overload",
                EXIT_UNSOUND,
            )
        if report.shed + report.degraded == 0:
            return fail(
                "no shed or degraded response at 2x capacity — "
                "backpressure never engaged"
            )
        if report.ok == 0:
            return fail("no exact answer served under overload")
        if report.transport_errors:
            return fail(
                f"{report.transport_errors} transport error(s): "
                "connections must survive overload"
            )
        if not pool.wait_ready(timeout_s=30.0):
            return fail(
                f"pool did not return to full strength: {pool.stats()}"
            )
        stats = pool.stats()
        print(
            f"-- pool after storm: {stats['workers']} worker(s), "
            f"{stats['spawns']} spawn(s), {stats['recycles']} recycle(s)"
        )
    leftover = worker_children()
    if leftover:
        return fail(f"worker process(es) leaked: {leftover}")
    print("-- overload phase clean: sound, shedding, leak-free")
    return 0


def phase_record(flight_dir: str, status_out: str, total: int) -> int:
    plane = install_live(LivePlane())
    recorder = install_recorder(FlightRecorder(flight_dir, mode="all"))
    try:
        pool = WorkerPool(PoolConfig(size=1)).start()
        service = CQAService(
            policy=DispatchPolicy(isolate=("fm-sql",)),
            pool=pool,
            admission=AdmissionController(TenantPolicy()),
        )
        service.register_db("emp", EMPLOYEE_SPEC)
        with Harness(
            service, ServerConfig(port=0, max_inflight=4)
        ) as server:
            report = run_closed_loop(
                "127.0.0.1",
                server.port,
                {
                    "db": "emp",
                    "query": "Q(X) :- Employee(X, Y)",
                    "timeout_s": 20.0,
                },
                total=total,
                concurrency=1,
                expect=CERTAIN_NAMES,
            )
        print(report.render())
        if not report.sound:
            return fail("recorded run unsound", EXIT_UNSOUND)
        if report.ok != total:
            return fail(
                f"recorded run expected {total} exact answers, "
                f"got {report.ok}"
            )
    finally:
        uninstall_recorder()
        uninstall_live()
    if len(recorder.written) != total:
        return fail(
            f"flight recorder captured {len(recorder.written)} of "
            f"{total} requests"
        )
    write_status_json(status_out, plane.status())
    print(
        f"-- recorded {len(recorder.written)} envelope(s) to "
        f"{flight_dir}/, status to {status_out}"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--duration", type=float, default=30.0,
        help="open-loop overload duration in seconds (default 30)",
    )
    parser.add_argument(
        "--record-total", type=int, default=100,
        help="requests in the recorded replay run (default 100)",
    )
    parser.add_argument(
        "--flight-dir", default="flight_serve",
        help="directory for phase-B flight envelopes",
    )
    parser.add_argument(
        "--status-out", default="serve_status.json",
        help="phase-B live-plane status document path",
    )
    parser.add_argument(
        "--skip-overload", action="store_true",
        help="run only the record phase",
    )
    parser.add_argument(
        "--skip-record", action="store_true",
        help="run only the overload phase",
    )
    args = parser.parse_args(argv)
    if not args.skip_overload:
        rc = phase_overload(args.duration)
        if rc:
            return rc
    if not args.skip_record:
        rc = phase_record(
            args.flight_dir, args.status_out, args.record_total
        )
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
