"""CI crash-recovery driver: kill -9 mid-storm, lose nothing acked.

The drive is one cycle of the durability contract, end to end, against
the real server process:

1. **Storm** — start ``repro serve --data-dir --compact-every 16``
   (optionally under a seeded storage-fault plan), register a tenant
   database, and fire a mutation storm over HTTP, recording every
   *acknowledged* row (a 200 carrying an ``lsn``).  Refusals (503
   ``store-unavailable`` after an injected fault trips the crash-only
   latch) are recorded too — they must NOT reappear after recovery as
   if they had been acked.  The storm compacts several times, so
   recovery loads a snapshot and replays a WAL suffix.
2. **Kill** — SIGKILL the server at a seeded random point mid-storm.
   No drain, no atexit, no flush: whatever the WAL holds is the state.
3. **Verify offline** — ``verify_store`` must accept the directory
   (torn tails are repairable; acked-record corruption is not).
4. **Recover** — restart the server clean and wait for ``/healthz`` to
   flip from 503 ``recovering`` to 200 ``ready``; then check via
   ``/v1/cqa`` that every acknowledged row survived, and evaluate the
   recovery-time SLO (``store-recovery-p99``) against ``/status``.

Exit codes: 0 clean; 9 (EXIT_UNSOUND) on any acknowledged-then-lost
mutation; 10 (EXIT_STORE_CORRUPT) when offline verification refuses the
directory; 7 (EXIT_SLO_VIOLATION) on a recovery-time SLO breach; 1 on
any other gate failure.

Run locally::

    PYTHONPATH=src python benchmarks/crash_drive.py --fault-plan short-write --seed 7
"""

import argparse
import os
import random
import shutil
import signal
import tempfile

from _drivelib import (
    EMPLOYEE_AUDIT_SPEC,
    ROOT,
    fail,
    free_port,
    kill,
    request,
    spawn,
    terminate,
    wait_ready,
)
from repro.cli import EXIT_STORE_CORRUPT
from repro.observability.live.slo import (
    EXIT_SLO_VIOLATION,
    evaluate_slos,
    load_slo_config,
    render_slo,
)
from repro.serve.loadgen import EXIT_UNSOUND
from repro.serve.store import verify_store

#: Seeded storage-fault plans for the CI matrix.  Bit flips are absent
#: by design: they corrupt *acknowledged* records, which recovery must
#: refuse (exit 10) rather than survive — that refusal path is covered
#: by tests/test_store.py, not by this zero-loss gate.
FAULT_PLANS = {
    "clean": [],
    "short-write": [
        "--fault-storage-short-rate", "0.03",
        "--fault-storage-max", "2",
    ],
    # Lower rate than short-write: with ``--fsync always`` every append
    # fsyncs, and the first fault latches the store crash-only, so a
    # higher rate would end the storm before it accumulates acks.
    "fsync-fail": [
        "--fault-storage-fsync-rate", "0.01",
        "--fault-storage-max", "2",
    ],
}


def phase_storm(port, data_dir, plan, seed):
    """Returns (acked rows list, refused count) after the kill."""
    rng = random.Random(seed)
    extra = list(FAULT_PLANS[plan])
    if extra:
        extra = ["--fault-seed", str(seed)] + extra
    # The default period (256 records) would outlast every storm.
    extra += ["--compact-every", "16"]
    server = spawn(port, data_dir, extra=extra)
    acked, refused = [], 0
    try:
        ok, _ = wait_ready(port)
        if not ok:
            raise RuntimeError("server never became ready for the storm")
        status, body = request(
            port, "PUT", "/v1/db/emp", EMPLOYEE_AUDIT_SPEC
        )
        if status != 200:
            raise RuntimeError(f"registration refused: {status} {body}")
        kill_after = rng.randint(40, 160)
        for i in range(1, kill_after + 1):
            row = f"row{seed:04d}x{i:05d}"
            try:
                status, body = request(
                    port, "POST", "/v1/db/emp/mutate",
                    {"insert": [["Audit", row, "v"]]},
                )
            except OSError:
                break
            if status == 200 and "lsn" in body:
                acked.append((body["lsn"], row))
            elif status == 503:
                refused += 1
            else:
                raise RuntimeError(
                    f"unexpected mutation response {status}: {body}"
                )
        os.kill(server.pid, signal.SIGKILL)
        server.wait(timeout=15.0)
    finally:
        kill(server)
    print(
        f"-- storm: {len(acked)} acked, {refused} refused "
        f"(plan {plan}, seed {seed}), then SIGKILL"
    )
    return acked, refused


def phase_recover(port, data_dir, telemetry, acked, slo_path):
    server = spawn(port, data_dir, telemetry=telemetry)
    try:
        ok, saw_recovering = wait_ready(port)
        if not ok:
            return fail("restarted server never reached ready")
        status, body = request(
            port, "POST", "/v1/cqa",
            {"db": "emp", "query": "Q(K) :- Audit(K, V)"},
            timeout=30.0,
        )
        if status != 200:
            return fail(f"post-recovery query failed: {status} {body}")
        recovered = {row[0] for row in body.get("answers", [])}
        missing = [row for _, row in acked if row not in recovered]
        if missing:
            return fail(
                f"{len(missing)} acknowledged mutation(s) lost after "
                f"recovery (first: {missing[:5]})",
                EXIT_UNSOUND,
            )
        status, doc = request(port, "GET", "/status", timeout=10.0)
        if status != 200 or doc.get("phase") != "ready":
            return fail(f"/status not ready: {status} {doc}")
        store = doc.get("store") or {}
        print(
            f"-- recovered: {len(recovered)} row(s), last_lsn "
            f"{store.get('last_lsn')}, replayed "
            f"{(store.get('recovery') or {}).get('records_replayed')}, "
            f"healthz saw recovering={saw_recovering}"
        )
        results = evaluate_slos(load_slo_config(slo_path), doc)
        recovery = [r for r in results if r["name"].startswith("store-")]
        print(render_slo(recovery or results))
        if any(not r["ok"] for r in recovery):
            return fail(
                "recovery-time SLO violated", EXIT_SLO_VIOLATION
            )
    finally:
        terminate(server)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--seed", type=int, default=0,
        help="seed for the kill point and the storage-fault plan",
    )
    parser.add_argument(
        "--fault-plan", choices=sorted(FAULT_PLANS), default="clean",
        help="seeded storage-fault plan for the storm phase",
    )
    parser.add_argument(
        "--data-dir", default=None,
        help="durable directory (default: a fresh temp dir)",
    )
    parser.add_argument(
        "--slo", default=str(ROOT / "benchmarks" / "slo.json"),
        help="SLO config with the store-recovery objective",
    )
    args = parser.parse_args(argv)

    scratch = None
    data_dir = args.data_dir
    if data_dir is None:
        scratch = tempfile.mkdtemp(prefix="crash_drive_")
        data_dir = os.path.join(scratch, "data")
    telemetry = os.path.join(
        scratch or os.path.dirname(data_dir) or ".", "telemetry"
    )
    try:
        storm_port = free_port()
        acked, refused = phase_storm(
            storm_port, data_dir, args.fault_plan, args.seed
        )
        if len(acked) < 10:
            return fail(
                f"storm acked only {len(acked)} mutation(s) — "
                "nothing meaningful to recover"
            )
        report = verify_store(data_dir)
        if not report["ok"]:
            return fail(
                f"offline verification refused the store: "
                f"{report['problems']}",
                EXIT_STORE_CORRUPT,
            )
        for note in report.get("repairable", []):
            print(f"-- repairable: {note}")
        max_acked = max(lsn for lsn, _ in acked)
        if report["last_lsn"] < max_acked:
            return fail(
                f"on-disk last_lsn {report['last_lsn']} < max acked "
                f"lsn {max_acked}: acknowledged suffix missing",
                EXIT_UNSOUND,
            )
        return phase_recover(
            free_port(), data_dir, telemetry, acked, args.slo
        )
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
