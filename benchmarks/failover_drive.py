"""CI failover driver: kill -9 the primary, promote, lose nothing.

The drive is one cycle of the replication contract, end to end,
against real server processes:

1. **Topology** — start one primary (``repro serve --data-dir``) and
   two followers (``repro serve --follower-of``), each with its own
   durable directory, and wait for the followers to bootstrap off the
   stream and reach ``ready``.
2. **Storm** — fire a mutation storm at the primary, recording every
   *acknowledged* row (a 200 carrying an ``lsn``), while issuing
   read-your-writes reads (``min_lsn`` = last acked LSN) against the
   followers.  Every follower read must either honour the bound
   (``as_of_lsn >= min_lsn``) or shed with a typed ``stale-read`` 503
   — a 200 below the bound is a staleness-contract violation.
3. **Kill & promote** — quiesce (both followers caught up to the max
   acked LSN), SIGKILL the primary mid-flight with no drain, pick the
   most-caught-up follower, and ``POST /v1/replica/promote`` it.  The
   new primary must hold *every* acknowledged row and accept writes
   stamped with the bumped epoch.
4. **Fence the ghost** — restart the old primary from its directory
   (it still believes it leads at the stale epoch), fence it with the
   new epoch, and verify its mutations are refused: the split-brain
   window is closed by the epoch, not by an operator being quick.
5. **SLO** — evaluate the promotion-time objective
   (``replica-promotion-p99``) against the new primary's ``/status``.

Exit codes: 0 clean; 9 (EXIT_UNSOUND) on any acknowledged-then-lost
mutation or any read served below its requested ``min_lsn``; 7
(EXIT_SLO_VIOLATION) on a promotion-time SLO breach; 1 on any other
gate failure.

Run locally::

    PYTHONPATH=src python benchmarks/failover_drive.py --seed 7
"""

import argparse
import os
import random
import shutil
import signal
import sys
import tempfile
import time

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
from repro.observability.live.slo import (
    EXIT_SLO_VIOLATION,
    evaluate_slos,
    load_slo_config,
    render_slo,
)
from repro.serve.loadgen import EXIT_UNSOUND

READ_QUERY = "Q(K) :- Audit(K, V)"


def _replica_status(port):
    status, body = request(
        port, "GET", "/v1/replica/status", timeout=5.0
    )
    if status != 200:
        raise RuntimeError(f"replica status refused: {status} {body}")
    return body


def phase_storm(primary_port, follower_ports, seed, mutations):
    """Mutate the primary while read-your-writes reads hit followers.

    Returns (acked rows, staleness stats dict).  Raises on transport
    or protocol failures; min_lsn violations are *counted*, the caller
    turns them into the unsound exit.
    """
    rng = random.Random(seed)
    acked = []
    stats = {
        "ryw_reads": 0,
        "ryw_served": 0,
        "stale_shed": 0,
        "other_refusals": 0,
        "min_lsn_violations": 0,
    }
    for i in range(1, mutations + 1):
        row = f"row{seed:04d}x{i:05d}"
        status, body = request(
            primary_port, "POST", "/v1/db/emp/mutate",
            {"insert": [["Audit", row, "v"]]},
        )
        if status != 200 or "lsn" not in body:
            raise RuntimeError(
                f"primary refused mutation {i}: {status} {body}"
            )
        acked.append((body["lsn"], row))
        if i % 5 != 0:
            continue
        # Read-your-writes probe: the freshest ack is the bound.
        follower = rng.choice(follower_ports)
        min_lsn = acked[-1][0]
        stats["ryw_reads"] += 1
        status, body = request(
            follower, "POST", "/v1/cqa",
            {"db": "emp", "query": READ_QUERY, "min_lsn": min_lsn},
            timeout=30.0,
        )
        if status == 200:
            as_of = body.get("as_of_lsn")
            if not isinstance(as_of, int) or as_of < min_lsn:
                stats["min_lsn_violations"] += 1
            else:
                stats["ryw_served"] += 1
        elif status == 503 and body.get("error") == "stale-read":
            stats["stale_shed"] += 1
        else:
            stats["other_refusals"] += 1
    print(
        f"-- storm: {len(acked)} acked; RYW reads "
        f"{stats['ryw_reads']} (served {stats['ryw_served']}, "
        f"stale-shed {stats['stale_shed']}, other "
        f"{stats['other_refusals']}, violations "
        f"{stats['min_lsn_violations']})"
    )
    return acked, stats


def phase_quiesce(follower_ports, target_lsn, deadline_s=60.0):
    """Wait until every follower has applied *target_lsn*."""
    start = time.monotonic()
    remaining = dict.fromkeys(follower_ports)
    while time.monotonic() - start < deadline_s:
        for port in follower_ports:
            doc = _replica_status(port)
            remaining[port] = doc.get("last_lsn")
        if all(
            isinstance(lsn, int) and lsn >= target_lsn
            for lsn in remaining.values()
        ):
            print(
                f"-- quiesced: followers at {remaining} "
                f"(target {target_lsn})"
            )
            return True
        time.sleep(0.05)
    print(
        f"-- quiesce timed out: followers at {remaining}, "
        f"target {target_lsn}",
        file=sys.stderr,
    )
    return False


def phase_promote(follower_ports, acked):
    """SIGKILL already happened: promote the most-caught-up follower.

    Returns (exit code or None, winner port, loser port, new epoch).
    """
    by_lsn = sorted(
        follower_ports,
        key=lambda port: _replica_status(port).get("last_lsn") or 0,
    )
    winner, loser = by_lsn[-1], by_lsn[0]
    status, body = request(
        winner, "POST", "/v1/replica/promote", {}, timeout=30.0
    )
    if status != 200 or body.get("role") != "primary":
        return fail(f"promotion refused: {status} {body}"), 0, 0, 0
    epoch = body.get("epoch")
    if not isinstance(epoch, int) or epoch < 1:
        return (
            fail(f"promotion did not bump the epoch: {body}"),
            0, 0, 0,
        )
    print(
        f"-- promoted follower on port {winner}: epoch {epoch}, "
        f"last_lsn {body.get('last_lsn')}, "
        f"promotion {body.get('promotion_ms')}ms"
    )
    # Zero acked-then-lost: read *at* the max acked LSN on the new
    # primary and demand every acknowledged row in the answer.
    max_acked = max(lsn for lsn, _ in acked)
    status, body = request(
        winner, "POST", "/v1/cqa",
        {"db": "emp", "query": READ_QUERY, "min_lsn": max_acked},
        timeout=30.0,
    )
    if status != 200:
        return (
            fail(
                f"new primary cannot serve min_lsn={max_acked}: "
                f"{status} {body}",
                EXIT_UNSOUND,
            ),
            0, 0, 0,
        )
    surviving = {row[0] for row in body.get("answers", [])}
    missing = [row for _, row in acked if row not in surviving]
    if missing:
        return (
            fail(
                f"{len(missing)} acknowledged mutation(s) lost in "
                f"failover (first: {missing[:5]})",
                EXIT_UNSOUND,
            ),
            0, 0, 0,
        )
    # And the new primary takes writes, stamped with its epoch.
    status, body = request(
        winner, "POST", "/v1/db/emp/mutate",
        {"insert": [["Audit", "post-failover", "v"]]},
    )
    if status != 200 or "lsn" not in body:
        return (
            fail(f"new primary refused a write: {status} {body}"),
            0, 0, 0,
        )
    print(
        f"-- zero loss: {len(acked)} acked row(s) present; new "
        f"primary writes at lsn {body['lsn']}"
    )
    return None, winner, loser, epoch


def phase_fence_ghost(port, data_dir, epoch):
    """Restart the dead primary and prove the epoch fences it out."""
    ghost = spawn(port, data_dir)
    try:
        if not wait_ready(port)[0]:
            return fail("restarted ex-primary never became ready")
        doc = _replica_status(port)
        print(
            f"-- ghost: ex-primary back as {doc.get('role')} at "
            f"epoch {doc.get('epoch')} — fencing with epoch {epoch}"
        )
        status, body = request(
            port, "POST", "/v1/replica/fence", {"epoch": epoch}
        )
        if status != 200:
            return fail(f"fence refused: {status} {body}")
        status, body = request(
            port, "POST", "/v1/db/emp/mutate",
            {"insert": [["Audit", "split-brain", "v"]]},
        )
        if status == 200:
            return fail(
                "fenced ex-primary accepted a mutation — "
                "split-brain window open",
                EXIT_UNSOUND,
            )
        print(
            f"-- fenced: ex-primary refuses writes "
            f"({status} {body.get('error')})"
        )
    finally:
        terminate(ghost)
    return 0


def phase_slo(port, slo_path):
    status, doc = request(port, "GET", "/status", timeout=10.0)
    if status != 200:
        return fail(f"/status refused on new primary: {status}")
    results = evaluate_slos(load_slo_config(slo_path), doc)
    promotion = [r for r in results if r["name"].startswith("replica-")]
    print(render_slo(promotion or results))
    if any(not r["ok"] for r in promotion):
        return fail("promotion-time SLO violated", EXIT_SLO_VIOLATION)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--seed", type=int, default=0,
        help="seed for row names and follower read targeting",
    )
    parser.add_argument(
        "--mutations", type=int, default=60,
        help="storm size (each mutation is an fsynced append)",
    )
    parser.add_argument(
        "--slo", default=str(ROOT / "benchmarks" / "slo.json"),
        help="SLO config with the replica-promotion objective",
    )
    args = parser.parse_args(argv)

    scratch = tempfile.mkdtemp(prefix="failover_drive_")
    primary_port = free_port()
    follower_ports = [free_port(), free_port()]
    primary_dir = os.path.join(scratch, "primary")
    primary = None
    followers = []
    try:
        primary = spawn(primary_port, primary_dir)
        if not wait_ready(primary_port)[0]:
            return fail("primary never became ready")
        status, body = request(
            primary_port, "PUT", "/v1/db/emp", EMPLOYEE_AUDIT_SPEC
        )
        if status != 200:
            return fail(f"registration refused: {status} {body}")
        for index, port in enumerate(follower_ports, start=1):
            followers.append(
                spawn(
                    port,
                    os.path.join(scratch, f"follower{index}"),
                    extra=[
                        "--follower-of",
                        f"http://127.0.0.1:{primary_port}",
                        "--replica-id", f"f{index}",
                        "--replica-poll-interval", "0.05",
                    ],
                    telemetry=os.path.join(
                        scratch, f"telemetry{index}"
                    ),
                )
            )
        for port in follower_ports:
            if not wait_ready(port)[0]:
                return fail(f"follower on {port} never caught up to ready")
        acked, stats = phase_storm(
            primary_port, follower_ports, args.seed, args.mutations
        )
        if stats["min_lsn_violations"]:
            return fail(
                f"{stats['min_lsn_violations']} follower read(s) "
                f"served below their requested min_lsn",
                EXIT_UNSOUND,
            )
        if len(acked) < 10:
            return fail(
                f"storm acked only {len(acked)} mutation(s) — "
                "nothing meaningful to fail over"
            )
        max_acked = max(lsn for lsn, _ in acked)
        if not phase_quiesce(follower_ports, max_acked):
            return fail("followers never caught up to the storm")
        os.kill(primary.pid, signal.SIGKILL)
        primary.wait(timeout=15.0)
        print("-- primary SIGKILLed with no drain")
        code, winner, _loser, epoch = phase_promote(
            follower_ports, acked
        )
        if code is not None:
            return code
        # Evaluate the promotion SLO first: the live histogram is a
        # 60s rolling window, and the ghost restart below eats time.
        code = phase_slo(winner, args.slo)
        if code:
            return code
        return phase_fence_ghost(free_port(), primary_dir, epoch)
    finally:
        kill(primary)
        for server in followers:
            terminate(server)
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
