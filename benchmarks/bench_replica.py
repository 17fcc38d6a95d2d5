"""B14 — Replication: shipping cost, apply throughput, catch-up time.

Replication must not tax the primary: the headline gate —
``test_pull_overhead_vs_serve_p50`` — *asserts* that serving one
replica pull (the in-memory tail slice a caught-up follower's
long-poll re-checks) costs less than 10% of the serve p50, so a
regression that turns WAL shipping into a per-pull disk scan fails
the suite instead of quietly stealing primary capacity.  The
remaining benchmarks track the follower-side apply throughput (the
ceiling on how fast a replica can drain lag) and the snapshot
bootstrap path (how long a blank follower takes to become servable).
"""

import itertools
import shutil
import statistics
import tempfile
import time

import pytest

import _benchlib  # noqa: F401  (sys.path bootstrap for direct runs)

from _drivelib import EMPLOYEE_AUDIT_SPEC
from repro.dispatch import DispatchPolicy, PoolConfig, WorkerPool
from repro.serve import (
    AdmissionController,
    CQAService,
    TenantPolicy,
)
from repro.serve.store import StorePolicy, TenantStore

RECORDS_PER_ROUND = 100

_seq = itertools.count(1)


@pytest.fixture
def scratch_dir():
    path = tempfile.mkdtemp(prefix="bench_replica_")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _seed_primary(directory, mutations):
    store = TenantStore(
        directory, StorePolicy(fsync="never", compact_every=10**9)
    )
    store.recover()
    store.append_put_db("emp", EMPLOYEE_AUDIT_SPEC)
    for i in range(mutations):
        store.append_mutate(
            "emp", insert=[["Audit", f"seed{i:06d}", "v"]], delete=[]
        )
    return store


def test_records_since_tail_slice(benchmark, scratch_dir):
    """Shipping cost on the primary: slicing + deep-copying a
    100-record tail out of a 500-record stream (what one follower
    pull costs the primary at 100 records of lag)."""
    store = _seed_primary(f"{scratch_dir}/p", 500)
    from_lsn = store.last_lsn - RECORDS_PER_ROUND

    def ship_once():
        records = store.records_since(from_lsn)
        assert len(records) == RECORDS_PER_ROUND
        return records

    benchmark(ship_once)
    store.close()


def test_apply_replicated_throughput(benchmark, scratch_dir):
    """Follower-side drain rate: durably applying a 100-record shipped
    batch (WAL append + spec apply per record) — the ceiling on how
    fast a lagging replica catches up.  Each round replays the same
    batch into a blank follower so the measured stream never runs dry."""
    primary = _seed_primary(f"{scratch_dir}/p", RECORDS_PER_ROUND)
    batch = primary.records_since(0)
    rounds = itertools.count(1)

    def apply_batch():
        follower = TenantStore(
            f"{scratch_dir}/f{next(rounds)}",
            StorePolicy(fsync="never", compact_every=10**9),
        )
        follower.recover()
        for record in batch:
            assert follower.apply_replicated(record) is True
        assert follower.last_lsn == primary.last_lsn
        follower.close()

    benchmark(apply_batch)
    primary.close()


def test_snapshot_bootstrap_catch_up(benchmark, scratch_dir):
    """Blank-follower catch-up: adopt a 500-mutation primary's state
    transfer (parse + snapshot write + WAL reset) — the path a new or
    hopelessly lagged follower takes instead of replaying the stream."""
    primary = _seed_primary(f"{scratch_dir}/p", 500)
    transfer = primary.state_transfer()
    rounds = itertools.count(1)

    def bootstrap_once():
        follower = TenantStore(
            f"{scratch_dir}/f{next(rounds)}",
            StorePolicy(fsync="never"),
        )
        follower.recover()
        follower.install_state(
            transfer["databases"], transfer["lsn"], transfer["epoch"]
        )
        assert follower.last_lsn == primary.last_lsn
        follower.close()

    benchmark(bootstrap_once)
    primary.close()


def test_pull_overhead_vs_serve_p50(scratch_dir):
    """The replication tax gate: the steady-state replica pull — the
    handler path a *caught-up* follower's poll exercises on every
    cycle — must cost < 10% of the serve p50 (median CQA request
    through the service), so shipping WAL to followers never becomes
    a first-order cost on the primary.  (The cost of shipping an
    actual record tail is amortized per shipped record and tracked by
    ``test_records_since_tail_slice``.)"""
    pool = WorkerPool(PoolConfig(size=1)).start()
    service = CQAService(
        policy=DispatchPolicy(isolate=("fm-sql",)),
        pool=pool,
        admission=AdmissionController(TenantPolicy()),
        store=TenantStore(
            scratch_dir,
            StorePolicy(fsync="never", compact_every=10**9),
        ),
    )
    service.recover()
    service.register_db("emp", EMPLOYEE_AUDIT_SPEC)
    for i in range(100):
        service.store.append_mutate(
            "emp", insert=[["Audit", f"seed{i:06d}", "v"]], delete=[]
        )
    payload = {
        "db": "emp",
        "query": "Q(X) :- Employee(X, Y)",
        "timeout_s": 20.0,
    }
    # Warm the pool and the engine caches before sampling.
    for _ in range(3):
        status, body, _ = service.handle_cqa(dict(payload))
        assert status == 200, body

    serve_samples = []
    for _ in range(15):
        t0 = time.perf_counter()
        status, body, _ = service.handle_cqa(dict(payload))
        serve_samples.append(time.perf_counter() - t0)
        assert status == 200, body

    pull_samples = []
    last = service.store.last_lsn
    for _ in range(200):
        t0 = time.perf_counter()
        status, body, _ = service.handle_replica_pull(
            {
                "from_lsn": last,
                "epoch": 0,
                "follower": "bench",
                "wait_s": 0.0,
            }
        )
        pull_samples.append(time.perf_counter() - t0)
        assert status == 200, body
        assert body["records"] == []
    service.close()

    serve_p50 = statistics.median(serve_samples)
    pull_p50 = statistics.median(pull_samples)
    ratio = pull_p50 / serve_p50
    print(
        f"\nreplication tax: serve p50 {serve_p50 * 1000:.2f}ms  "
        f"pull p50 {pull_p50 * 1000:.3f}ms  "
        f"ratio {ratio * 100:.1f}%"
    )
    assert ratio < 0.10, (
        f"replica pull overhead is {ratio * 100:.1f}% of serve p50 "
        f"(gate: <10%) — pull p50 {pull_p50 * 1000:.3f}ms vs "
        f"serve p50 {serve_p50 * 1000:.2f}ms"
    )


if __name__ == "__main__":
    from _benchlib import main as _bench_main

    raise SystemExit(_bench_main(__file__))
