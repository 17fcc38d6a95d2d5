"""B13 — Durable tenant state: WAL append, compaction, recovery cost.

Durability is only free when nobody measures it.  This suite pins the
cost of the write-ahead log against the serving path it protects: the
headline gate — ``test_wal_overhead_vs_serve_p50`` — *asserts* that a
durable WAL append (the serving-default ``interval`` fsync policy)
costs less than 15% of the serve p50, so a regression that turns every
mutation into a synchronous disk stall fails the suite instead of
quietly doubling tail latency.  The remaining benchmarks track the
absolute append cost per fsync policy, snapshot compaction, and
crash-recovery replay — the numbers behind the fsync-policy tradeoff
table in DESIGN.md.
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
from repro.serve.store.wal import WriteAheadLog

APPENDS_PER_ROUND = 100

_seq = itertools.count(1)


def _mutation_payload():
    i = next(_seq)
    return {"insert": [["Audit", f"bench{i:09d}", "v"]]}


@pytest.fixture
def scratch_dir():
    path = tempfile.mkdtemp(prefix="bench_store_")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _append_batch(wal, count=APPENDS_PER_ROUND):
    for _ in range(count):
        i = next(_seq)
        wal.append(
            {"lsn": i, "op": "mutate", "db": "emp",
             "insert": [["Audit", f"bench{i:09d}", "v"]], "delete": []}
        )


@pytest.mark.parametrize("policy", ["never", "interval", "always"])
def test_wal_append(benchmark, scratch_dir, policy):
    """Cost of one durable append batch per fsync policy (the rows of
    the DESIGN.md tradeoff table)."""
    wal = WriteAheadLog(
        f"{scratch_dir}/wal-{policy}.log",
        fsync=policy,
        fsync_interval=16,
    ).open()
    benchmark(_append_batch, wal)
    wal.close()


def test_snapshot_compaction(benchmark, scratch_dir):
    """Folding a 200-record WAL into a content-addressed snapshot."""
    store = TenantStore(
        scratch_dir, StorePolicy(fsync="never", compact_every=10**9)
    )
    store.recover()
    store.append_put_db("emp", EMPLOYEE_AUDIT_SPEC)
    for i in range(200):
        store.append_mutate(
            "emp", insert=[["Audit", f"seed{i:05d}", "v"]], delete=[]
        )
    benchmark(store.compact)
    store.close()


def test_recovery_replay(benchmark, scratch_dir):
    """Crash-only startup: scan + CRC-verify + replay a 500-record WAL
    (the recovery-time SLO's unit cost)."""
    seeder = TenantStore(
        scratch_dir, StorePolicy(fsync="never", compact_every=10**9)
    )
    seeder.recover()
    seeder.append_put_db("emp", EMPLOYEE_AUDIT_SPEC)
    for i in range(500):
        seeder.append_mutate(
            "emp", insert=[["Audit", f"seed{i:05d}", "v"]], delete=[]
        )
    seeder.close()

    def recover_once():
        store = TenantStore(scratch_dir, StorePolicy(fsync="never"))
        recovered = store.recover()
        store.close()
        assert recovered.records_replayed == 501
        return recovered

    benchmark(recover_once)


def test_durable_mutation_request(benchmark, scratch_dir):
    """The full mutation path — parse, validate, WAL append (interval
    fsync), registry swap — as served to a tenant."""
    pool = WorkerPool(PoolConfig(size=1)).start()
    service = CQAService(
        policy=DispatchPolicy(isolate=("fm-sql",)),
        pool=pool,
        admission=AdmissionController(TenantPolicy()),
        store=TenantStore(
            scratch_dir, StorePolicy(fsync="interval", fsync_interval=16)
        ),
    )
    service.recover()
    service.register_db("emp", EMPLOYEE_AUDIT_SPEC)

    def mutate_once():
        status, body, _ = service.handle_mutate(
            "emp", _mutation_payload()
        )
        assert status == 200 and "lsn" in body
        return body

    benchmark(mutate_once)
    service.close()


def test_wal_overhead_vs_serve_p50(scratch_dir):
    """The durability tax gate: the WAL append a mutation adds on top
    of the in-memory registry swap — under the serving-default fsync
    policy — must cost < 15% of the serve p50 (median CQA request
    through the service)."""
    pool = WorkerPool(PoolConfig(size=1)).start()
    service = CQAService(
        policy=DispatchPolicy(isolate=("fm-sql",)),
        pool=pool,
        admission=AdmissionController(TenantPolicy()),
        store=TenantStore(
            scratch_dir, StorePolicy(fsync="interval", fsync_interval=16)
        ),
    )
    service.recover()
    service.register_db("emp", EMPLOYEE_AUDIT_SPEC)
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

    append_samples = []
    for _ in range(200):
        i = next(_seq)
        t0 = time.perf_counter()
        lsn = service.store.append_mutate(
            "emp", insert=[["Audit", f"bench{i:09d}", "v"]], delete=[]
        )
        append_samples.append(time.perf_counter() - t0)
        assert lsn > 0
    service.close()

    serve_p50 = statistics.median(serve_samples)
    append_p50 = statistics.median(append_samples)
    ratio = append_p50 / serve_p50
    print(
        f"\ndurability tax: serve p50 {serve_p50 * 1000:.2f}ms  "
        f"WAL append p50 {append_p50 * 1000:.3f}ms  "
        f"ratio {ratio * 100:.1f}%"
    )
    assert ratio < 0.15, (
        f"WAL append overhead is {ratio * 100:.1f}% of serve p50 "
        f"(gate: <15%) — append p50 {append_p50 * 1000:.3f}ms vs "
        f"serve p50 {serve_p50 * 1000:.2f}ms"
    )


if __name__ == "__main__":
    from _benchlib import main as _bench_main

    raise SystemExit(_bench_main(__file__))
