"""B12 — CQA-as-a-service: isolation overhead and serving latency.

The warm worker pool exists to amortize process isolation: one-shot
``run_isolated`` pays interpreter start-up plus package import on every
request, the pool pays it once at spawn.  The headline measurement here
is that ratio — ``test_warm_pool_speedup`` *asserts* the warm path is
at least 5× cheaper per request, so a regression that silently
re-introduces a per-request spawn fails the suite, not just drifts a
number.  The HTTP benchmark measures the full serving stack (socket,
admission, executor, pool, dispatch ladder) with deterministic request
counters for the perf gate.
"""

import time

import pytest

import _benchlib  # noqa: F401  (sys.path bootstrap for direct runs)

from _drivelib import EMPLOYEE_SPEC, Harness
from repro.dispatch import (
    CQARequest,
    DispatchPolicy,
    PoolConfig,
    WorkerPool,
    run_isolated,
)
from repro.serve import (
    AdmissionController,
    CQAService,
    ServerConfig,
    TenantPolicy,
    run_closed_loop,
)
from repro.workloads import employee


def _request():
    scenario = employee()
    return CQARequest(
        scenario.db, scenario.constraints, scenario.queries["Q2"]
    )


@pytest.fixture(scope="module")
def warm_pool():
    pool = WorkerPool(PoolConfig(size=1)).start()
    yield pool
    pool.drain()


def test_spawn_per_request(benchmark):
    request = _request()
    answer = benchmark(
        run_isolated, "fm-sql", request, watchdog_s=30.0
    )
    assert answer.complete


def test_warm_pool_per_request(benchmark, warm_pool):
    request = _request()
    answer = benchmark(
        warm_pool.run_engine, "fm-sql", request, watchdog_s=30.0
    )
    assert answer.complete


def test_warm_pool_speedup(warm_pool):
    """The pool's reason to exist: ≥5× per-request isolation overhead
    reduction vs spawn-per-request (best-of-3 each)."""
    request = _request()

    def best_of(fn, rounds=3):
        samples = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        return min(samples)

    spawn_s = best_of(
        lambda: run_isolated("fm-sql", request, watchdog_s=30.0)
    )
    warm_s = best_of(
        lambda: warm_pool.run_engine("fm-sql", request, watchdog_s=30.0)
    )
    speedup = spawn_s / warm_s
    print(
        f"\nisolation overhead: spawn {spawn_s * 1000:.1f}ms  "
        f"warm {warm_s * 1000:.1f}ms  speedup {speedup:.1f}x"
    )
    assert speedup >= 5.0, (
        f"warm pool only {speedup:.1f}x faster than spawn-per-request "
        f"({spawn_s * 1000:.1f}ms vs {warm_s * 1000:.1f}ms)"
    )


CERTAIN_NAMES = [["page"], ["smith"], ["stowe"]]


def test_http_closed_loop(benchmark):
    """Full stack, sequential (concurrency 1 → no degrades, no sheds:
    the request counters stay deterministic for the perf gate)."""
    pool = WorkerPool(PoolConfig(size=1)).start()
    service = CQAService(
        policy=DispatchPolicy(isolate=("fm-sql",)),
        pool=pool,
        admission=AdmissionController(TenantPolicy()),
    )
    service.register_db("emp", EMPLOYEE_SPEC)
    harness = Harness(service, ServerConfig(port=0, max_inflight=4))
    with harness as server:
        payload = {
            "db": "emp",
            "query": "Q(X) :- Employee(X, Y)",
            "timeout_s": 20.0,
        }
        report = benchmark(
            run_closed_loop,
            "127.0.0.1",
            server.port,
            payload,
            total=20,
            concurrency=1,
            expect=CERTAIN_NAMES,
        )
        assert report.sound
        assert report.ok == 20 and report.shed == 0


if __name__ == "__main__":
    from _benchlib import main as _bench_main

    raise SystemExit(_bench_main(__file__))
