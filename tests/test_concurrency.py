"""Serving-path races: the dispatcher's shape cache and planned recycles.

Each test forces an interleaving the serving path must survive: two
requests evicting from a full shape cache at once, and a size-1 pool
retiring its only worker on a planned recycle while requests keep
arriving.
"""

import threading
import time

from repro.dispatch import (
    CQARequest,
    Dispatcher,
    PoolConfig,
    PoolSaturatedError,
    WorkerPool,
)
from repro.observability.live import live
from repro.workloads import employee, employee_key_violations


class _RendezvousCache(dict):
    """A shape cache whose evictors pick their victim together.

    Iterating (``next(iter(cache))`` picks the oldest key) snapshots the
    keys, then waits until a second thread has done the same, so two
    concurrent misses on a full cache choose the same victim.  A cache
    that serialises eviction never has a second iterator waiting: the
    barrier then times out and the lone evictor carries on.
    """

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.rendezvous = threading.Barrier(2, timeout=1.0)

    def __iter__(self):
        keys = list(super().__iter__())
        try:
            self.rendezvous.wait()
        except threading.BrokenBarrierError:
            pass
        return iter(keys)


class TestShapeCacheRace:
    def test_two_evictors_on_a_full_cache(self):
        dispatcher = Dispatcher()
        dispatcher._shape_cache = _RendezvousCache(  # noqa: SLF001
            ((("filler", i), None) for i in range(16))
        )
        first = employee()
        second = employee_key_violations(3, 2, 2, seed=5)
        requests = [
            (first, first.queries["Q1"]),
            (second, second.queries["all"]),
        ]
        errors = []

        def serve(scenario, query):
            try:
                dispatcher.dispatch(
                    scenario.db, scenario.constraints, query
                )
            except Exception as exc:  # noqa: BLE001 — the regression
                errors.append(exc)

        with live():
            threads = [
                threading.Thread(target=serve, args=request)
                for request in requests
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        cache = dispatcher._shape_cache  # noqa: SLF001
        assert len(cache) == 16
        for scenario, _ in requests:
            assert (scenario.db, tuple(scenario.constraints)) in cache


class TestPlannedRecycle:
    def test_size_one_pool_never_saturates_across_recycles(self):
        """Back-to-back requests on one worker with a tiny max_requests:
        each planned recycle must warm the successor before the old
        worker leaves, so no grab ever finds the pool empty."""
        scenario = employee()
        request = CQARequest(
            scenario.db, scenario.constraints, scenario.queries["Q2"]
        )
        pool = WorkerPool(
            PoolConfig(size=1, max_requests=2, grab_timeout_s=0.05)
        ).start()
        try:
            served = 0
            end = time.monotonic() + 60.0
            while pool.stats()["recycles"] < 2 and time.monotonic() < end:
                try:
                    pool.run_engine("fm-sql", request, watchdog_s=30.0)
                except PoolSaturatedError as exc:
                    raise AssertionError(
                        f"saturated after {served} requests: {exc}"
                    )
                served += 1
            stats = pool.stats()
            assert stats["recycle_reasons"].get("max-requests", 0) >= 2
            assert served >= 3 * 2
            assert pool.wait_ready(timeout_s=30.0)
            assert len(pool.stats()["pids"]) == 1
        finally:
            pool.drain()
