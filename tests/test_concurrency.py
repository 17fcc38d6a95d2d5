"""Serving-path races: one instance's conflict graph and planned
recycles.

Each test forces an interleaving the serving path must survive: eight
requests taking a fresh version's conflict graph at once, a parent
gaining graphs while its child advances from it, and a size-1 pool
retiring its only worker on a planned recycle while requests keep
arriving.
"""

import sys
import threading
import time

from repro.constraints.conflicts import ConflictHypergraph
from repro.dispatch import (
    CQARequest,
    Dispatcher,
    PoolConfig,
    PoolSaturatedError,
    WorkerPool,
)
from repro.logic.parser import parse_fd, parse_query
from repro.observability.live import live
from repro.relational.database import fact
from repro.workloads import employee, employee_key_violations

SELF_JOIN = parse_query("Q(X) :- Employee(X, Y), Employee(Z, Y)")


class TestOneGraphPerVersion:
    def test_eight_threads_take_a_fresh_versions_graph(self):
        """Threads race to advance the parent's graph and publish the
        result as one version's graph while they dispatch on it: each
        gets a graph equal to a build, and every request is served."""
        scenario = employee_key_violations(6, 4, 3, seed=5)
        constraints = scenario.constraints
        parent = scenario.db
        ConflictHypergraph.of(parent, constraints)
        dispatcher = Dispatcher()
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(5):
                fresh = parent.insert([fact("Employee", "dup0", round_)])
                start = threading.Barrier(8, timeout=30.0)
                graphs, results, errors = [], [], []

                def serve():
                    try:
                        start.wait()
                        graphs.append(
                            ConflictHypergraph.of(fresh, constraints)
                        )
                        results.append(dispatcher.dispatch(
                            fresh, constraints, SELF_JOIN
                        ))
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)

                with live():
                    threads = [
                        threading.Thread(target=serve) for _ in range(8)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=30.0)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                expected = ConflictHypergraph.build(fresh, constraints)
                assert len(graphs) == 8
                assert all(graph == expected for graph in graphs)
                assert ConflictHypergraph.of(fresh, constraints) == expected
                assert len(results) == 8
                assert all(result.complete for result in results)
        finally:
            sys.setswitchinterval(old)

    def test_a_parent_gains_a_graph_while_its_child_advances(self):
        """Threads publish graphs for new constraint tuples on a parent
        while others advance its child's graphs under the tuples the
        parent had, so the child tests what it has left to advance from
        while the parent's graph dict grows: no thread fails, and every
        graph equals a build."""
        scenario = employee_key_violations(6, 4, 3, seed=5)
        (key,) = scenario.constraints
        fds = [
            parse_fd("Employee: Name -> Salary", name=f"fd{i}")
            for i in range(72)
        ]
        advanced = [(key, fd) for fd in fds[:24]]
        published = [(fd, key) for fd in fds[24:]]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(200):
                parent = scenario.db.insert([fact("Employee", "p", round_)])
                for constraints in advanced:
                    ConflictHypergraph.of(parent, constraints)
                child = parent.insert([fact("Employee", "c", round_)])
                start = threading.Barrier(4, timeout=30.0)
                errors = []

                def take(db, tuples):
                    try:
                        start.wait()
                        for constraints in tuples:
                            ConflictHypergraph.of(db, constraints)
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)

                threads = [
                    threading.Thread(target=take, args=args) for args in (
                        (child, advanced),
                        (child, advanced[::-1]),
                        (parent, published[::2]),
                        (parent, published[1::2]),
                    )
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                for db, tuples in ((child, advanced), (parent, published)):
                    for constraints in tuples:
                        assert ConflictHypergraph.of(
                            db, constraints
                        ) == ConflictHypergraph.build(db, constraints)
        finally:
            sys.setswitchinterval(old)


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
