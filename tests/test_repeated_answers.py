"""Repeated answers: a warm read whose answer set equals the last one
crosses the worker pipe as a reference.

A pool worker and its parent-side handle each keep, per warm name, the
answer set of the name's last successful keyed reply, when its values
are ``json_stable``.  A reply whose set equals the kept one carries no
rows (``answers_kept: "same"``), and the pool answers with the handle's
own set.  These tests pin that every body is still the one in-process
fm-sql gives on the same version, values and types alike; that a rule
keyed by equality alone would hand ``1`` the answer of ``1.0``; that a
failed run, an eviction and a recycle make the next reply ship its rows;
that a reference to a set the parent does not hold retires the worker
instead of answering; and that the parent never keeps a set for a name
its worker does not list as warm.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.dispatch import (
    CQARequest,
    DispatchPolicy,
    InstanceKey,
    PoolConfig,
    WorkerPool,
)
from repro.dispatch import pool as pool_mod
from repro.dispatch.engines import FuxmanMillerSqlEngine
from repro.dispatch.worker import WARM_CAPACITY, WorkerCrashError
from repro.logic.parser import parse_query
from repro.observability import collect
from repro.relational.nulls import NULL
from repro.serve.http import _json_text
from repro.serve.service import CQAService, _Renderings
from repro.serve.specs import render_rows

from .test_rendered_answers import (
    FULL,
    PROJECTION,
    R_KEY,
    VALUES_OF_B,
    _r_instance,
)


def _service(pool):
    return CQAService(DispatchPolicy(isolate=("fm-sql",)), pool=pool)


def _read(service, name, query=PROJECTION):
    status, body, _ = service.handle_cqa({"db": name, "query": query})
    assert status == 200, body
    assert body["complete"] and body["engine"] == "fm-sql", body
    return body


def _in_process(service, name, query):
    """fm-sql on the registry's current version, in this process, on a
    fresh SQLite load: the reference."""
    entry = service._databases[name]  # noqa: SLF001
    request = CQARequest(entry.db, entry.constraints, parse_query(query))
    return FuxmanMillerSqlEngine().run(request).answers


def _types(rows):
    return [tuple(type(value) for value in row) for row in rows]


def _check_in_step(pool):
    for worker in pool._workers:  # noqa: SLF001
        assert set(worker.answers) <= set(worker.warm)


@pytest.fixture
def marks(monkeypatch):
    """The ``answers_kept`` of every reply a pool worker sent."""
    seen = []
    call = pool_mod.PoolWorker.call

    def recording_call(self, job, deadline_s):
        result = call(self, job, deadline_s)
        if job.get("instance_key") is not None and result.get("ok"):
            seen.append(result.get("answers_kept"))
        return result

    monkeypatch.setattr(pool_mod.PoolWorker, "call", recording_call)
    return seen


@pytest.fixture(scope="module")
def shared_pool():
    pool = WorkerPool(PoolConfig(size=2)).start()
    yield pool
    pool.drain()


# -- the differential --------------------------------------------------

# No bools: SQLite would give one back as an integer, so a version
# holding one is fo-mem's, not fm-sql's
# (tests/test_warm_state.py::test_a_bool_written_to_a_warm_instance_is_answered_by_the_next_rung).
_VALUES = st.one_of(
    st.sampled_from(["a", "b", "é", "日本", ""]),
    st.text(max_size=2),
    st.integers(-2, 2),
    st.sampled_from([0.0, -0.0, 1.0, 2.5]),
    st.none(),
    st.just(NULL),
)
# A mutate payload carries JSON values only.  These collide often:
# 1 == 1.0 and 0 == 0.0, each with its own JSON, so a write that
# deletes one and inserts another leaves an equal answer.
_JSON_VALUES = st.sampled_from(
    ["a", "é", "日本", "1", 1, 1.0, 0, 0.0, None]
)
_FACTS = st.lists(
    st.tuples(_JSON_VALUES, st.sampled_from(["x", "y", 1, None])).map(
        lambda values: ["R", *values]
    ),
    max_size=2,
)
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("read"), st.sampled_from([PROJECTION, FULL, VALUES_OF_B])
        ),
        st.tuples(st.just("write"), _FACTS, _FACTS),
        # A write no query reads: the answer repeats at a new version.
        st.tuples(st.just("audit")),
    ),
    min_size=1,
    max_size=12,
)


def test_every_body_is_in_process_fm_sql(shared_pool):
    service = _service(shared_pool)
    writes = iter(range(1 << 30))

    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.lists(st.tuples(_VALUES, _VALUES), max_size=6), _OPS)
    # A kept connection that missed a type change: 1.0 left, 1 joined.
    @example(
        rows=[("a", None), (1.0, None)],
        ops=[
            ("read", PROJECTION),
            ("read", PROJECTION),
            ("write", [["R", 1, None]], [["R", 1, None]]),
            ("read", PROJECTION),
            ("read", PROJECTION),
        ],
    )
    def run(rows, ops):
        service.register_instance("d", _r_instance(rows, audit=1), R_KEY)
        for op in ops:
            if op[0] == "audit":
                payload = {"insert": [["Audit", f"w{next(writes)}"]]}
            elif op[0] == "write":
                payload = {"delete": op[1], "insert": op[2]}
            if op[0] != "read":
                status, body, _ = service.handle_mutate("d", payload)
                # A write with nothing to delete or insert is a 400.
                assert status == (200 if any(payload.values()) else 400)
                continue
            query = op[1]
            body = _read(service, "d", query)
            expected = render_rows(_in_process(service, "d", query))
            assert _json_text(body) == _json_text(
                dict(body, answers=expected)
            )
            assert _types(body["answers"].rows) == _types(expected.rows)
            _check_in_step(shared_pool)

    with collect() as collector:
        run()
        assert collector.counter("pool.answers.repeated") > 0


# -- equal answers of different types ----------------------------------


def test_type_distinct_answers_across_writes_come_back_as_themselves(
    shared_pool,
):
    """``{(1,)} == {(1.0,)}``, and the worker keeps no such set: only a
    set of strings, None or the NULL marker may stand for an equal
    one."""
    assert shared_pool.wait_ready(timeout_s=30.0)
    service = _service(shared_pool)
    service.register_instance("t", _r_instance([(1, "x")]), R_KEY)
    previous = 1
    with collect() as collector:
        for value, rendered in (
            (1, "[[1]]"), (1.0, "[[1.0]]"), ("1", '[["1"]]'),
            # fm-sql maps SQL NULL back to the NULL marker.
            (None, "[[null]]"),
        ):
            if value is not previous:
                status, body, _ = service.handle_mutate("t", {
                    "delete": [["R", previous, "x"]],
                    "insert": [["R", value, "x"]],
                })
                assert status == 200, body
                previous = value
            for _ in range(2):
                body = _read(service, "t")
                assert body["answers"].json == rendered, value
                expected = render_rows(_in_process(service, "t", PROJECTION))
                assert _types(body["answers"].rows) == _types(expected.rows)
        # The second reads of "1" and of NULL.
        assert collector.counter("pool.answers.repeated") == 2
    assert list(body["answers"]) == [[NULL]]


# -- both sides stay in step -------------------------------------------


def test_a_failed_run_an_eviction_and_a_recycle_ship_the_rows(marks):
    pool = WorkerPool(PoolConfig(size=1, max_requests=None)).start()
    try:
        service = _service(pool)
        rows = [(f"a{i}", f"b{i % 3}") for i in range(6)] + [("a0", "b-alt")]
        service.register_instance("n", _r_instance(rows), R_KEY)
        expected = _read(service, "n")["answers"]
        assert _read(service, "n")["answers"] == expected
        assert marks == ["new", "same"]
        (worker,) = pool._workers  # noqa: SLF001
        entry = service._databases["n"]  # noqa: SLF001
        request = CQARequest(
            entry.db, entry.constraints, parse_query(PROJECTION),
            instance_key=InstanceKey("n", entry.version),
        )

        # A failed run drops the name's entry on both sides.
        with pytest.raises(WorkerCrashError, match="no-such-engine"):
            pool.run_engine("no-such-engine", request, watchdog_s=30.0)
        assert "n" not in worker.warm and "n" not in worker.answers
        assert _read(service, "n")["answers"] == expected
        assert marks[2:] == ["new"]

        # So does an eviction past WARM_CAPACITY names.
        assert _read(service, "n")["answers"] == expected
        for i in range(WARM_CAPACITY):
            service.register_instance(f"o{i}", _r_instance(rows), R_KEY)
            _read(service, f"o{i}")
        assert "n" not in worker.warm and "n" not in worker.answers
        assert len(worker.answers) == WARM_CAPACITY
        del marks[:]
        assert _read(service, "n")["answers"] == expected
        assert marks == ["new"]

        # A successor starts with nothing kept.
        assert _read(service, "n")["answers"] == expected
        with pytest.raises(WorkerCrashError):
            pool.run_engine(
                "fm-sql", request, watchdog_s=30.0, crash_code=3
            )
        assert pool.wait_ready(timeout_s=30.0)
        assert _read(service, "n")["answers"] == expected
        assert marks == ["new", "same", "new"]
        assert pool.stats()["recycle_reasons"] == {"crash": 1}
        _check_in_step(pool)
    finally:
        pool.drain()


def test_a_reference_the_parent_cannot_resolve_retires_the_worker():
    pool = WorkerPool(PoolConfig(size=2)).start()
    try:
        service = _service(pool)
        rows = [(f"a{i}", f"b{i % 3}") for i in range(6)] + [("a0", "b-alt")]
        service.register_instance("m", _r_instance(rows), R_KEY)
        expected = _read(service, "m")["answers"]
        (holder,) = [w for w in pool._workers if "m" in w.warm]  # noqa: SLF001
        assert holder.answers["m"] == {tuple(row) for row in expected}
        # The handle loses its set; its worker still keeps one.
        del holder.answers["m"]
        entry = service._databases["m"]  # noqa: SLF001
        request = CQARequest(
            entry.db, entry.constraints, parse_query(PROJECTION),
            instance_key=InstanceKey("m", entry.version),
        )
        with pytest.raises(WorkerCrashError, match="never sent"):
            pool.run_engine("fm-sql", request, watchdog_s=30.0)
        assert pool.stats()["recycle_reasons"] == {"crash": 1}
        # The same loss on the serving path: the rung fails, the ladder
        # falls through, and the answer is still exact.
        assert pool.wait_ready(timeout_s=30.0)
        _read(service, "m")
        (holder,) = [w for w in pool._workers if "m" in w.warm]  # noqa: SLF001
        del holder.answers["m"]
        status, body, _ = service.handle_cqa({"db": "m", "query": PROJECTION})
        assert status == 200, body
        assert body["complete"] and body["engine"] == "fo-mem"
        assert body["answers"] == expected
        assert pool.stats()["recycle_reasons"] == {"crash": 2}
    finally:
        pool.drain()


def test_a_repeat_hands_back_the_one_kept_set(shared_pool):
    """Every repeat returns the handle's own set object, so the
    server's rendering is found by identity."""
    assert shared_pool.wait_ready(timeout_s=30.0)
    service = _service(shared_pool)
    rows = [(f"a{i}", f"b{i % 3}") for i in range(6)]
    service.register_instance("i", _r_instance(rows, audit=1), R_KEY)
    answered = []
    dispatch = service.dispatcher.dispatch

    def recording(*args, **kwargs):
        result = dispatch(*args, **kwargs)
        answered.append(result.answers)
        return result

    service.dispatcher.dispatch = recording
    _read(service, "i")
    status, _, _ = service.handle_mutate("i", {"insert": [["Audit", "e9"]]})
    assert status == 200
    _read(service, "i")
    _read(service, "i")
    (holder,) = [  # noqa: SLF001
        w for w in shared_pool._workers if "i" in w.warm
    ]
    assert all(answers is holder.answers["i"] for answers in answered)


def test_a_rendering_hit_rekeys_under_the_set_the_read_brought():
    """After a recycle the successor's first set is a new object equal
    to the kept key; the hit makes it the key, so the repeats that
    follow find it by identity."""
    kept = _Renderings()
    first, second = frozenset({("a",)}), frozenset({("a",)})
    rendering = render_rows(first)
    kept.keep(first, rendering, 4)
    assert kept.recall(second, 4) is rendering
    (key,) = kept._kept  # noqa: SLF001
    assert key is second
