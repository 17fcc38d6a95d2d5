"""Warm instance state in pool workers.

A pooled read of a registered database carries the instance key
``(name, version)`` and the registry's last mutation steps.  A worker
that already holds that version gets a key-only job and runs on its
decoded instance and SQLite connection; a worker holding the base
version of one of the steps gets only the steps since then (a delta)
and advances its instance in place; any other worker gets the whole
instance (a miss) and keeps it.  These tests pin that a warm answer is
always the consistent answer of the registry's current instance, that
affinity turns repeat reads into hits and the first read after a write
into a delta, and that every disagreement about a worker's state is a
crash, never a stale answer.  A warm entry's memo of its answers must
equal a fresh load's rows on every version it holds.
"""

import io
import pickle
import sqlite3
import sys
import threading
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.cqa import consistent_answers_fm, fuxman_miller_rewrite
from repro.cqa.certain import consistent_answers
from repro.cqa.sqlgen import query_to_sql
from repro.dispatch import (
    CQARequest,
    DispatchPolicy,
    InstanceKey,
    PoolConfig,
    WorkerPool,
)
from repro.dispatch import pool as pool_mod
from repro.dispatch.worker import (
    WARM_CAPACITY,
    WorkerCrashError,
    WorkerTimeoutError,
    _WarmInstances,
    read_frame,
    serve_loop,
    write_frame,
)
from repro.errors import UnstorableValueError
from repro.logic.parser import parse_fd, parse_query
from repro.observability import collect
from repro.relational import RelationSchema, Schema
from repro.relational.database import Database, fact
from repro.relational.nulls import NULL, LabeledNull, is_null
from repro.relational.sqlbridge import (
    KeptSqlite,
    keeping,
    run_sql,
    to_sqlite,
)
from repro.runtime import FaultPlan, inject
from repro.serve.service import DELTA_STEPS, CQAService

from .test_serve import _probe_constants

PROJECTION = "Q(X) :- R(X, Y)"
JOIN = "Q(X, Z) :- R(X, Y), S(Y, Z)"
R_FACTS = [["R", a, b] for a in ("a0", "a1", "a2") for b in ("b0", "b1")]
S_FACTS = [["S", b, c] for b in ("b0", "b1") for c in ("c0", "c1")]


def _spec(facts):
    rows = {"R": [], "S": []}
    for relation, *values in facts:
        rows[relation].append(values)
    return {
        "relations": {
            "R": {"columns": ["A", "B"], "key": ["A"], "rows": rows["R"]},
            "S": {"columns": ["B", "C"], "key": ["B"], "rows": rows["S"]},
        },
        "constraints": {"fd": ["R: A -> B", "S: B -> C"]},
    }


def _big_spec(keys):
    """R and S with *keys* key groups each, every tenth one violated."""
    r_rows = [[f"a{i}", f"b{i % 50}"] for i in range(keys)]
    r_rows += [[f"a{i}", "b-alt"] for i in range(0, keys, 10)]
    s_rows = [[f"b{i}", f"c{i % 7}"] for i in range(keys)]
    return {
        "relations": {
            "R": {"columns": ["A", "B"], "key": ["A"], "rows": r_rows},
            "S": {"columns": ["B", "C"], "key": ["B"], "rows": s_rows},
        },
        "constraints": {"fd": ["R: A -> B", "S: B -> C"]},
    }


def _service(pool):
    return CQAService(DispatchPolicy(isolate=("fm-sql",)), pool=pool)


def _read(service, name, query=PROJECTION):
    status, body, _ = service.handle_cqa({"db": name, "query": query})
    assert status == 200, body
    return body


def _reference(service, name, query=PROJECTION):
    entry = service._databases[name]  # noqa: SLF001
    answers = consistent_answers(
        entry.db, entry.constraints, parse_query(query)
    )
    return sorted(list(row) for row in answers)


@pytest.fixture
def sent_frames(monkeypatch):
    """Every job frame written to a worker: (worker id, bytes)."""
    frames = []
    send = pool_mod.PoolWorker._send

    def recording_send(self, payload):
        frames.append((self.worker_id, len(payload)))
        return send(self, payload)

    monkeypatch.setattr(pool_mod.PoolWorker, "_send", recording_send)
    return frames


@pytest.fixture(scope="module")
def shared_pool():
    # No recycling: a successor starts cold, which would move the exact
    # hit/miss counts below (recycling has its own test).
    pool = WorkerPool(PoolConfig(size=2, max_requests=None)).start()
    yield pool
    pool.drain()


def _pid_alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().split(") ", 1)[1][0] != "Z"
    except OSError:
        return False


# ----------------------------------------------------------------------
# Differential: warm answers equal Cons(Q, D, Σ) of the current version
# ----------------------------------------------------------------------

_FACTS = st.lists(
    st.sampled_from(R_FACTS + S_FACTS), max_size=10, unique_by=tuple
)
_DELTA = st.lists(
    st.sampled_from(R_FACTS + S_FACTS), max_size=3, unique_by=tuple
)
#: (op, name, query, facts to register, inserts, deletes); each op
#: reads the fields it needs.  Reads are the most frequent op; half the
#: mutates read the name straight after, the others leave it to a later
#: read, which may then find several steps.
_OPS = st.tuples(
    st.sampled_from([
        "read", "read", "read", "mutate", "mutate+read", "register",
        "remove",
    ]),
    st.sampled_from(["a", "b"]),
    st.sampled_from([PROJECTION, JOIN]),
    _FACTS,
    _DELTA,
    _DELTA,
)


def test_warm_reads_equal_the_consistent_answers(shared_pool):
    """Register ``a`` and ``b``, then mutate, read, remove and
    re-register them on fresh services sharing one pool: every read is
    fm-sql's exact answer on the registry's current instance, warm or
    not."""

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_FACTS, _FACTS, st.lists(_OPS, min_size=4, max_size=20))
    def run(facts_a, facts_b, ops):
        service = _service(shared_pool)
        for name, facts in (("a", facts_a), ("b", facts_b)):
            assert service.register_db(name, _spec(facts))[0] == 200
            assert _read(service, name)["answers"] == _reference(service, name)
        for op, name, query, facts, inserts, deletes in ops:
            registered = name in service._databases  # noqa: SLF001
            if op == "register":
                status, _, _ = service.register_db(name, _spec(facts))
                assert status == 200
            elif op == "remove":
                status, _, _ = service.remove_db(name)
                assert status == (200 if registered else 404)
            elif op != "read":
                status, _, _ = service.handle_mutate(
                    name, {"insert": inserts, "delete": deletes}
                )
                if not registered:
                    assert status in (400, 404)
                elif inserts or deletes:
                    assert status == 200
            if op in ("read", "mutate+read") and registered:
                body = _read(service, name, query)
                assert body["complete"] and body["engine"] == "fm-sql"
                assert body["answers"] == _reference(service, name, query)
            elif op in ("read", "mutate+read"):
                status, _, _ = service.handle_cqa(
                    {"db": name, "query": query}
                )
                assert status == 400

    with collect() as collector:
        run()
        assert collector.counter("pool.warm.hits") > 0
        assert collector.counter("pool.warm.deltas") > 0


# ----------------------------------------------------------------------
# Affinity and counts
# ----------------------------------------------------------------------


def test_repeat_reads_hit_one_worker_and_a_write_costs_one_delta(
    shared_pool, sent_frames
):
    assert shared_pool.wait_ready(timeout_s=30.0)
    service = _service(shared_pool)
    assert service.register_db("counts", _spec(R_FACTS + S_FACTS))[0] == 200
    expected = _reference(service, "counts")
    with collect() as collector:
        for _ in range(8):
            assert _read(service, "counts")["answers"] == expected
        assert collector.counter("pool.warm.misses") == 1
        assert collector.counter("pool.warm.hits") == 7
        # Each hit repeats the miss's one statement on the same version.
        assert collector.counter("pool.warm.reused") == 7
        # And its answer set, which crossed the pipe as a reference.
        assert collector.counter("pool.answers.repeated") == 7
        assert len({worker for worker, _ in sent_frames}) == 1
        status, _, _ = service.handle_mutate(
            "counts", {"delete": [["R", "a0", "b0"], ["R", "a0", "b1"]]}
        )
        assert status == 200
        body = _read(service, "counts")
        assert body["answers"] == _reference(service, "counts")
        assert ["a0"] not in body["answers"]
        assert collector.counter("pool.warm.misses") == 1
        assert collector.counter("pool.warm.deltas") == 1
        assert collector.counter("pool.warm.hits") == 7
        # The delta's advance dropped the statement that reads R:
        # SQLite ran again.
        assert collector.counter("pool.warm.reused") == 7
        # Its answer set is new: it crossed with its rows.
        assert collector.counter("pool.answers.repeated") == 7
        # The steps went to the worker holding the old version.
        assert len({worker for worker, _ in sent_frames}) == 1
        # The next hit reuses the new version's rows, not the old ones.
        assert _read(service, "counts")["answers"] == body["answers"]
        assert collector.counter("pool.warm.hits") == 8
        assert collector.counter("pool.warm.reused") == 8
        assert collector.counter("pool.answers.repeated") == 8


def test_a_read_after_a_write_to_a_relation_it_does_not_read_is_reused():
    """On one worker, after one read each of the projection (which
    reads R) and the join (R and S): a write to a third relation that
    no query reads leaves both answers in the memo, a write to S only
    the projection's, and a write to R neither.  Every answer is
    Cons."""
    pool = WorkerPool(PoolConfig(size=1, max_requests=None)).start()
    try:
        assert pool.wait_ready(timeout_s=30.0)
        service = _service(pool)
        spec = _spec(R_FACTS + S_FACTS)
        spec["relations"]["T"] = {"columns": ["D"], "rows": [["d0"]]}
        assert service.register_db("t", spec)[0] == 200
        for query in (PROJECTION, JOIN):
            assert _read(service, "t", query)["answers"] == _reference(
                service, "t", query
            )
        writes = [
            (["T", "d1"], 2),
            (["S", "b2", "c0"], 1),
            (["R", "a2", "b2"], 0),
        ]
        for write, reused in writes:
            status, _, _ = service.handle_mutate("t", {"insert": [write]})
            assert status == 200
            with collect() as collector:
                for query in (PROJECTION, JOIN):
                    body = _read(service, "t", query)
                    assert body["complete"] and body["engine"] == "fm-sql"
                    assert body["answers"] == _reference(service, "t", query)
                assert collector.counter("pool.warm.deltas") == 1
                assert collector.counter("pool.warm.hits") == 1
                assert collector.counter("pool.warm.reused") == reused, write
    finally:
        pool.drain()


def test_each_block_of_writes_and_reads_costs_one_delta(
    shared_pool, sent_frames
):
    """After one read, every block of 2 writes and 4 reads is 1 delta
    and 3 hits on the same worker, and every answer is exact."""
    assert shared_pool.wait_ready(timeout_s=30.0)
    service = _service(shared_pool)
    assert service.register_db("blocks", _spec(R_FACTS + S_FACTS))[0] == 200
    with collect() as collector:
        _read(service, "blocks")
        for block in range(4):
            for fact_list in (R_FACTS[block], S_FACTS[block]):
                delta = "delete" if block % 2 == 0 else "insert"
                status, _, _ = service.handle_mutate(
                    "blocks", {delta: [fact_list]}
                )
                assert status == 200
            for _ in range(4):
                body = _read(service, "blocks", JOIN)
                assert body["complete"] and body["engine"] == "fm-sql"
                assert body["answers"] == _reference(service, "blocks", JOIN)
            assert collector.counter("pool.warm.misses") == 1
            assert collector.counter("pool.warm.deltas") == block + 1
            assert collector.counter("pool.warm.hits") == 3 * (block + 1)
    assert len({worker for worker, _ in sent_frames}) == 1


def test_steps_have_a_bound(shared_pool):
    """A worker more than DELTA_STEPS writes behind, or one whose steps
    name more facts than the instance holds, gets the instance."""
    assert shared_pool.wait_ready(timeout_s=30.0)
    service = _service(shared_pool)
    assert service.register_db("far", _spec(R_FACTS + S_FACTS))[0] == 200
    _read(service, "far")
    with collect() as collector:
        for step in range(DELTA_STEPS + 1):
            status, _, _ = service.handle_mutate(
                "far", {"insert": [["R", f"x{step}", "b0"]]}
            )
            assert status == 200
        assert len(service._databases["far"].steps) == DELTA_STEPS  # noqa: SLF001
        body = _read(service, "far")
        assert body["complete"] and body["engine"] == "fm-sql"
        assert body["answers"] == _reference(service, "far")
        assert collector.counter("pool.warm.misses") == 1
        assert collector.counter("pool.warm.deltas") == 0

    assert service.register_db("wide", _spec(R_FACTS[:4]))[0] == 200
    _read(service, "wide")
    with collect() as collector:
        # Five facts in the step, three in the instance it leads to.
        status, _, _ = service.handle_mutate("wide", {
            "delete": R_FACTS[:3],
            "insert": [R_FACTS[4], ["R", "a0", "b0"]],
        })
        assert status == 200
        assert len(service._databases["wide"].db) == 3  # noqa: SLF001
        body = _read(service, "wide")
        assert body["answers"] == _reference(service, "wide")
        assert collector.counter("pool.warm.misses") == 1
        assert collector.counter("pool.warm.deltas") == 0


def test_a_busy_holder_is_not_waited_for(shared_pool, sent_frames):
    assert shared_pool.wait_ready(timeout_s=30.0)
    service = _service(shared_pool)
    assert service.register_db("busy", _spec(R_FACTS + S_FACTS))[0] == 200
    _read(service, "busy")
    key = InstanceKey("busy", service._databases["busy"].version)  # noqa: SLF001
    holder = shared_pool._checkout(key)  # noqa: SLF001 — keep it busy
    try:
        assert holder.warm.get("busy") == key[1]
        with collect() as collector:
            body = _read(service, "busy")
            assert collector.counter("pool.warm.misses") == 1
    finally:
        shared_pool._check_in(holder)  # noqa: SLF001
    assert body["complete"] and body["engine"] == "fm-sql"
    assert body["answers"] == _reference(service, "busy")
    assert sent_frames[-1][0] != holder.worker_id


def test_a_hit_sends_a_key_not_the_instance(shared_pool, sent_frames):
    service = _service(shared_pool)
    spec = _big_spec(2500)
    assert service.register_db("big", spec)[0] == 200
    assert len(service._databases["big"].db) >= 5000  # noqa: SLF001
    with collect() as collector:
        first = _read(service, "big")
        second = _read(service, "big")
        assert collector.counter("pool.warm.hits") == 1
        status, _, _ = service.handle_mutate(
            "big", {"delete": [["R", "a1", "b1"]]}
        )
        assert status == 200
        third = _read(service, "big")
        assert collector.counter("pool.warm.deltas") == 1

    def reference():
        # Repair enumeration cannot take 250 conflicting key groups;
        # the in-memory rewriting is the reference here.
        entry = service._databases["big"]  # noqa: SLF001
        answers = consistent_answers_fm(
            entry.db, entry.constraints, parse_query(PROJECTION)
        )
        return sorted(list(row) for row in answers)

    assert third["answers"] == reference()
    assert ["a1"] in second["answers"] and ["a1"] not in third["answers"]
    assert first["answers"] == second["answers"]
    (_, miss_bytes), (_, hit_bytes), (_, delta_bytes) = sent_frames
    assert miss_bytes > 100_000
    assert hit_bytes < 4096
    assert delta_bytes < 4096


def test_concurrent_readers_and_writers_stay_exact(shared_pool):
    """More threads than cores, each writing and reading its own name
    through one service, with a short switch interval: contended
    checkouts must never hand one worker to two jobs or serve a
    version other than the one the read resolved."""
    service = _service(shared_pool)
    errors = []

    def client(index):
        name = f"c{index}"
        try:
            assert service.register_db(name, _spec(R_FACTS + S_FACTS))[0] == 200
            for step in range(12):
                fact = R_FACTS[(index + step) % len(R_FACTS)]
                delta = "delete" if step % 2 == 0 else "insert"
                status, _, _ = service.handle_mutate(name, {delta: [fact]})
                assert status == 200
                for _ in range(2):
                    body = _read(service, name)
                    reference = _reference(service, name)
                    if body["complete"]:
                        assert body["answers"] == reference
                    else:
                        assert all(row in reference for row in body["answers"])
        except BaseException as exc:  # noqa: BLE001 — reported below
            errors.append(f"{name}: {exc!r}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with collect() as collector:
            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads)
            assert collector.counter("pool.warm.hits") > 0
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert shared_pool.stats()["recycles"] == 0


# ----------------------------------------------------------------------
# Disagreement is a crash, retirement starts cold
# ----------------------------------------------------------------------


def test_a_forged_key_is_a_crash_not_a_stale_answer():
    pool = WorkerPool(PoolConfig(size=2)).start()
    try:
        service = _service(pool)
        assert service.register_db("f", _spec(R_FACTS + S_FACTS))[0] == 200
        _read(service, "f")  # some worker now holds the first version
        service.handle_mutate("f", {"delete": [["R", "a1", "b0"]]})
        db, constraints, version, _ = service._databases["f"]  # noqa: SLF001
        # The parent believes a worker holds the new version; it holds
        # only the old one.
        (holder,) = [w for w in pool._workers if "f" in w.warm]  # noqa: SLF001
        holder.warm = {"f": version}
        request = CQARequest(
            db, constraints, parse_query(PROJECTION),
            instance_key=InstanceKey("f", version),
        )
        with pytest.raises(WorkerCrashError):
            pool.run_engine("fm-sql", request, watchdog_s=30.0)
        assert not _pid_alive(holder.pid)
        assert pool.stats()["recycle_reasons"] == {"crash": 1}
        # The same lie on the serving path: the rung fails, the ladder
        # falls through, and the answer is still exact.
        assert pool.wait_ready(timeout_s=30.0)
        for worker in pool._workers:  # noqa: SLF001
            worker.warm = {"f": version}
        body = _read(service, "f")
        assert body["complete"] and body["engine"] == "fo-mem"
        assert body["answers"] == _reference(service, "f")
        assert pool.stats()["recycle_reasons"] == {"crash": 2}
    finally:
        pool.drain()


def test_a_forged_base_is_a_crash_not_a_stale_answer():
    pool = WorkerPool(PoolConfig(size=2)).start()
    try:
        service = _service(pool)
        assert service.register_db("g", _spec(R_FACTS + S_FACTS))[0] == 200
        _read(service, "g")  # some worker now holds the first version
        service.handle_mutate("g", {"delete": [["R", "a1", "b0"]]})
        service.handle_mutate("g", {"delete": [["S", "b0", "c0"]]})
        entry = service._databases["g"]  # noqa: SLF001
        # The parent believes a worker holds the second version, the
        # base of the last step; it holds only the first.
        base = entry.steps[-1][0]
        (holder,) = [w for w in pool._workers if "g" in w.warm]  # noqa: SLF001
        holder.warm = {"g": base}
        request = CQARequest(
            entry.db, entry.constraints, parse_query(PROJECTION),
            instance_key=InstanceKey("g", entry.version, entry.steps),
        )
        with collect() as collector:
            with pytest.raises(WorkerCrashError):
                pool.run_engine("fm-sql", request, watchdog_s=30.0)
            assert collector.counter("pool.warm.deltas") == 1
        assert not _pid_alive(holder.pid)
        assert pool.stats()["recycle_reasons"] == {"crash": 1}
        # On the serving path the rung fails and the next one answers.
        assert pool.wait_ready(timeout_s=30.0)
        for worker in pool._workers:  # noqa: SLF001
            worker.warm = {"g": base}
        body = _read(service, "g")
        assert body["complete"] and body["engine"] == "fo-mem"
        assert body["answers"] == _reference(service, "g")
        assert pool.stats()["recycle_reasons"] == {"crash": 2}
    finally:
        pool.drain()


@pytest.mark.parametrize("retirement", ["crash", "timeout", "max-requests"])
def test_a_successor_starts_cold(retirement):
    pool = WorkerPool(
        PoolConfig(
            size=1, max_requests=2 if retirement == "max-requests" else None
        )
    ).start()
    try:
        service = _service(pool)
        assert service.register_db("r", _spec(R_FACTS + S_FACTS))[0] == 200
        expected = _reference(service, "r")
        first_pid = pool.stats()["pids"][0]
        with collect() as collector:
            assert _read(service, "r")["answers"] == expected
            db, constraints, _, _ = service._databases["r"]  # noqa: SLF001
            request = CQARequest(db, constraints, parse_query(PROJECTION))
            if retirement == "crash":
                with pytest.raises(WorkerCrashError):
                    pool.run_engine(
                        "fm-sql", request, watchdog_s=30.0, crash_code=3
                    )
            elif retirement == "timeout":
                with pytest.raises(WorkerTimeoutError):
                    pool.run_engine(
                        "fm-sql", request, watchdog_s=0.3, wedge_s=60.0
                    )
            else:
                assert _read(service, "r")["answers"] == expected
            assert pool.wait_ready(timeout_s=30.0)
            assert first_pid not in pool.stats()["pids"]
            hits = collector.counter("pool.warm.hits")
            body = _read(service, "r")
            assert body["complete"] and body["engine"] == "fm-sql"
            assert body["answers"] == expected
            assert collector.counter("pool.warm.misses") == 2
            assert collector.counter("pool.warm.hits") == hits
        assert pool.stats()["recycle_reasons"] == {retirement: 1}
    finally:
        pool.drain()


# ----------------------------------------------------------------------
# The worker's side of the protocol, in-process
# ----------------------------------------------------------------------


def test_worker_keeps_the_latest_sixteen_names_and_reports_them():
    service = CQAService()
    frames = io.BytesIO()
    names = [f"n{i}" for i in range(WARM_CAPACITY + 1)]
    for name in names:
        service.register_db(name, _spec(R_FACTS[:2]))
        db, constraints, version, _ = service._databases[name]  # noqa: SLF001
        request = CQARequest(db, constraints, parse_query(PROJECTION))
        write_frame(frames, pickle.dumps({
            "engine": "fm-sql", "request": request,
            "instance_key": (name, version),
        }))
    # A key-only job for the evicted first name: a protocol error.
    evicted = (names[0], service._databases[names[0]][2])  # noqa: SLF001
    write_frame(frames, pickle.dumps({
        "engine": "fm-sql",
        "request": CQARequest(None, constraints, parse_query(PROJECTION)),
        "instance_key": evicted,
    }))
    frames.seek(0)
    out = io.BytesIO()
    assert serve_loop(frames, out) == 0
    out.seek(0)
    results = []
    while (frame := read_frame(out)) is not None:
        results.append(pickle.loads(frame))
    *runs, refused = results
    assert all(result["ok"] for result in runs)
    assert [len(result["warm"]) for result in runs] == (
        list(range(1, WARM_CAPACITY + 1)) + [WARM_CAPACITY]
    )
    assert evicted not in runs[-1]["warm"]
    assert refused["kind"] == "protocol" and not refused["ok"]
    assert refused["warm"] == runs[-1]["warm"]
    assert refused["served"] == len(runs)


def test_a_failed_advance_rolls_back_and_drops_the_entry():
    service = CQAService()
    service.register_db("n", _spec(R_FACTS[:2]))
    first = service._databases["n"]  # noqa: SLF001
    service.handle_mutate("n", {"insert": [["R", "a2", "b0"]]})
    second = service._databases["n"]  # noqa: SLF001
    query = parse_query(PROJECTION)
    frames = io.BytesIO()
    # A miss: the worker keeps the first version and its connection.
    write_frame(frames, pickle.dumps({
        "engine": "fm-sql",
        "request": CQARequest(first.db, first.constraints, query),
        "instance_key": ("n", first.version),
    }))
    # A step SQLite cannot take: labeled nulls have no SQL form.
    unloadable = ((first.version, (), (fact("R", "a2", LabeledNull("y")),)),)
    for steps in (unloadable, second.steps):
        write_frame(frames, pickle.dumps({
            "engine": "fm-sql",
            "request": CQARequest(None, second.constraints, query),
            "instance_key": ("n", second.version),
            "steps": steps,
        }))
    frames.seek(0)
    out = io.BytesIO()
    assert serve_loop(frames, out) == 0
    out.seek(0)
    miss, failed, after = [
        pickle.loads(frame)
        for frame in iter(lambda: read_frame(out), None)
    ]
    assert miss["ok"] and miss["warm"] == [("n", first.version)]
    assert failed["kind"] == "protocol" and failed["type"] == "ValueError"
    assert failed["warm"] == []
    # The entry is gone, so the good steps find no base either.
    assert after["kind"] == "protocol" and after["warm"] == []


def test_a_value_sqlite_cannot_store_is_inapplicable_not_a_crash():
    """A write that inserts a lone surrogate into a warm instance: the
    delta job's advance drops the entry and answers that fm-sql is
    inapplicable, so the worker stays, fm-sql's breaker is not charged
    and fo-mem answers exactly."""
    pool = WorkerPool(PoolConfig(size=1, max_requests=None)).start()
    try:
        assert pool.wait_ready(timeout_s=30.0)
        service = _service(pool)
        assert service.register_db("n", _spec(R_FACTS))[0] == 200
        assert _read(service, "n")["engine"] == "fm-sql"
        status, _, _ = service.handle_mutate(
            "n", {"insert": [["R", "a3", "\ud800"]]}
        )
        assert status == 200
        with collect() as collector:
            body = _read(service, "n")
        assert collector.counter("pool.warm.deltas") == 1
        assert body["complete"] and body["engine"] == "fo-mem", body
        assert body["answers"] == _reference(service, "n")
        assert ["a3"] in body["answers"]
        assert pool.stats()["recycles"] == 0
        assert service.dispatcher.breakers["fm-sql"].failures == 0
    finally:
        pool.drain()


def test_a_bool_written_to_a_warm_instance_is_answered_by_the_next_rung():
    """SQLite would give ``true`` back as 1: a write that inserts one
    into a warm instance makes the delta job's advance refuse it, and
    fo-mem answers with the bool kept, with no recycle and no charge
    to fm-sql's breaker."""
    pool = WorkerPool(PoolConfig(size=1, max_requests=None)).start()
    try:
        assert pool.wait_ready(timeout_s=30.0)
        service = _service(pool)
        assert service.register_db("n", _spec(R_FACTS))[0] == 200
        assert _read(service, "n")["engine"] == "fm-sql"
        status, _, _ = service.handle_mutate(
            "n", {"insert": [["R", "a3", True]]}
        )
        assert status == 200
        with collect() as collector:
            body = _read(service, "n", "Q(X, Y) :- R(X, Y)")
        assert collector.counter("pool.warm.deltas") == 1
        assert body["complete"] and body["engine"] == "fo-mem", body
        assert body["answers"] == [["a3", True]]
        assert isinstance(body["answers"][0][1], bool)
        assert pool.stats()["recycles"] == 0
        assert service.dispatcher.breakers["fm-sql"].failures == 0
    finally:
        pool.drain()


def test_query_constants_bind_exactly_over_the_pool():
    """The probes of ``test_query_constants_bind_exactly`` through a
    one-worker pool: each answers Cons, and the worker's refusal of a
    constant SQLite cannot hold charges fm-sql's breaker nothing."""
    pool = WorkerPool(PoolConfig(size=1, max_requests=None)).start()
    try:
        assert pool.wait_ready(timeout_s=30.0)
        service = _probe_constants(_service(pool))
        assert pool.stats()["recycles"] == 0
        assert service.dispatcher.breakers["fm-sql"].failures == 0
    finally:
        pool.drain()


def test_a_value_sqlite_would_change_is_refused_on_load_and_advance():
    """SQLite stores a bool as an integer and a NaN as NULL: an instance
    holding one is not loaded, a step that would add one leaves the
    kept instance and its connection where they were, and a NaN
    constant is not bound."""
    for value in (True, False, float("nan")):
        db = Database.from_facts([fact("R", "a", value)], schema=_KEYED)
        with pytest.raises(UnstorableValueError):
            to_sqlite(db)
        kept = KeptSqlite(
            Database.from_facts([fact("R", "a", "b")], schema=_KEYED)
        )
        kept.conn = to_sqlite(kept.db)
        try:
            before = kept.db
            with pytest.raises(UnstorableValueError):
                kept.advance([], [fact("R", "c", value)])
            assert kept.db is before
            assert _rows(kept.conn, "R") == Counter([("a", "b")])
        finally:
            kept.close()
        with pytest.raises(UnstorableValueError):
            run_sql(before, 'SELECT "A" FROM "R" WHERE "B" = ?1', [value])


def _rows(conn, table):
    return Counter(conn.execute(f'SELECT * FROM "{table}"').fetchall())


def _indexes(conn, table):
    return conn.execute(f'PRAGMA index_list("{table}")').fetchall()


@pytest.mark.parametrize("mutation", [
    {"delete": [["R", "a0", "b0"]], "insert": [["R", "a0", "b0"]]},
    {"delete": [["R", "a9", "b0"]], "insert": [["S", "b9", "c0"]]},
    {"insert": [["R", "a0", "b0"], ["S", "b0", "c0"]]},
    {"delete": [["R", "a8", None]], "insert": [["R", "a9", None]]},
], ids=["delete-and-reinsert", "delete-absent", "insert-present", "null"])
def test_an_advanced_connection_equals_a_fresh_load(mutation):
    service = CQAService()
    spec = _spec(R_FACTS + S_FACTS)
    spec["relations"]["R"]["rows"].append(["a8", None])
    assert service.register_db("m", spec)[0] == 200
    before = service._databases["m"]  # noqa: SLF001
    kept = KeptSqlite(before.db)
    kept.conn = to_sqlite(before.db)
    warm = _WarmInstances()
    warm.settle(("m", before.version), kept, True)
    assert service.handle_mutate("m", mutation)[0] == 200
    after = service._databases["m"]  # noqa: SLF001
    assert [step[0] for step in after.steps] == [before.version]
    assert warm.resolve(("m", after.version), after.steps) is kept
    assert warm.keys() == [("m", after.version)]
    assert kept.db.facts_with_tids() == after.db.facts_with_tids()
    assert kept.db._next_tid == after.db._next_tid  # noqa: SLF001
    fresh = to_sqlite(after.db)
    for table in ("R", "S"):
        assert _rows(kept.conn, table) == _rows(fresh, table)
        assert _indexes(kept.conn, table) == _indexes(fresh, table) != []
    assert kept.conn.execute("PRAGMA integrity_check").fetchall() == [("ok",)]


# ----------------------------------------------------------------------
# Differential: an indexed, advanced connection answers as bare tables
# ----------------------------------------------------------------------

#: 1 and 1.0 are one value to SQLite and to Python; the NULL marker
#: and None both load as SQL NULL.  A bool or a NaN, which SQLite would
#: give back as another value, is not loaded at all
#: (``test_a_value_sqlite_would_change_is_refused_on_load_and_advance``).
_MIXED = st.sampled_from([1, 1.0, "1", "a", NULL, None])


def _facts_of(relations):
    return st.lists(
        st.tuples(st.sampled_from(relations), _MIXED, _MIXED).map(
            lambda t: fact(*t)
        ),
        max_size=8,
    )


_MIXED_FACTS = _facts_of(["R", "S"])
_KEYED = Schema.of(
    RelationSchema("R", ("A", "B"), key=("A",)),
    RelationSchema("S", ("B", "C"), key=("B",)),
)
_KEYS = (parse_fd("R: A -> B"), parse_fd("S: B -> C"))
_FM_QUERIES = (
    JOIN,
    PROJECTION,
    "Q(Z) :- R(X, Y), S(Y, Z)",
    "Q(X, Y) :- R(X, Y)",
    "Q() :- R(X, Y), S(Y, Z)",
    "Q() :- S(Y, Z)",
)


def _bare(db):
    """*db* loaded into key-less tables, without ``to_sqlite``."""
    conn = sqlite3.connect(":memory:")
    for name in db.schema.names():
        columns = db.schema.relation(name).attributes
        quoted = ", ".join(f'"{c}"' for c in columns)
        conn.execute(f'CREATE TABLE "{name}" ({quoted})')
        marks = ", ".join("?" * len(columns))
        conn.executemany(
            f'INSERT INTO "{name}" VALUES ({marks})',
            [
                tuple(None if is_null(v) else v for v in row)
                for row in db.stored_rows(name)
            ],
        )
    return conn


def _typed(rows):
    """*rows* as a multiset of values with their types: 1, 1.0 and True
    are equal but each its own answer."""
    return Counter(tuple((type(v), v) for v in row) for row in rows)


#: A fact deleted and inserted again as an equal value of another type.
_RETYPED = ([fact("R", "a", None), fact("R", 1.0, None)],
            [fact("R", 1, None)])


@settings(max_examples=200, deadline=None)
@given(
    _MIXED_FACTS,
    st.lists(st.tuples(_MIXED_FACTS, _MIXED_FACTS), max_size=4),
    st.sampled_from(_FM_QUERIES),
)
@example(_RETYPED[0], [(_RETYPED[1], _RETYPED[1])], PROJECTION)
# SQLite's IS equates the keys 1 and 1.0: the delete must find 1.0's row.
@example(
    [fact("R", 1, None), fact("R", 1.0, NULL)],
    [([fact("R", 1, NULL)], [])],
    PROJECTION,
)
def test_an_indexed_advanced_connection_answers_as_bare_tables(
    facts, steps, query
):
    """fm-sql's statements return the same rows, each value with its
    type, through the key indexes, also after ``KeptSqlite.advance``
    moved the connection, as on tables with no index loaded from the
    same version: SQLite against SQLite, so the NULL semantics both
    share are not under test here."""
    kept = KeptSqlite(Database.from_facts(facts, schema=_KEYED))
    kept.conn = to_sqlite(kept.db)
    try:
        sql, _ = _sql_text(query, kept.db)
        for deleted, inserted in steps:
            kept.advance(deleted, inserted)
        reference = _bare(kept.db)
        assert _typed(kept.conn.execute(sql).fetchall()) == _typed(
            reference.execute(sql).fetchall()
        )
    finally:
        kept.close()


# ----------------------------------------------------------------------
# The answer memo of a kept instance
# ----------------------------------------------------------------------


def _memo_rows(kept):
    """The rows the memo holds, each statement counting at least one."""
    return sum(
        len(rows) or 1 for _, rows in kept._memo.values()  # noqa: SLF001
    )


def _sql_text(query, db):
    """fm-sql's statement for *query* and the relations it reads, the
    predicates of the rewriting's atoms, as ``answers_via_sql`` passes
    them; these queries hold no constant, so it binds no parameter."""
    rewritten = fuxman_miller_rewrite(parse_query(query), _KEYS, db)
    sql, params = query_to_sql(rewritten, _KEYED)
    assert params == ()
    return sql, {a.predicate for a in rewritten.body.atoms()}


_SQL = {
    query: _sql_text(query, Database.from_facts([], schema=_KEYED))
    for query in _FM_QUERIES
}


#: A step's deletes and inserts, all on R, all on S, or on both.
_STEP = st.sampled_from([("R",), ("S",), ("R", "S")]).flatmap(
    lambda relations: st.tuples(_facts_of(relations), _facts_of(relations))
)


@settings(max_examples=200, deadline=None)
@given(
    _MIXED_FACTS,
    st.lists(st.sampled_from(_FM_QUERIES), min_size=1, max_size=8),
    st.lists(
        st.tuples(
            _STEP,
            st.lists(st.sampled_from(_FM_QUERIES), min_size=1, max_size=8),
        ).map(lambda t: (*t[0], t[1])),
        max_size=4,
    ),
)
@example(
    _RETYPED[0], [PROJECTION], [(_RETYPED[1], _RETYPED[1], [PROJECTION])]
)
# A step on S changes the join's rows but not the projection's.
@example(
    [fact("R", "a", "b"), fact("R", "c", "d"), fact("S", "e", "f")],
    [JOIN, PROJECTION],
    [((), [fact("S", "b", "c")], [JOIN, PROJECTION])],
)
# A step on S shrinks the instance below the rows of two statements
# that read only R.
@example(
    [fact("R", k, "x") for k in (1, "1", "a")]
    + [fact("S", k, "y") for k in "xyz"],
    [PROJECTION, "Q(X, Y) :- R(X, Y)"],
    [([fact("S", "x", "y")], (), [PROJECTION])],
)
def test_a_memoized_answer_equals_a_fresh_load(facts, first, steps):
    """A kept instance, advanced by random steps, each on R, on S or
    on both, runs fm-sql's statements with the relations they read
    repeatedly between them: every ``run_sql`` through its memo returns
    the rows that a fresh, unkept load of the same version returns, and
    the memo never holds more rows than the instance holds facts, after
    an advance as after a statement."""
    kept = KeptSqlite(Database.from_facts(facts, schema=_KEYED))
    try:
        for deleted, inserted, queries in [((), (), first), *steps]:
            kept.advance(deleted, inserted)
            assert _memo_rows(kept) <= len(kept.db)
            for query in queries:
                sql, reads = _SQL[query]
                with keeping(kept):
                    rows = run_sql(kept.db, sql, reads=reads)
                with keeping(None):
                    fresh = run_sql(kept.db, sql)
                assert _typed(rows) == _typed(fresh)
                assert _memo_rows(kept) <= len(kept.db)
    finally:
        kept.close()


def test_nothing_is_memoized_outside_keeping():
    db = Database.from_facts(
        [fact("R", "a", "b"), fact("S", "b", "c")], schema=_KEYED
    )
    kept = KeptSqlite(db)
    sql, _ = _SQL[JOIN]
    assert run_sql(db, sql) == [("a", "c")]
    # Under keeping, a statement on another instance, even an equal one,
    # is not the kept instance's either.
    with keeping(kept):
        assert run_sql(Database.from_facts(db, schema=_KEYED), sql) == [
            ("a", "c")
        ]
    assert kept.conn is None and _memo_rows(kept) == 0
    with keeping(kept):
        assert run_sql(db, sql) == [("a", "c")]
        assert kept.reused == 0 and _memo_rows(kept) == 1
        assert run_sql(db, sql) == [("a", "c")]
        assert kept.reused == 1
    kept.close()


def test_a_statement_that_raised_is_not_kept():
    db = Database.from_facts([fact("R", "a", "b")], schema=_KEYED)
    kept = KeptSqlite(db)
    sql, _ = _SQL[PROJECTION]
    with keeping(kept):
        with inject(FaultPlan(sqlite_failure_rate=1.0)) as plan:
            with pytest.raises(Exception, match="injected transient"):
                run_sql(db, sql)
        assert plan.sqlite_attempts > 0 and _memo_rows(kept) == 0
        assert run_sql(db, sql) == [("a",)]
        # The kept rows come back with no attempt, so no fault fires.
        with inject(FaultPlan(sqlite_failure_rate=1.0)) as plan:
            assert run_sql(db, sql) == [("a",)]
        assert plan.sqlite_attempts == 0 and kept.reused == 1
    kept.close()


def test_the_memo_is_bounded_by_its_instance():
    """Five facts bound the memo to five rows: the least recently used
    statement goes first, one larger than the bound is not kept, and
    no list handed out reaches the memo.  A step drops the statements
    that read a relation it touched, keeps the others, and trims them
    to the new instance's bound."""
    db = Database.from_facts(
        [fact("R", f"a{i}", "b") for i in range(5)], schema=_KEYED
    )
    kept = KeptSqlite(db)
    every = 'SELECT "A" FROM "R"'
    one = 'SELECT "A" FROM "R" WHERE "A" = \'a0\''
    none = 'SELECT "A" FROM "R" WHERE "A" = \'z\''
    pairs = 'SELECT r1."A", r2."A" FROM "R" r1, "R" r2'
    with keeping(kept):
        rows = run_sql(db, every)
        assert len(rows) == 5 and _memo_rows(kept) == 5
        rows.clear()
        handed = run_sql(db, every)
        assert len(handed) == 5 and kept.reused == 1
        handed.append(("x",))
        assert len(run_sql(db, every)) == 5 and kept.reused == 2
        # One more row: the five-row statement, the oldest, goes.
        assert run_sql(db, one) == [("a0",)]
        assert list(kept._memo) == [one]  # noqa: SLF001
        # An empty answer counts one row.
        assert run_sql(db, none) == []
        assert list(kept._memo) == [one, none]  # noqa: SLF001
        # Recalling `one` makes `none` the least recently used.
        assert run_sql(db, one) == [("a0",)] and kept.reused == 3
        assert list(kept._memo) == [none, one]  # noqa: SLF001
        # Twenty-five rows for five facts: not kept, nothing evicted.
        assert len(run_sql(db, pairs)) == 25
        assert list(kept._memo) == [none, one]  # noqa: SLF001
        assert _memo_rows(kept) == 2 <= len(db)
        # A statement stating no relations reads every one; this one
        # reads only S.
        s_only = 'SELECT "C" FROM "S"'
        assert run_sql(db, s_only, reads=["S"]) == []
        assert list(kept._memo) == [none, one, s_only]  # noqa: SLF001
    # The steps below run with no connection built.
    kept.close()
    # An empty step keeps every entry.
    kept.advance((), ())
    assert list(kept._memo) == [none, one, s_only]  # noqa: SLF001
    # A step on R drops the statements that read R, and keeps S's.
    kept.advance((), [fact("R", "a5", "b")])
    assert kept.conn is None and kept.reused == 3
    assert list(kept._memo) == [s_only]  # noqa: SLF001
    with keeping(kept):
        assert run_sql(kept.db, s_only, reads=["S"]) == []
        assert kept.reused == 4
    # Seven facts, and seven rows of two statements that read only R,
    # `one` the least recently used.
    kept.advance((), [fact("S", "b", "c")])
    assert list(kept._memo) == []  # noqa: SLF001
    with keeping(kept):
        assert len(run_sql(kept.db, every, reads=["R"])) == 6
        assert run_sql(kept.db, one, reads=["R"]) == [("a0",)]
        assert len(run_sql(kept.db, every, reads=["R"])) == 6
    assert list(kept._memo) == [one, every]  # noqa: SLF001
    kept.close()
    # Deleting the S fact keeps both, but six facts bound them to six
    # rows: the least recently used goes.
    kept.advance([fact("S", "b", "c")], ())
    assert len(kept.db) == 6 and list(kept._memo) == [every]  # noqa: SLF001
    assert _memo_rows(kept) == 6
