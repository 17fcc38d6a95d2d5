"""Warm instance state in pool workers.

A pooled read of a registered database carries the instance key
``(name, version)``.  A worker that already holds that version gets a
key-only job and runs on its decoded instance and SQLite connection;
any other worker gets the whole instance (a miss) and keeps it.  These
tests pin that a warm answer is always the consistent answer of the
registry's current instance, that affinity turns repeat reads into
hits, and that every disagreement about a worker's state is a crash,
never a stale answer.
"""

import io
import pickle
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cqa import consistent_answers_fm
from repro.cqa.certain import consistent_answers
from repro.dispatch import (
    CQARequest,
    DispatchPolicy,
    PoolConfig,
    WorkerPool,
)
from repro.dispatch import pool as pool_mod
from repro.dispatch.worker import (
    WARM_CAPACITY,
    WorkerCrashError,
    WorkerTimeoutError,
    read_frame,
    serve_loop,
    write_frame,
)
from repro.logic.parser import parse_query
from repro.observability import collect
from repro.serve.service import CQAService

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
    db, constraints, _ = service._databases[name]  # noqa: SLF001
    answers = consistent_answers(db, constraints, parse_query(query))
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
#: reads the fields it needs.  Reads are the most frequent op.
_OPS = st.tuples(
    st.sampled_from(
        ["read", "read", "read", "mutate", "mutate", "register", "remove"]
    ),
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
        for op, name, query, facts, inserts, deletes in ops:
            registered = name in service._databases  # noqa: SLF001
            if op == "register":
                status, _, _ = service.register_db(name, _spec(facts))
                assert status == 200
            elif op == "mutate":
                status, _, _ = service.handle_mutate(
                    name, {"insert": inserts, "delete": deletes}
                )
                if not registered:
                    assert status in (400, 404)
                elif inserts or deletes:
                    assert status == 200
            elif op == "read" and registered:
                body = _read(service, name, query)
                assert body["complete"] and body["engine"] == "fm-sql"
                assert body["answers"] == _reference(service, name, query)
            elif op == "read":
                status, _, _ = service.handle_cqa(
                    {"db": name, "query": query}
                )
                assert status == 400
            else:
                status, _, _ = service.remove_db(name)
                assert status == (200 if registered else 404)

    with collect() as collector:
        run()
        assert collector.counter("pool.warm.hits") > 0


# ----------------------------------------------------------------------
# Affinity and counts
# ----------------------------------------------------------------------


def test_repeat_reads_hit_one_worker_and_a_write_costs_one_miss(
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
        assert len({worker for worker, _ in sent_frames}) == 1
        status, _, _ = service.handle_mutate(
            "counts", {"delete": [["R", "a0", "b0"], ["R", "a0", "b1"]]}
        )
        assert status == 200
        body = _read(service, "counts")
        assert body["answers"] == _reference(service, "counts")
        assert ["a0"] not in body["answers"]
        assert collector.counter("pool.warm.misses") == 2
        assert collector.counter("pool.warm.hits") == 7
        # The new version went to the worker holding the old one.
        assert len({worker for worker, _ in sent_frames}) == 1


def test_a_busy_holder_is_not_waited_for(shared_pool, sent_frames):
    assert shared_pool.wait_ready(timeout_s=30.0)
    service = _service(shared_pool)
    assert service.register_db("busy", _spec(R_FACTS + S_FACTS))[0] == 200
    _read(service, "busy")
    key = ("busy", service._databases["busy"][2])  # noqa: SLF001
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
    assert len(service._databases["big"][0]) >= 5000  # noqa: SLF001
    with collect() as collector:
        first = _read(service, "big")
        second = _read(service, "big")
        assert collector.counter("pool.warm.hits") == 1
    db, constraints, _ = service._databases["big"]  # noqa: SLF001
    # Repair enumeration cannot take 250 conflicting key groups; the
    # in-memory rewriting is the reference here.
    reference = consistent_answers_fm(
        db, constraints, parse_query(PROJECTION)
    )
    assert first["answers"] == second["answers"]
    assert second["answers"] == sorted(list(row) for row in reference)
    (_, miss_bytes), (_, hit_bytes) = sent_frames
    assert miss_bytes > 100_000
    assert hit_bytes < 4096


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
        db, constraints, version = service._databases["f"]  # noqa: SLF001
        # The parent believes a worker holds the new version; it holds
        # only the old one.
        (holder,) = [w for w in pool._workers if "f" in w.warm]  # noqa: SLF001
        holder.warm = {"f": version}
        request = CQARequest(
            db, constraints, parse_query(PROJECTION),
            instance_key=("f", version),
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
            db, constraints, _ = service._databases["r"]  # noqa: SLF001
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
        db, constraints, version = service._databases[name]  # noqa: SLF001
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
