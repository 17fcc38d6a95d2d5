"""The serving layer: admission control, handlers, HTTP, and soundness.

The end-to-end test runs a real server (real pool, real sockets, real
load generator) and is the slowest test here; everything else drives
the layers directly — the handlers are plain functions returning
``(status, body, headers)`` precisely so they can be tested without a
socket in sight.
"""

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.dispatch import DispatchPolicy, PoolConfig, WorkerPool
from repro.serve import (
    AdmissionController,
    CQAHTTPServer,
    CQAService,
    LoadReport,
    ServerConfig,
    ShedError,
    TenantPolicy,
    run_closed_loop,
)
from repro.serve.loadgen import _classify


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


#: Examples 3.3/3.4 as a wire-format database spec: the key constraint
#: Name → Salary is violated by the two page tuples.
EMPLOYEE_SPEC = {
    "relations": {
        "Employee": {
            "columns": ["Name", "Salary"],
            "key": ["Name"],
            "rows": [
                ["page", "5K"],
                ["page", "8K"],
                ["smith", "3K"],
                ["stowe", "7K"],
            ],
        }
    },
    "constraints": {"fd": ["Employee: Name -> Salary"]},
}

#: Certain answers to Q(X) :- Employee(X, Y) on that instance.
CERTAIN_NAMES = [["page"], ["smith"], ["stowe"]]


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


class TestAdmission:
    def test_clamp_timeout(self):
        c = AdmissionController(
            TenantPolicy(default_timeout_s=5.0, max_timeout_s=30.0)
        )
        assert c.clamp_timeout(None) == 5.0
        assert c.clamp_timeout(7.0) == 7.0
        assert c.clamp_timeout(1000.0) == 30.0
        assert c.clamp_timeout(-3.0) == pytest.approx(0.001)

    def test_finish_releases_the_slot(self):
        c = AdmissionController(TenantPolicy(max_concurrent=1))
        ticket = c.admit("t", timeout_s=1.0)
        assert c.stats()["t"]["inflight"] == 1
        ticket.finish("ok", elapsed_s=0.01)
        assert c.stats()["t"]["inflight"] == 0
        c.admit("t", timeout_s=1.0).finish("ok", 0.01)  # slot is free

    def test_finish_is_idempotent(self):
        c = AdmissionController(TenantPolicy(max_concurrent=1))
        ticket = c.admit("t", timeout_s=1.0)
        ticket.finish("ok", 0.01)
        ticket.finish("ok", 0.01)  # must not double-release
        assert c.stats()["t"]["inflight"] == 0

    def test_queue_full_sheds_immediately(self):
        c = AdmissionController(
            TenantPolicy(max_concurrent=1, max_queue=0)
        )
        ticket = c.admit("t", timeout_s=5.0)
        with pytest.raises(ShedError) as exc_info:
            c.admit("t", timeout_s=5.0)
        assert exc_info.value.reason == "queue-full"
        assert exc_info.value.status == 429
        ticket.finish("ok", 0.01)

    def test_quota_exhausted_until_window_rolls(self):
        clock = FakeClock()
        c = AdmissionController(
            TenantPolicy(quota_requests=2, quota_window_s=60.0),
            clock=clock,
        )
        for _ in range(2):
            c.admit("t", timeout_s=1.0).finish("ok", 0.01)
        with pytest.raises(ShedError) as exc_info:
            c.admit("t", timeout_s=1.0)
        assert exc_info.value.reason == "quota-exhausted"
        # Retry-After points at the window boundary, not a guess.
        assert 0.0 < exc_info.value.retry_after_s <= 60.0
        clock.advance(60.0)
        c.admit("t", timeout_s=1.0).finish("ok", 0.01)  # fresh window

    def test_quota_is_per_tenant(self):
        clock = FakeClock()
        c = AdmissionController(
            TenantPolicy(quota_requests=1, quota_window_s=60.0),
            clock=clock,
        )
        c.admit("a", timeout_s=1.0).finish("ok", 0.01)
        with pytest.raises(ShedError):
            c.admit("a", timeout_s=1.0)
        c.admit("b", timeout_s=1.0).finish("ok", 0.01)  # b unaffected

    def test_erroring_tenant_is_cut_off_with_503(self):
        clock = FakeClock()
        c = AdmissionController(
            TenantPolicy(failure_threshold=2, cooldown_s=5.0),
            clock=clock,
        )
        for _ in range(2):
            c.admit("t", timeout_s=1.0).finish("error", 0.01)
        with pytest.raises(ShedError) as exc_info:
            c.admit("t", timeout_s=1.0)
        assert exc_info.value.reason == "tenant-breaker-open"
        assert exc_info.value.status == 503
        # After the cooldown the probe is admitted again.
        clock.advance(5.0)
        c.admit("t", timeout_s=1.0).finish("ok", 0.01)
        c.admit("t", timeout_s=1.0).finish("ok", 0.01)

    def test_sheds_do_not_count_against_the_tenant_breaker(self):
        c = AdmissionController(
            TenantPolicy(
                max_concurrent=1, max_queue=0, failure_threshold=1
            )
        )
        ticket = c.admit("t", timeout_s=1.0)
        for _ in range(3):  # shedding is the controller working
            with pytest.raises(ShedError):
                c.admit("t", timeout_s=1.0)
        ticket.finish("ok", 0.01)
        c.admit("t", timeout_s=1.0).finish("ok", 0.01)  # still admitted

    def test_deadline_unreachable_sheds_before_queueing(self):
        c = AdmissionController(TenantPolicy(max_concurrent=1))
        ticket = c.admit("t", timeout_s=5.0)
        state = c._tenant("t")  # noqa: SLF001 — seed the EWMA
        state.ewma_s = 10.0
        with pytest.raises(ShedError) as exc_info:
            c.admit("t", timeout_s=0.5)
        assert exc_info.value.reason == "deadline-unreachable"
        assert exc_info.value.retry_after_s >= 10.0
        ticket.finish("ok", 0.01)

    def test_fresh_tenant_is_never_shed_on_a_guess(self):
        # EWMA seeds at zero: with no history, deadline-unreachable
        # cannot fire no matter how short the timeout.
        c = AdmissionController(TenantPolicy(max_concurrent=4))
        c.admit("t", timeout_s=0.001).finish("ok", 0.0005)

    def test_queue_timeout_sheds_after_the_deadline(self):
        c = AdmissionController(
            TenantPolicy(max_concurrent=1, max_queue=4)
        )
        ticket = c.admit("t", timeout_s=5.0)
        started = time.monotonic()
        with pytest.raises(ShedError) as exc_info:
            c.admit("t", timeout_s=0.2)
        waited = time.monotonic() - started
        assert exc_info.value.reason == "queue-timeout"
        assert 0.15 <= waited < 2.0
        ticket.finish("ok", 0.01)

    def test_waiter_is_woken_when_a_slot_frees(self):
        c = AdmissionController(
            TenantPolicy(max_concurrent=1, max_queue=4)
        )
        first = c.admit("t", timeout_s=5.0)
        admitted = threading.Event()

        def waiter():
            c.admit("t", timeout_s=5.0).finish("ok", 0.01)
            admitted.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.1)  # let the waiter reach cond.wait
        assert not admitted.is_set()
        first.finish("ok", 0.01)
        thread.join(timeout=5.0)
        assert admitted.is_set()


# ----------------------------------------------------------------------
# Service handlers (no pool, no sockets)
# ----------------------------------------------------------------------


class TestServiceHandlers:
    def test_register_list_query_remove_cycle(self):
        svc = CQAService()
        status, body, _ = svc.register_db("emp", EMPLOYEE_SPEC)
        assert status == 200
        assert body == {"db": "emp", "facts": 4, "constraints": 1}
        status, body, _ = svc.list_dbs()
        assert body["databases"]["emp"]["facts"] == 4
        status, body, _ = svc.handle_cqa(
            {"db": "emp", "query": "Q(X) :- Employee(X, Y)"}
        )
        assert status == 200
        assert body["complete"] and body["outcome"] == "ok"
        assert body["answers"] == CERTAIN_NAMES
        status, _, _ = svc.remove_db("emp")
        assert status == 200
        status, body, _ = svc.handle_cqa(
            {"db": "emp", "query": "Q(X) :- Employee(X, Y)"}
        )
        assert status == 400

    def test_inline_instance_is_one_shot(self):
        svc = CQAService()
        payload = dict(EMPLOYEE_SPEC)
        payload["query"] = "Q(X, Y) :- Employee(X, Y)"
        status, body, _ = svc.handle_cqa(payload)
        assert status == 200
        assert body["answers"] == [["smith", "3K"], ["stowe", "7K"]]
        assert svc.list_dbs()[1]["databases"] == {}  # nothing persisted

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ({}, "relations"),
            ({"relations": {"R": []}}, "must be an object"),
            ({"relations": {"R": {"rows": []}}}, "columns"),
            (
                {
                    "relations": {
                        "R": {"columns": ["a", "b"], "rows": [["x"]]}
                    }
                },
                "2 values",
            ),
        ],
    )
    def test_bad_database_specs_are_400(self, spec, fragment):
        svc = CQAService()
        status, body, _ = svc.register_db("bad", spec)
        assert status == 400
        assert fragment in body["error"]

    def test_invalid_database_name_is_400(self):
        svc = CQAService()
        assert svc.register_db("", EMPLOYEE_SPEC)[0] == 400
        assert svc.register_db("a/b", EMPLOYEE_SPEC)[0] == 400

    def test_bad_query_is_400_not_500(self):
        svc = CQAService()
        svc.register_db("emp", EMPLOYEE_SPEC)
        status, body, _ = svc.handle_cqa(
            {"db": "emp", "query": "not a query"}
        )
        assert status == 400 and "request_id" in body
        status, _, _ = svc.handle_cqa({"db": "emp", "query": 42})
        assert status == 400

    def test_repairs_endpoint_with_limit(self):
        svc = CQAService()
        svc.register_db("emp", EMPLOYEE_SPEC)
        status, body, _ = svc.handle_repairs(
            {"db": "emp", "semantics": "s"}
        )
        assert status == 200 and body["complete"]
        # Two S-repairs: keep page/5K or keep page/8K.
        assert len(body["repairs"]) == 2
        deleted = sorted(
            repair["deleted"][0] for repair in body["repairs"]
        )
        assert deleted == [
            ["Employee", "page", "5K"],
            ["Employee", "page", "8K"],
        ]
        status, body, _ = svc.handle_repairs(
            {"db": "emp", "semantics": "s", "limit": 1}
        )
        assert status == 200
        assert len(body["repairs"]) == 1 and not body["complete"]
        assert body["outcome"] == "degraded"

    def test_repairs_validation(self):
        svc = CQAService()
        svc.register_db("emp", EMPLOYEE_SPEC)
        assert (
            svc.handle_repairs({"db": "emp", "semantics": "x"})[0] == 400
        )
        assert (
            svc.handle_repairs({"db": "emp", "limit": 0})[0] == 400
        )
        assert (
            svc.handle_repairs({"db": "emp", "limit": "many"})[0] == 400
        )

    def test_cqa_unknown_semantics_is_400(self):
        svc = CQAService()
        svc.register_db("emp", EMPLOYEE_SPEC)
        status, body, _ = svc.handle_cqa({
            "db": "emp", "query": "Q(X) :- Employee(X, Y)",
            "semantics": "bogus",
        })
        assert status == 400
        assert body["error"].startswith("unknown repair semantics 'bogus'")
        assert "request_id" in body

    @pytest.mark.parametrize(
        "timeout",
        ["abc", "5", [1], {"s": 1}, True, float("nan"), 10**400],
        ids=["text", "numeral", "list", "object", "bool", "nan", "huge"],
    )
    def test_a_timeout_that_is_not_a_number_is_400(self, timeout):
        svc = CQAService()
        svc.register_db("emp", EMPLOYEE_SPEC)
        payload = {
            "db": "emp", "query": "Q(X) :- Employee(X, Y)",
            "timeout_s": timeout,
        }
        for handle in (svc.handle_cqa, svc.handle_repairs):
            status, body, headers = handle(payload)
            assert status == 400
            assert body["error"] == "'timeout_s' must be a number"
            assert "request_id" in body and headers == {}
        status, body, _ = svc.handle_cqa(
            {"db": "emp", "query": "Q(X) :- Employee(X, Y)", "timeout_s": 5}
        )
        assert status == 200 and body["answers"] == CERTAIN_NAMES

    def test_a_json_boolean_limit_is_400(self):
        """JSON ``true`` is not the integer 1: it used to answer 200
        with one repair marked incomplete."""
        svc = CQAService()
        svc.register_db("emp", EMPLOYEE_SPEC)
        for flag in (True, False):
            status, body, _ = svc.handle_repairs(
                {"db": "emp", "semantics": "s", "limit": flag}
            )
            assert status == 400
            assert body["error"] == "'limit' must be a positive integer"

    @pytest.mark.parametrize(
        "tenant", [["a"], {"t": "a"}, 7, True],
        ids=["list", "object", "number", "bool"],
    )
    def test_a_tenant_that_is_not_a_string_is_400(self, tenant):
        svc = CQAService()
        svc.register_db("emp", EMPLOYEE_SPEC)
        payload = {
            "db": "emp", "query": "Q(X) :- Employee(X, Y)",
            "tenant": tenant,
        }
        for handle in (svc.handle_cqa, svc.handle_repairs):
            status, body, _ = handle(payload)
            assert status == 400
            assert body["error"] == "'tenant' must be a string"
            assert "request_id" in body
        assert svc.admission.stats() == {}  # no tenant was admitted
        status, body, _ = svc.handle_cqa(dict(payload, tenant="a"))
        assert status == 200 and body["answers"] == CERTAIN_NAMES
        assert list(svc.admission.stats()) == ["a"]

    def test_inconsistency_report(self):
        svc = CQAService()
        svc.register_db("emp", EMPLOYEE_SPEC)
        status, body, _ = svc.handle_report("emp")
        assert status == 200
        assert body["size"] == 4
        assert body["repair_distance"] == 1  # drop one page tuple
        assert svc.handle_report("nope")[0] == 404

    def test_shed_response_shape(self):
        svc = CQAService(
            admission=AdmissionController(
                TenantPolicy(quota_requests=0, quota_window_s=60.0)
            )
        )
        svc.register_db("emp", EMPLOYEE_SPEC)
        status, body, headers = svc.handle_cqa(
            {"db": "emp", "query": "Q(X) :- Employee(X, Y)"}
        )
        assert status == 429
        assert body["error"] == "shed"
        assert body["reason"] == "quota-exhausted"
        assert isinstance(body["retry_after_s"], float)
        assert "Retry-After" in headers

    def test_health_without_pool(self):
        status, body, _ = CQAService().health()
        assert status == 200 and body["status"] == "ok"


# ----------------------------------------------------------------------
# The degrade path: saturated pool → sound certain-core answers
# ----------------------------------------------------------------------


    def test_one_tenants_deadlines_leave_anothers_engine_closed(self):
        """A rung that runs out of its request's own deadline charges no
        breaker: after tenant t1's self-joins on an 8,000-fact instance
        spend their 50 ms and degrade, tenant t2's read of a 4-fact
        instance is still answered exactly by ``local``."""
        from repro.logic.parser import parse_fd
        from repro.relational import Database, RelationSchema, Schema

        schema = Schema.of(
            RelationSchema("Employee", ("Name", "Salary"), key=("Name",))
        )
        key = [parse_fd("Employee: Name -> Salary")]
        rows = [(f"e{i // 2}", f"s{i * 7 % 1000}") for i in range(8000)]
        small = [("a", "1"), ("a", "2"), ("b", "2"), ("c", "3")]
        svc = CQAService()
        for name, facts in (("big", rows), ("small", small)):
            svc.register_instance(
                name,
                Database.from_dict({"Employee": facts}, schema=schema),
                key,
            )
        self_join = "Q(X) :- Employee(X, Y), Employee(Z, Y)"
        for _ in range(3):
            status, body, _ = svc.handle_cqa({
                "db": "big", "query": self_join, "tenant": "t1",
                "timeout_s": 0.05,
            })
            assert status == 200 and not body["complete"], body
        breakers = svc.dispatcher.breakers
        assert [breakers[n].failures for n in ("local", "enumerate")] == [
            0, 0
        ]
        status, body, _ = svc.handle_cqa(
            {"db": "small", "query": self_join, "tenant": "t2"}
        )
        assert status == 200
        assert body["complete"] and body["engine"] == "local", body
        assert body["answers"] == [["a"], ["b"], ["c"]]

    def test_values_sqlite_cannot_store_leave_fm_sql_closed(self):
        """An instance holding a value SQLite cannot store makes fm-sql
        inapplicable, not failed: after three reads each of a tenant
        holding a lone surrogate and one holding 2**70, all answered
        exactly by fo-mem, another tenant's read is still fm-sql's."""
        svc = CQAService()
        for name, value in (
            ("surrogate", "\ud800"), ("big", 2 ** 70), ("clean", "3"),
        ):
            rows = [["a", "1"], ["a", value], ["b", "2"]]
            status, _, _ = svc.register_db(name, {
                "relations": {
                    "R": {"columns": ["A", "B"], "key": ["A"], "rows": rows}
                },
                "constraints": {"fd": ["R: A -> B"]},
            })
            assert status == 200
        query = "Q(X) :- R(X, Y)"
        for name in ("surrogate", "big"):
            for _ in range(3):
                status, body, _ = svc.handle_cqa(
                    {"db": name, "query": query, "tenant": name}
                )
                assert status == 200 and body["complete"], body
                assert body["engine"] == "fo-mem", body
                assert body["answers"] == [["a"], ["b"]]
        breaker = svc.dispatcher.breakers["fm-sql"]
        assert breaker.failures == 0 and str(breaker.state()) == "closed"
        status, body, _ = svc.handle_cqa(
            {"db": "clean", "query": query, "tenant": "clean"}
        )
        assert status == 200 and body["complete"], body
        assert body["engine"] == "fm-sql", body
        assert body["answers"] == [["a"], ["b"]]

    def test_query_constants_bind_exactly(self):
        """fm-sql binds a query's constants instead of writing them into
        the SQL: a float matches the stored one to the last bit, and a
        constant SQLite cannot hold — an integer past 64 bits, a lone
        surrogate — makes fm-sql inapplicable, charging no breaker.
        Every read answers Cons."""
        svc = _probe_constants(CQAService())
        breaker = svc.dispatcher.breakers["fm-sql"]
        assert breaker.failures == 0 and str(breaker.state()) == "closed"


#: fm-sql probes of query constants: the rows of R (keyed on A), the
#: query, Cons, and the rung that answers.
CONSTANT_PROBES = (
    ([["a", -5.561424542183802], ["b", 1]],
     "Q(X) :- R(X, -5.561424542183802)", [["a"]], "fm-sql"),
    ([["a", float(2 ** 70)], ["b", 1]],
     "Q(X) :- R(X, 1180591620717411303425)", [], "fo-mem"),
    ([["a", "x"], ["b", 1]], 'Q(X) :- R(X, "\ud800")', [], "fo-mem"),
)


def _probe_constants(svc):
    """Register and read each of :data:`CONSTANT_PROBES` on *svc*."""
    for i, (rows, query, cons, engine) in enumerate(CONSTANT_PROBES):
        name = f"probe{i}"
        status, _, _ = svc.register_db(name, {
            "relations": {
                "R": {"columns": ["A", "B"], "key": ["A"], "rows": rows}
            },
            "constraints": {"fd": ["R: A -> B"]},
        })
        assert status == 200
        status, body, _ = svc.handle_cqa({"db": name, "query": query})
        assert status == 200 and body["complete"], body
        assert body["answers"] == cons, (query, body)
        assert body["engine"] == engine, (query, body)
    return svc


class _SaturatedPool:
    """Quacks like a WorkerPool with every worker busy."""

    def idle_count(self):
        return 0

    def drain(self, timeout_s=None):
        pass

    def stats(self):
        return {"workers": 2, "idle": 0, "draining": False}


class TestDegradeOnSaturation:
    def test_degraded_answers_are_a_sound_subset(self):
        svc = CQAService(
            policy=DispatchPolicy(isolate=("fm-sql",)),
            pool=_SaturatedPool(),
        )
        svc.register_db("emp", EMPLOYEE_SPEC)
        status, body, _ = svc.handle_cqa(
            {"db": "emp", "query": "Q(X) :- Employee(X, Y)"}
        )
        assert status == 200
        assert body["outcome"] == "degraded"
        assert body["complete"] is False
        assert body["engine"] == "certain-core"
        assert body["degraded_reason"] == "pool-saturated"
        # The soundness contract: never a wrong tuple, only fewer.
        certain = {tuple(row) for row in CERTAIN_NAMES}
        assert {tuple(row) for row in body["answers"]} <= certain

    def test_a_failing_fastpath_run_is_counted_and_the_ladder_answers(
        self, monkeypatch
    ):
        from repro.dispatch.engines import (
            CertainCoreEngine,
            EngineInapplicableError,
        )
        from repro.observability.live import live

        def broken(self, request):
            raise RecursionError("certain-core ran out of stack")

        svc = CQAService(policy=DispatchPolicy(isolate=()))
        monkeypatch.setattr(svc, "_should_degrade", lambda: True)
        svc.register_db("emp", EMPLOYEE_SPEC)
        query = {"db": "emp", "query": "Q(X) :- Employee(X, Y)"}
        with live() as plane:
            monkeypatch.setattr(CertainCoreEngine, "run", broken)
            status, body, _ = svc.handle_cqa(query)
            assert status == 200
            assert body["complete"] and body["answers"] == CERTAIN_NAMES
            assert "degraded_reason" not in body
            counters = plane.status()["counters"]
            assert counters["serve.degraded_fastpath_failed"]["total"] == 1
            assert "serve.degraded_fastpath" not in counters

            # A request the rung declines is no failure of the rung.
            def declines(self, request):
                raise EngineInapplicableError("not this rung's request")

            monkeypatch.setattr(CertainCoreEngine, "check", declines)
            status, body, _ = svc.handle_cqa(query)
            assert status == 200 and body["complete"]
            counters = plane.status()["counters"]
            assert counters["serve.degraded_fastpath_failed"]["total"] == 1

    def test_no_degrade_when_isolation_is_off(self):
        # A saturated pool only matters for rungs that would use it.
        svc = CQAService(
            policy=DispatchPolicy(isolate=()), pool=_SaturatedPool()
        )
        svc.register_db("emp", EMPLOYEE_SPEC)
        status, body, _ = svc.handle_cqa(
            {"db": "emp", "query": "Q(X) :- Employee(X, Y)"}
        )
        assert status == 200
        assert body["complete"] and body["outcome"] == "ok"
        assert body["answers"] == CERTAIN_NAMES


# ----------------------------------------------------------------------
# Load-generator response classification
# ----------------------------------------------------------------------


class TestLoadgenClassify:
    def _report(self):
        return LoadReport()

    def _ok_body(self, answers, complete):
        return {"answers": answers, "complete": complete}

    def test_exact_answer_counts_ok(self):
        report = self._report()
        _classify(
            200, {}, self._ok_body(CERTAIN_NAMES, True),
            CERTAIN_NAMES, report,
        )
        assert report.ok == 1 and report.sound

    def test_wrong_complete_answer_is_unsound(self):
        report = self._report()
        _classify(
            200, {}, self._ok_body([["page"]], True),
            CERTAIN_NAMES, report,
        )
        assert report.wrong == 1 and not report.sound

    def test_degraded_subset_is_sound(self):
        report = self._report()
        _classify(
            200, {}, self._ok_body([["page"]], False),
            CERTAIN_NAMES, report,
        )
        assert report.degraded == 1 and report.sound

    def test_degraded_superset_is_unsound(self):
        report = self._report()
        _classify(
            200,
            {},
            self._ok_body(CERTAIN_NAMES + [["intruder"]], False),
            CERTAIN_NAMES,
            report,
        )
        assert report.wrong == 1 and not report.sound

    def test_well_formed_shed(self):
        report = self._report()
        _classify(
            429,
            {"retry-after": "1"},
            {"error": "shed", "reason": "queue-full",
             "retry_after_s": 0.5},
            CERTAIN_NAMES,
            report,
        )
        assert report.shed == 1 and report.sound

    def test_malformed_shed_fails_the_gate(self):
        report = self._report()
        _classify(429, {}, {"error": "overloaded"}, None, report)
        assert report.malformed == 1 and not report.sound

    def test_missing_answers_key_is_malformed(self):
        report = self._report()
        _classify(200, {}, {"status": "fine"}, None, report)
        assert report.malformed == 1 and not report.sound


# ----------------------------------------------------------------------
# End to end: real pool, real sockets, real load
# ----------------------------------------------------------------------


class _ServerHarness:
    """Runs a CQAHTTPServer on a private event-loop thread."""

    def __init__(self, service, config):
        self.server = CQAHTTPServer(service, config)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )

    def __enter__(self):
        self.thread.start()
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self.loop
        ).result(timeout=30.0)
        self._serving = asyncio.run_coroutine_threadsafe(
            self.server.serve_forever(), self.loop
        )
        return self.server

    def __exit__(self, *exc):
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        ).result(timeout=60.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)
        self.loop.close()

    def request(self, method, path, payload=None):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.server.port, timeout=30.0
        )
        try:
            body = (
                json.dumps(payload).encode() if payload is not None
                else None
            )
            conn.request(
                method,
                path,
                body=body,
                headers={"Content-Type": "application/json"}
                if body
                else {},
            )
            response = conn.getresponse()
            raw = response.read()
            parsed = json.loads(raw) if raw and raw[:1] in (b"{", b"[") \
                else raw.decode("utf-8", "replace")
            return response.status, parsed
        finally:
            conn.close()


def _pid_alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().split(") ", 1)[1][0] != "Z"
    except OSError:
        return False


class TestEndToEnd:
    def test_serve_under_concurrency_is_sound_and_leak_free(self):
        pool = WorkerPool(PoolConfig(size=1)).start()
        pids = pool.stats()["pids"]
        service = CQAService(
            policy=DispatchPolicy(isolate=("fm-sql",)),
            pool=pool,
            admission=AdmissionController(
                TenantPolicy(max_concurrent=4, max_queue=8)
            ),
        )
        harness = _ServerHarness(
            service, ServerConfig(port=0, max_inflight=6)
        )
        with harness as server:
            status, body = harness.request(
                "PUT", "/v1/db/emp", EMPLOYEE_SPEC
            )
            assert status == 200 and body["facts"] == 4
            status, body = harness.request("GET", "/healthz")
            assert status == 200 and body["status"] == "ok"
            status, body = harness.request("GET", "/v1/db/emp/report")
            assert status == 200 and body["repair_distance"] == 1
            status, text = harness.request("GET", "/metrics")
            assert status == 200 and isinstance(text, str)
            status, body = harness.request("GET", "/nope")
            assert status == 404
            report = run_closed_loop(
                "127.0.0.1",
                server.port,
                {
                    "db": "emp",
                    "query": "Q(X) :- Employee(X, Y)",
                    "timeout_s": 20.0,
                },
                total=12,
                concurrency=3,
                expect=CERTAIN_NAMES,
            )
            # Soundness under contention: every 200 is exact or an
            # explicit subset; sheds (if any) are well-formed.
            assert report.sound, report.render()
            assert report.transport_errors == 0
            assert report.ok + report.degraded + report.shed == 12
            assert report.ok >= 1
            status, body = harness.request("DELETE", "/v1/db/emp")
            assert status == 200
            status, body = harness.request(
                "POST",
                "/v1/cqa",
                {"db": "emp", "query": "Q(X) :- Employee(X, Y)"},
            )
            assert status == 400
        # Graceful stop drained the pool: no worker survives.
        for pid in pids:
            assert not _pid_alive(pid)
        assert pool.stats()["workers"] == 0


class TestHttpBoundary:
    """Payloads and failures the handlers used to drop the connection
    on: each now gets a JSON answer."""

    MIXED_SPEC = {
        "relations": {
            "R": {
                "columns": ["A", "B"],
                "key": ["A"],
                "rows": [["a", "b"], [1, "c"]],
            }
        },
        "constraints": {"fd": ["R: A -> B"]},
    }

    def _harness(self, service):
        return _ServerHarness(service, ServerConfig(port=0))

    def test_a_non_scalar_mutate_value_is_400_and_changes_nothing(self):
        harness = self._harness(CQAService())
        with harness:
            assert harness.request("PUT", "/v1/db/d", self.MIXED_SPEC)[0] == 200
            status, body = harness.request(
                "POST", "/v1/db/d/mutate",
                {"insert": [["R", "z", "y"], ["R", ["x"], "y"]]},
            )
            assert status == 400
            assert "'insert' entry 1" in body["error"]
            assert "['x']" in body["error"]
            status, body = harness.request(
                "POST", "/v1/db/d/mutate", {"delete": [["R", "a", {"b": 1}]]}
            )
            assert status == 400 and "'delete' entry 0" in body["error"]
            status, body = harness.request("GET", "/v1/db")
            assert status == 200 and body["databases"]["d"]["facts"] == 2

    def test_put_and_delete_leave_the_event_loop_free(self, tmp_path):
        """Both run on the handler executor: while either's append is
        held, /healthz on a second connection answers."""
        from repro.serve.store import StorePolicy, TenantStore

        service = CQAService(store=TenantStore(str(tmp_path), StorePolicy()))
        service.recover()
        store = service.store
        harness = self._harness(service)
        with harness as server:
            for method, append in (
                ("PUT", "append_put_db"), ("DELETE", "append_del_db")
            ):
                entered, release = threading.Event(), threading.Event()
                real = getattr(store, append)

                def held(*args, real=real, entered=entered,
                         release=release):
                    entered.set()
                    release.wait(30.0)
                    return real(*args)

                setattr(store, append, held)
                results = []
                request = threading.Thread(target=lambda: results.append(
                    harness.request(method, "/v1/db/d", self.MIXED_SPEC)
                ))
                request.start()
                try:
                    assert entered.wait(30.0)
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", server.port, timeout=5.0
                    )
                    try:
                        conn.request("GET", "/healthz")
                        assert conn.getresponse().status == 200
                    finally:
                        conn.close()
                finally:
                    release.set()
                    request.join(30.0)
                assert results[0][0] == 200, (method, results)

    def test_an_unexpected_handler_exception_is_a_500_envelope(
        self, monkeypatch
    ):
        service = CQAService()

        def broken(name, payload):
            raise RuntimeError("handler bug")

        monkeypatch.setattr(service, "handle_mutate", broken)
        harness = self._harness(service)
        with harness:
            status, body = harness.request(
                "POST", "/v1/db/d/mutate", {"insert": [["R", "z", "y"]]}
            )
            assert status == 500
            assert body["error"] == "internal: RuntimeError: handler bug"
            assert harness.request("GET", "/healthz")[0] == 200

    def test_bad_cqa_fields_are_400_on_a_connection_that_stays_open(self):
        harness = self._harness(CQAService())
        with harness as server:
            assert harness.request("PUT", "/v1/db/d", self.MIXED_SPEC)[0] == 200
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=30.0
            )
            try:
                conn.connect()
                sock = conn.sock
                read = {"db": "d", "query": "Q(X) :- R(X, Y)"}
                for bad, error in (
                    ({"semantics": "bogus"}, "unknown repair semantics"),
                    ({"timeout_s": "abc"}, "'timeout_s' must be a number"),
                ):
                    conn.request("POST", "/v1/cqa", json.dumps({**read, **bad}))
                    response = conn.getresponse()
                    body = json.loads(response.read())
                    assert response.status == 400, body
                    assert body["error"].startswith(error)
                    assert response.getheader("Connection") == "keep-alive"
                conn.request("POST", "/v1/cqa", json.dumps(read))
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["answers"] == [[1], ["a"]]
                # The same socket carried all three requests.
                assert conn.sock is sock
            finally:
                conn.close()

    def test_an_answer_holding_the_null_marker_is_served_with_null(self):
        # fm-sql maps the SQL NULL of a JSON null back to the NULL marker.
        spec = {
            "relations": {
                "R": {
                    "columns": ["A", "B"],
                    "key": ["A"],
                    "rows": [[None, "x"], ["b", "c"]],
                }
            },
            "constraints": {"fd": ["R: A -> B"]},
        }
        harness = self._harness(CQAService())
        with harness as server:
            assert harness.request("PUT", "/v1/db/n", spec)[0] == 200
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=30.0
            )
            try:
                conn.request("POST", "/v1/cqa", json.dumps(
                    {"db": "n", "query": "Q(X) :- R(X, Y)"}
                ))
                response = conn.getresponse()
                raw = response.read()
            finally:
                conn.close()
            assert response.status == 200, raw
            assert raw.startswith(b'{"answers": [[null], ["b"]], ')
            assert json.loads(raw)["engine"] == "fm-sql"

    def test_a_repair_that_inserts_null_is_served_with_null(self):
        # Repairing R[B] <= S[B] inserts S(b, NULL).
        spec = {
            "relations": {
                "R": {"columns": ["A", "B"], "rows": [["a", "b"]]},
                "S": {"columns": ["B", "C"], "rows": [["x", "y"]]},
            },
            "constraints": {"ind": ["R[B] <= S[B]"]},
        }
        harness = self._harness(CQAService())
        with harness:
            assert harness.request("PUT", "/v1/db/i", spec)[0] == 200
            status, body = harness.request(
                "POST", "/v1/repairs", {"db": "i", "semantics": "s"}
            )
            assert status == 200, body
            inserted = [r["inserted"] for r in body["repairs"]]
            assert [["S", "b", None]] in inserted

    @staticmethod
    def _nan_instance():
        from repro.logic.parser import parse_fd
        from repro.relational import RelationSchema, Schema
        from repro.relational.database import Database

        schema = Schema.of(RelationSchema("R", ("A", "B"), ("A",)))
        nan = float("nan")
        rows = [(nan, "x"), ("a", nan), ("a", "z")]
        return (
            Database.from_dict({"R": rows}, schema=schema),
            [parse_fd("R: A -> B")],
        )

    def test_an_answer_json_cannot_carry_is_a_500_not_a_dropped_connection(
        self,
    ):
        service = CQAService()
        service.register_instance("nan", *self._nan_instance())
        harness = self._harness(service)
        with harness:
            # The self-join is answered in memory, with the NaN itself.
            status, body = harness.request("POST", "/v1/cqa", {
                "db": "nan", "query": "Q(X) :- R(X, Y), R(Z, Y)",
            })
            assert status == 500
            assert "Out of range float values" in body["error"]
            assert body["request_id"]
            assert harness.request("GET", "/healthz")[0] == 200

    def test_a_body_the_server_cannot_encode_is_a_500_that_closes(self):
        service = CQAService()
        service.register_instance("nan", *self._nan_instance())
        harness = self._harness(service)
        with harness as server:
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=30.0
            )
            try:
                # One repair deletes R(a, NaN), which JSON cannot carry.
                conn.request("POST", "/v1/repairs", json.dumps(
                    {"db": "nan", "semantics": "s", "limit": 2}
                ))
                response = conn.getresponse()
                body = json.loads(response.read())
            finally:
                conn.close()
            assert response.status == 500
            assert body["error"].startswith("internal: ValueError: ")
            assert response.getheader("Connection") == "close"
            assert harness.request("GET", "/healthz")[0] == 200

    def test_non_finite_json_numbers_are_400(self):
        harness = self._harness(CQAService())
        with harness as server:
            for number in ("NaN", "Infinity", "-Infinity", "1e999"):
                for method, path, text in (
                    ("POST", "/v1/cqa",
                     '{"db": "d", "query": "Q(X) :- R(X, Y)", '
                     f'"timeout_s": {number}}}'),
                    ("PUT", "/v1/db/d",
                     '{"relations": {"R": {"columns": ["A"], '
                     f'"rows": [[{number}]]}}}}}}'),
                ):
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", server.port, timeout=30.0
                    )
                    try:
                        conn.request(method, path, text)
                        response = conn.getresponse()
                        body = json.loads(response.read())
                    finally:
                        conn.close()
                    assert response.status == 400, (number, body)
                    assert body["error"].startswith("invalid JSON body: ")
            assert harness.request("GET", "/v1/db")[1]["databases"] == {}

    def test_answers_that_mix_value_types_are_200(self):
        harness = self._harness(CQAService())
        with harness:
            assert harness.request("PUT", "/v1/db/d", self.MIXED_SPEC)[0] == 200
            status, body = harness.request(
                "POST", "/v1/cqa", {"db": "d", "query": "Q(X) :- R(X, Y)"}
            )
            assert status == 200, body
            assert body["complete"] and body["engine"] == "fm-sql"
            assert body["answers"] == [[1], ["a"]]


class TestConflictsAtScale:
    """1,100 disjoint key conflicts, so 2^1100 C-repairs: more than any
    budget enumerates, and deeper than the interpreter's recursion
    limit; and one component no budget solves, a long path."""

    @pytest.fixture(scope="class")
    def big(self):
        from .test_dispatch import _keyed_join

        return _keyed_join(5500, 550)

    @staticmethod
    def _assert_certified_per_component(db, constraints, repairs, is_repair):
        """No edge crosses a conflict component, so a subinstance is a
        repair when it keeps every fact outside the components and its
        part of each component is a repair of that component.
        ``is_c_repair`` on the whole instance would enumerate all 2^1100
        C-repairs to learn the distance.  Each component's repairs are
        certified once, as the sets of facts they delete."""
        import itertools

        from repro.constraints import ConflictHypergraph
        from repro.relational import Database, fact

        components = [
            frozenset(db.fact_by_tid(tid) for tid in component)
            for component in ConflictHypergraph.build(
                db, constraints
            ).components()
        ]
        assert len(components) == 1100
        certified = []
        for component in components:
            whole = Database.from_facts(sorted(component, key=repr), db.schema)
            certified.append({
                frozenset(deleted)
                for size in range(len(component) + 1)
                for deleted in itertools.combinations(whole, size)
                if is_repair(whole, whole.delete(deleted), constraints)
            })
        conflicting = frozenset().union(*components)
        for repair in repairs:
            assert repair["inserted"] == []
            deleted = {fact(*row) for row in repair["deleted"]}
            assert deleted <= conflicting
            for component, allowed in zip(components, certified):
                assert deleted & component in allowed

    def test_c_repairs_answer_certified_repairs_within_the_timeout(
        self, big
    ):
        from repro.repairs import is_c_repair

        db, constraints = big
        service = CQAService()
        service.register_instance("big", db, constraints)
        status, body, _ = service.handle_repairs({
            "db": "big", "semantics": "c", "timeout_s": 0.5, "limit": 2,
        })
        assert status == 200, body
        assert body["complete"] is False and body["outcome"] == "degraded"
        assert 1 <= len(body["repairs"]) <= 2
        self._assert_certified_per_component(
            db, constraints, body["repairs"], is_c_repair
        )

    @pytest.mark.parametrize("semantics", ["s", "c"])
    def test_unbounded_repairs_answer_certified_repairs_at_the_deadline(
        self, big, semantics
    ):
        """No ``limit``: the request builds repairs until its deadline
        and returns them, each a set of 1,100 deleted tids until it is
        rendered, never a 12,100-fact instance."""
        from repro.repairs import is_c_repair, is_s_repair

        db, constraints = big
        service = CQAService()
        service.register_instance("big", db, constraints)
        status, body, _ = service.handle_repairs({
            "db": "big", "semantics": semantics, "timeout_s": 0.5,
        })
        assert status == 200, body
        assert body["complete"] is False and body["outcome"] == "degraded"
        assert len(body["repairs"]) >= 1
        self._assert_certified_per_component(
            db, constraints, body["repairs"],
            is_c_repair if semantics == "c" else is_s_repair,
        )

    def test_a_report_answers_a_thousand_disjoint_conflicts(self, big):
        """The distance is the sum of the per-component minima;
        enumerating the 2^1100 C-repairs instead runs past the 5 s
        default."""
        service = CQAService()
        service.register_instance("big", *big)
        with _ServerHarness(service, ServerConfig(port=0)) as server:
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=60.0
            )
            try:
                started = time.monotonic()
                conn.request("GET", "/v1/db/big/report")
                response = conn.getresponse()
                body = json.loads(response.read())
                took = time.monotonic() - started
            finally:
                conn.close()
        assert response.status == 200, body
        assert took < 5.0
        assert body["size"] == 12100 and body["repair_distance"] == 1100
        # 1 - kept / |D| and distance / |D| round differently.
        assert body["g3"] == pytest.approx(body["cardinality_measure"])
        assert body["violation_ratio"] == pytest.approx(2200 / 12100)

    def test_a_budgeted_read_of_one_long_path_brackets_cons(self):
        """40 tuples in one component: neither ``local``, which lists
        its 73,396 kept sets, nor ``enumerate`` answers within 0.5 s,
        so certain-core answers, and its sample of greedy kept sets
        costs no search."""
        from .test_dispatch import _path

        service = CQAService()
        service.register_instance("path", *_path(40))
        started = time.monotonic()
        status, body, _ = service.handle_cqa({
            "db": "path", "query": "Q(X) :- R(X, Y)", "timeout_s": 0.5,
        })
        assert status == 200, body
        assert time.monotonic() - started < 5.0
        assert body["complete"] is False
        # The S-repairs of a path are its maximal independent sets:
        # consecutive kept tuples 2 or 3 apart, from the first or
        # second tuple to the last or second to last.  Tuple i has
        # A = a{i // 2}.
        repairs = []

        def walk(kept):
            if kept[-1] >= 40 - 2:
                repairs.append(kept)
            for step in (2, 3):
                if kept[-1] + step < 40:
                    walk(kept + [kept[-1] + step])

        walk([0])
        walk([1])
        cons = set.intersection(
            *({f"a{i // 2}" for i in kept} for kept in repairs)
        )
        assert cons == {"a0", "a19"}
        assert {row[0] for row in body["answers"]} <= cons
        assert cons <= {row[0] for row in body["upper_bound"]}

    def test_five_s_repairs_of_one_long_path_come_within_budget(self):
        from .test_dispatch import _path

        service = CQAService()
        service.register_instance("path", *_path(24))
        status, body, _ = service.handle_repairs({
            "db": "path", "semantics": "s", "limit": 5, "timeout_s": 2,
        })
        assert status == 200, body
        assert len(body["repairs"]) == 5

    def test_a_report_past_its_budget_is_a_typed_503(self):
        """One component, a 60-tuple path: its minimum-hitting-set
        search alone outlives the 0.5 s budget (about 6M branches)."""
        from .test_dispatch import _path

        service = CQAService(
            admission=AdmissionController(
                TenantPolicy(default_timeout_s=0.5)
            )
        )
        service.register_instance("path", *_path(60))
        service.register_db("emp", EMPLOYEE_SPEC)
        with _ServerHarness(service, ServerConfig(port=0)) as server:
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=60.0
            )
            try:
                conn.request("GET", "/v1/db/path/report")
                response = conn.getresponse()
                body = json.loads(response.read())
                assert response.status == 503, body
                assert body == {
                    "error": "budget-exhausted",
                    "reason": "deadline",
                    "budget_s": 0.5,
                    "detail": "the report on 'path' did not finish "
                    "within its 0.5s budget",
                }
                assert response.getheader("Connection") != "close"
                # The connection stays open, and a small report is as
                # it was.
                conn.request("GET", "/v1/db/emp/report")
                response = conn.getresponse()
                body = json.loads(response.read())
            finally:
                conn.close()
        assert response.status == 200
        assert body["size"] == 4 and body["repair_distance"] == 1
