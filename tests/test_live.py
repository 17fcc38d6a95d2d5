"""Live telemetry plane: rolling windows, event correlation, SLOs, exposition.

Everything here is deterministic: the rolling instruments, the event
log, and the circuit breakers all share injectable clocks, so window
expiry and state transitions are driven by advancing a fake clock, not
by sleeping.
"""

import ast
import gc
import glob
import json
import os
import time

import pytest

from repro.dispatch import DispatchError, DispatchPolicy, Dispatcher
from repro.errors import BudgetExceededError
from repro.logic.parser import parse_query
from repro.observability import collect, installed
from repro.observability.live import (
    EVENT_KINDS,
    EXIT_SLO_VIOLATION,
    EventLog,
    LivePlane,
    current_request_id,
    emit_event,
    evaluate_slos,
    live,
    live_add,
    live_installed,
    live_plane,
    load_slo_config,
    prometheus_text,
    read_events,
    request_scope,
    validate_prometheus,
    write_prometheus,
    write_status_json,
)
from repro.observability.metrics import (
    MetricsRegistry,
    RollingCounter,
    RollingHistogram,
)
from repro.runtime import Budget, FaultPlan, inject, use_budget
from repro.workloads import employee, employee_key_violations


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# ----------------------------------------------------------------------
# Rolling instruments
# ----------------------------------------------------------------------


class TestRollingCounter:
    def test_counts_inside_window(self):
        clock = FakeClock()
        c = RollingCounter(window_s=60.0, buckets=60, clock=clock)
        c.add()
        clock.advance(10)
        c.add(2)
        assert c.window_total() == 3
        assert c.lifetime == 3
        assert c.rate_per_s() == pytest.approx(3 / 60.0)

    def test_old_events_expire_lifetime_does_not(self):
        clock = FakeClock()
        c = RollingCounter(window_s=60.0, buckets=60, clock=clock)
        c.add(5)
        clock.advance(59)
        c.add(1)
        assert c.window_total() == 6
        clock.advance(2)  # the first bucket is now outside the window
        assert c.window_total() == 1
        assert c.lifetime == 6

    def test_long_idle_clears_whole_window(self):
        clock = FakeClock()
        c = RollingCounter(window_s=60.0, buckets=60, clock=clock)
        c.add(100)
        clock.advance(3600)  # far beyond the ring: lazy full clear
        assert c.window_total() == 0
        assert c.lifetime == 100

    def test_summary_shape(self):
        c = RollingCounter(window_s=60.0, buckets=60, clock=FakeClock())
        c.add(4)
        assert c.summary() == {
            "total": 4,
            "window": 4,
            "window_s": 60.0,
            "rate_per_s": pytest.approx(4 / 60.0),
        }


class TestRollingHistogram:
    def test_percentiles_are_exact_and_deterministic(self):
        clock = FakeClock()
        h = RollingHistogram(window_s=60.0, buckets=60, clock=clock)
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(99) == pytest.approx(99.01)
        assert h.window_count() == 100
        assert h.window_sum() == pytest.approx(5050.0)

    def test_window_expiry_drops_old_samples(self):
        clock = FakeClock()
        h = RollingHistogram(window_s=60.0, buckets=60, clock=clock)
        h.observe(1000.0)
        clock.advance(61)
        h.observe(1.0)
        assert h.percentile(99) == pytest.approx(1.0)
        # lifetime stats keep the expired sample
        assert h.count == 2
        assert h.max == 1000.0
        assert h.min == 1.0

    def test_a_full_bucket_keeps_its_head_samples(self):
        h = RollingHistogram(window_s=60.0, buckets=60, clock=FakeClock())
        for v in range(300):
            h.observe(float(v))
        assert h.window_count() == 300
        # 256 samples per 1-s bucket: the first 256 arrivals.
        assert h.percentile(100) == 255.0
        assert h.max == 299.0

    def test_empty_percentile_is_none(self):
        h = RollingHistogram(clock=FakeClock())
        assert h.percentile(50) is None
        assert h.summary()["p99"] is None


class TestLiveRegistry:
    def test_snapshot_shape(self):
        clock = FakeClock()
        r = MetricsRegistry(window_s=60.0, buckets=60, clock=clock)
        r.add("reqs", 2)
        r.observe("lat", 5.0)
        r.gauge("state", "closed")
        clock.advance(3)
        snap = r.window_snapshot()
        assert snap["uptime_s"] == pytest.approx(3.0)
        assert snap["counters"]["reqs"]["total"] == 2
        assert snap["histograms"]["lat"]["p50"] == pytest.approx(5.0)
        assert snap["gauges"] == {"state": "closed"}
        assert r.op_count == 3
        assert r.counter_total("reqs") == 2
        assert r.counter_total("missing") == 0
        assert r.percentile("lat", 90) == pytest.approx(5.0)


# ----------------------------------------------------------------------
# Event log and request correlation
# ----------------------------------------------------------------------


class TestEventLog:
    def test_seq_is_monotonic_and_kinds_are_tallied(self):
        log = EventLog(clock=FakeClock())
        first = log.emit("request.start")
        second = log.emit("request.end")
        assert second["seq"] == first["seq"] + 1
        assert log.stats()["by_kind"] == {
            "request.end": 1, "request.start": 1,
        }

    def test_unknown_kind_is_rejected(self):
        log = EventLog(clock=FakeClock())
        with pytest.raises(ValueError, match="unknown event kind"):
            log.emit("request.startt")

    def test_every_kind_the_program_emits_is_registered(self):
        """Each literal kind passed to ``emit_event`` under src/ is in
        EVENT_KINDS: an unregistered one raises out of the emitting
        code whenever a live plane is installed."""
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        emitted = {}
        for path in glob.glob(
            os.path.join(src, "**", "*.py"), recursive=True
        ):
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "emit_event"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                ):
                    where = f"{os.path.relpath(path, src)}:{node.lineno}"
                    emitted.setdefault(node.args[0].value, where)
        assert len(emitted) > 20  # the scan found the call sites
        unregistered = {
            kind: where
            for kind, where in emitted.items()
            if kind not in EVENT_KINDS
        }
        assert unregistered == {}

    def test_ring_is_bounded_but_stats_are_not(self):
        log = EventLog(capacity=3, clock=FakeClock())
        for _ in range(10):
            log.emit("rung.attempt")
        stats = log.stats()
        assert stats["emitted"] == 10
        assert stats["retained"] == 3
        assert [r["seq"] for r in log.records()] == [8, 9, 10]

    def test_file_sink_roundtrips(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        log = EventLog(clock=FakeClock(), sink=sink)
        log.emit("request.start", request_id="r1", semantics="s")
        log.emit("request.end", request_id="r1", outcome="ok")
        log.close()
        records = read_events(str(sink))
        assert [r["kind"] for r in records] == [
            "request.start", "request.end",
        ]
        assert all(r["request_id"] == "r1" for r in records)

    def test_request_scope_nests_and_restores(self):
        assert current_request_id() is None
        with request_scope("outer"):
            assert current_request_id() == "outer"
            with request_scope() as inner:
                assert current_request_id() == inner != "outer"
            assert current_request_id() == "outer"
        assert current_request_id() is None

    def test_scope_id_is_stamped_into_events(self):
        log = EventLog(clock=FakeClock())
        with request_scope("r42"):
            record = log.emit("rung.attempt", engine="fm-sql")
        assert record["request_id"] == "r42"


class TestEventLogSinkRotation:
    """Size-capped rotation of the JSONL sink, and corrupt-line repair
    on read — the parity contract with ``read_trace``."""

    def test_sink_rotates_at_cap_keeping_one_generation(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        # A 1-byte cap forces a rotation after every event: the current
        # file is always freshly empty, the previous event lives in .1.
        log = EventLog(clock=FakeClock(), sink=sink, max_sink_bytes=1)
        log.emit("rung.attempt", engine="fm-sql")
        second = log.emit("rung.ok", engine="fm-sql")
        log.close()
        assert log.rotations == 2
        rotated = read_events(str(sink) + ".1")
        assert [r["kind"] for r in rotated] == ["rung.ok"]
        assert rotated[0]["seq"] == second["seq"]
        assert read_events(str(sink)) == []

    def test_uncapped_sink_never_rotates(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        log = EventLog(clock=FakeClock(), sink=sink)
        for _ in range(100):
            log.emit("rung.attempt")
        log.close()
        assert log.rotations == 0
        assert not (tmp_path / "events.jsonl.1").exists()
        assert len(read_events(str(sink))) == 100

    def test_preexisting_bytes_count_against_the_cap(self, tmp_path):
        # Append mode: a restarted process inherits the file, and the
        # inherited bytes must count or the disk bound doubles.
        sink = tmp_path / "events.jsonl"
        sink.write_bytes(b"x" * 500)
        log = EventLog(clock=FakeClock(), sink=sink, max_sink_bytes=400)
        log.emit("rung.attempt")
        log.close()
        assert log.rotations == 1

    def test_stream_sinks_ignore_the_cap(self):
        import io

        stream = io.StringIO()
        log = EventLog(clock=FakeClock(), sink=stream, max_sink_bytes=1)
        log.emit("rung.attempt")
        log.emit("rung.ok")
        assert log.rotations == 0  # no path to rotate, no error either

    def test_cap_validation(self):
        with pytest.raises(ValueError, match="max_sink_bytes"):
            EventLog(clock=FakeClock(), sink=None, max_sink_bytes=0)

    def test_read_events_skips_corrupt_and_non_object_lines(
        self, tmp_path
    ):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"seq": 1, "kind": "request.start", "request_id": "r1"}\n'
            "\n"  # blank: skipped silently
            "[1, 2, 3]\n"  # valid JSON, not an object: skipped
            '{"seq": 2, "kind": "request.end", "request_id": "r1"}\n'
            '{"seq": 3, "kind": "rung.a'  # truncated trailing write
        )
        records = read_events(str(path))
        assert [r["seq"] for r in records] == [1, 2]
        assert [r["kind"] for r in records] == [
            "request.start", "request.end",
        ]


class TestDispatchCorrelation:
    """Real dispatches produce a correlated event log."""

    def test_every_event_carries_its_request_id(self):
        scenario = employee()
        with live() as plane:
            d = Dispatcher()
            for _ in range(3):
                d.dispatch(
                    scenario.db, scenario.constraints,
                    scenario.queries["Q2"],
                )
        records = plane.events.records()
        assert records, "dispatch emitted no events"
        assert all(r["request_id"] is not None for r in records)
        by_request = {}
        for r in records:
            by_request.setdefault(r["request_id"], []).append(r["kind"])
        assert len(by_request) == 3
        for kinds in by_request.values():
            assert kinds[0] == "request.start"
            assert kinds[-1] == "request.end"
            assert "rung.ok" in kinds

    def test_each_rung_outcome_is_one_counter_and_one_event(self):
        """Every rung outcome in a request's provenance, served or
        refused, is one ``dispatch.rungs.<status>`` count and one
        ``rung.ok``/``rung.failure``/``rung.skip`` event, in ladder
        order, and nothing more."""
        scenario = employee()
        self_join = parse_query("Q(X) :- Employee(X, Y), Employee(Z, Y)")
        dispatcher = Dispatcher(DispatchPolicy(failure_threshold=1))
        refuser = Dispatcher(DispatchPolicy(ladder=("fm-sql",)))
        provenances = []
        plan = FaultPlan(seed=3, sqlite_failure_rate=1.0)
        with live() as plane, inject(plan):
            # fm-sql fails and trips; then its breaker is open; then
            # the self-join is inapplicable to both rewriting rungs.
            for query in (scenario.queries["Q1"],) * 2 + (self_join,):
                result = dispatcher.dispatch(
                    scenario.db, scenario.constraints, query
                )
                provenances.append(result.provenance)
            with pytest.raises(DispatchError) as refused:
                refuser.dispatch(scenario.db, scenario.constraints, self_join)
            provenances.append(refused.value.provenance)
        outcomes = [o for p in provenances for o in p.rungs]
        assert {o.status for o in outcomes} == {
            "ok", "failed", "breaker-open", "inapplicable",
        }
        kinds = {"ok": "rung.ok", "failed": "rung.failure"}
        assert [
            (r["kind"], r["engine"])
            for r in plane.events.records()
            if r["kind"] in ("rung.ok", "rung.failure", "rung.skip")
        ] == [(kinds.get(o.status, "rung.skip"), o.engine) for o in outcomes]
        for status in ("ok", "failed", "breaker-open", "inapplicable"):
            assert plane.registry.counter_total(
                f"dispatch.rungs.{status}"
            ) == sum(o.status == status for o in outcomes)

    def test_request_start_carries_conflict_shape_stats(self):
        scenario = employee()
        with live() as plane:
            Dispatcher().dispatch(
                scenario.db, scenario.constraints, scenario.queries["Q1"]
            )
        (start,) = plane.events.records(kind="request.start")
        conflicts = start["conflicts"]
        # Employee has one duplicate-key pair: page/5K vs page/8K.
        assert conflicts["edges"] == 1
        assert conflicts["max_component_size"] == 2
        assert conflicts["conflicting_nodes"] == 2
        assert conflicts["nodes"] == 4

    def test_span_ids_link_events_to_the_collector_trace(self):
        scenario = employee()
        with collect() as c, live() as plane:
            Dispatcher().dispatch(
                scenario.db, scenario.constraints, scenario.queries["Q2"]
            )
        span_ids = {r["span_id"] for r in plane.events.records()}
        assert None not in span_ids
        trace_ids = set()

        def walk(span):
            trace_ids.add(span.span_id)
            for child in span.children:
                trace_ids.add(child.span_id)
                walk(child)

        for root in c.spans:
            walk(root)
        assert span_ids <= trace_ids

    def test_request_id_lands_in_the_dispatch_span(self):
        scenario = employee()
        with collect() as c, live():
            Dispatcher().dispatch(
                scenario.db, scenario.constraints, scenario.queries["Q2"]
            )
        (request_span,) = c.find("dispatch.request")
        assert str(
            request_span.attributes["request_id"]
        ).startswith("r")

    def test_events_are_counted_on_the_collector_too(self):
        scenario = employee()
        with collect() as c, live():
            Dispatcher().dispatch(
                scenario.db, scenario.constraints, scenario.queries["Q2"]
            )
        assert c.counter("dispatch.events.request.start") == 1
        assert c.counter("dispatch.events.request.end") == 1


class TestBreakerTransitionEvents:
    """Satellite: the full breaker cycle is observable in the event log
    with monotonic timestamps under one shared injectable clock."""

    def _failing_then_healthy_dispatcher(self, clock):
        policy = DispatchPolicy(
            ladder=("fm-sql", "fo-mem"),
            failure_threshold=2,
            cooldown_s=30.0,
        )
        return Dispatcher(policy, clock=clock)

    def test_closed_open_halfopen_closed_cycle(self):
        clock = FakeClock()
        scenario = employee()
        plane = LivePlane(clock=clock)
        with live(plane):
            d = self._failing_then_healthy_dispatcher(clock)
            with inject(FaultPlan(seed=3, sqlite_failure_rate=1.0)):
                d.dispatch(  # failure 1 (served by fo-mem)
                    scenario.db, scenario.constraints,
                    scenario.queries["Q2"],
                )
                d.dispatch(  # failure 2: trips CLOSED -> OPEN
                    scenario.db, scenario.constraints,
                    scenario.queries["Q2"],
                )
            clock.advance(31)  # past the cooldown: next probe half-opens
            d.dispatch(  # healthy again: HALF_OPEN probe succeeds
                scenario.db, scenario.constraints, scenario.queries["Q2"]
            )
        transitions = plane.events.records(kind="breaker.transition")
        fm = [t for t in transitions if t["engine"] == "fm-sql"]
        assert [(t["from_state"], t["to_state"]) for t in fm] == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]
        stamps = [t["ts"] for t in fm]
        assert stamps == sorted(stamps)
        assert stamps[0] < stamps[1]  # the cooldown advanced the clock
        seqs = [t["seq"] for t in fm]
        assert seqs == sorted(seqs)

    def test_breaker_state_gauges_track_the_cycle(self):
        clock = FakeClock()
        scenario = employee()
        plane = LivePlane(clock=clock)
        with live(plane):
            d = self._failing_then_healthy_dispatcher(clock)
            with inject(FaultPlan(seed=3, sqlite_failure_rate=1.0)):
                d.dispatch(
                    scenario.db, scenario.constraints,
                    scenario.queries["Q2"],
                )
                d.dispatch(
                    scenario.db, scenario.constraints,
                    scenario.queries["Q2"],
                )
            assert (
                plane.registry.gauge_value("dispatch.breaker.state.fm-sql")
                == "open"
            )
            assert plane.status()["breakers"]["fm-sql"] == "open"
            clock.advance(31)
            d.dispatch(
                scenario.db, scenario.constraints, scenario.queries["Q2"]
            )
            assert (
                plane.registry.gauge_value("dispatch.breaker.state.fm-sql")
                == "closed"
            )


class TestBudgetAndDegradationEvents:
    def test_budget_exhaustion_emits_an_event(self):
        with live() as plane:
            budget = Budget(max_steps=3)
            with use_budget(budget):
                with pytest.raises(BudgetExceededError):
                    for _ in range(10):
                        budget.checkpoint()
        (event,) = plane.events.records(kind="budget.exhausted")
        assert event["reason"] == "steps"
        assert event["steps"] == 4

    def test_degraded_answers_count_as_served(self):
        scenario = employee()
        policy = DispatchPolicy(
            ladder=("enumerate", "certain-core")
        )
        with live() as plane:
            with inject(FaultPlan(seed=12, starve_steps_after=5)):
                result = Dispatcher(policy).dispatch(
                    scenario.db, scenario.constraints,
                    scenario.queries["Q1"],
                )
        assert not result.complete
        status = plane.status()
        assert status["requests"]["degraded"] == 1
        assert status["requests"]["availability"] == 1.0
        (end,) = plane.events.records(kind="request.end")
        assert end["outcome"] == "degraded"

    def test_failed_request_counts_as_error(self):
        scenario = employee()
        policy = DispatchPolicy(ladder=("fm-sql",))
        with live() as plane:
            with inject(FaultPlan(seed=5, sqlite_failure_rate=1.0)):
                with pytest.raises(DispatchError):
                    Dispatcher(policy).dispatch(
                        scenario.db, scenario.constraints,
                        scenario.queries["Q2"],
                    )
        status = plane.status()
        assert status["requests"]["error"] == 1
        assert status["requests"]["availability"] == 0.0
        (end,) = plane.events.records(kind="request.end")
        assert end["outcome"] == "error"
        assert "error" in end


# ----------------------------------------------------------------------
# Status document, exposition, SLOs
# ----------------------------------------------------------------------


def _seeded_status(ok=18, degraded=1, error=1, p99_ms=12.0):
    clock = FakeClock()
    plane = LivePlane(clock=clock)
    for _ in range(ok):
        plane.registry.add("dispatch.requests")
        plane.registry.add("dispatch.requests.ok")
    for _ in range(degraded):
        plane.registry.add("dispatch.requests")
        plane.registry.add("dispatch.requests.degraded")
    for _ in range(error):
        plane.registry.add("dispatch.requests")
        plane.registry.add("dispatch.requests.error")
    plane.registry.observe("dispatch.latency_ms", p99_ms)
    plane.registry.gauge("dispatch.breaker.state.fm-sql", "closed")
    clock.advance(10)
    return plane.status()


class TestStatusAndExposition:
    def test_status_availability_counts_degraded_as_served(self):
        status = _seeded_status(ok=18, degraded=1, error=1)
        assert status["requests"]["total"] == 20
        assert status["requests"]["availability"] == pytest.approx(0.95)
        assert status["breakers"] == {"fm-sql": "closed"}

    def test_prometheus_output_parses_line_by_line(self):
        text = prometheus_text(_seeded_status())
        assert validate_prometheus(text) > 10
        assert "repro_dispatch_requests_total 20" in text
        assert (
            'repro_dispatch_breaker_state{engine="fm-sql",state="closed"} 1'
            in text
        )
        assert "repro_dispatch_availability 0.95" in text

    def test_validator_rejects_garbage(self):
        with pytest.raises(ValueError, match="malformed sample"):
            validate_prometheus("this is { not valid\n")

    def test_writers_are_atomic_and_roundtrip(self, tmp_path):
        status = _seeded_status()
        json_path = tmp_path / "status.json"
        prom_path = tmp_path / "metrics.prom"
        write_status_json(json_path, status)
        write_prometheus(prom_path, status)
        loaded = json.loads(json_path.read_text())
        assert loaded["requests"]["total"] == 20
        validate_prometheus(prom_path.read_text())
        assert not list(tmp_path.glob("*.tmp"))


class TestSlo:
    def test_availability_violation_and_burn(self):
        slos = [
            {"name": "avail", "kind": "availability", "objective": 0.99},
        ]
        results = evaluate_slos(slos, _seeded_status(ok=18, error=2,
                                                     degraded=0))
        (r,) = results
        assert not r["ok"]
        assert r["observed"] == pytest.approx(0.9)
        assert r["burn"] == pytest.approx(10.0)

    def test_latency_objective(self):
        slos = [
            {"name": "p99", "kind": "latency",
             "metric": "dispatch.latency_ms", "percentile": 99,
             "target_ms": 10.0},
        ]
        (r,) = evaluate_slos(slos, _seeded_status(p99_ms=12.0))
        assert not r["ok"]
        assert r["observed"] == pytest.approx(12.0)
        (r,) = evaluate_slos(slos, _seeded_status(p99_ms=8.0))
        assert r["ok"]

    def test_no_traffic_burns_no_budget(self):
        slos = [
            {"name": "avail", "kind": "availability", "objective": 0.99},
        ]
        (r,) = evaluate_slos(slos, _seeded_status(ok=0, degraded=0,
                                                  error=0))
        assert r["ok"]
        assert r["observed"] is None

    def test_config_validation(self, tmp_path):
        bad = tmp_path / "slo.json"
        bad.write_text('{"slos": [{"name": "x", "kind": "wibble"}]}')
        with pytest.raises(ValueError, match="unknown kind"):
            load_slo_config(str(bad))
        bad.write_text('{"slos": []}')
        with pytest.raises(ValueError, match="non-empty"):
            load_slo_config(str(bad))
        good = tmp_path / "ok.json"
        good.write_text(
            '{"slos": [{"name": "a", "kind": "availability",'
            ' "objective": 0.95}]}'
        )
        assert len(load_slo_config(str(good))) == 1

    def test_committed_slo_config_is_valid(self):
        slos = load_slo_config("benchmarks/slo.json")
        kinds = {s["kind"] for s in slos}
        assert kinds == {"availability", "latency"}


# ----------------------------------------------------------------------
# CLI: dispatch --telemetry, obs status / watch / slo
# ----------------------------------------------------------------------


class TestTelemetryCli:
    @pytest.fixture
    def employee_csv(self, tmp_path):
        path = tmp_path / "emp.csv"
        path.write_text(
            "Name,Salary\npage,5K\npage,8K\nsmith,3K\nstowe,7K\n"
        )
        return str(path)

    def _dispatch(self, employee_csv, tele_dir, *extra):
        from repro.cli import main

        return main([
            "dispatch", "--csv", f"Employee={employee_csv}",
            "--fd", "Employee: Name -> Salary",
            "--query", "Q(X) :- Employee(X, Y)",
            "--telemetry", tele_dir, *extra,
        ])

    def test_dispatch_writes_correlated_telemetry(
        self, employee_csv, tmp_path, capsys
    ):
        tele = str(tmp_path / "tele")
        assert self._dispatch(employee_csv, tele, "--repeat", "3") == 0
        capsys.readouterr()
        events = read_events(f"{tele}/events.jsonl")
        assert len({r["request_id"] for r in events}) == 3
        assert all(r["request_id"] for r in events)
        status = json.loads((tmp_path / "tele/status.json").read_text())
        assert status["requests"]["total"] == 3
        assert status["requests"]["availability"] == 1.0
        validate_prometheus((tmp_path / "tele/metrics.prom").read_text())

    def test_obs_status_renders_breakers_and_percentiles(
        self, employee_csv, tmp_path, capsys
    ):
        from repro.cli import main

        tele = str(tmp_path / "tele")
        self._dispatch(employee_csv, tele)
        capsys.readouterr()
        assert main(["obs", "status", f"{tele}/status.json"]) == 0
        out = capsys.readouterr().out
        assert "fm-sql" in out and "closed" in out
        assert "p50=" in out and "p99=" in out
        assert main(["obs", "status", f"{tele}/status.json",
                     "--prom"]) == 0
        validate_prometheus(capsys.readouterr().out)

    def test_obs_watch_single_render(
        self, employee_csv, tmp_path, capsys
    ):
        from repro.cli import main

        tele = str(tmp_path / "tele")
        self._dispatch(employee_csv, tele)
        capsys.readouterr()
        assert main(["obs", "watch", f"{tele}/status.json",
                     "--count", "1"]) == 0
        assert "live status" in capsys.readouterr().out

    def test_obs_slo_check_exits_7_under_fault_plan(
        self, employee_csv, tmp_path, capsys
    ):
        from repro.cli import main

        tele = str(tmp_path / "tele")
        rc = self._dispatch(
            employee_csv, tele,
            "--engine", "fm-sql",
            "--fault-sqlite-rate", "1.0",
            "--repeat", "4",
        )
        assert rc == 2  # every request failed outright
        capsys.readouterr()
        rc = main([
            "obs", "slo", "--config", "benchmarks/slo.json",
            "--status", f"{tele}/status.json", "--check",
        ])
        out = capsys.readouterr()
        assert rc == EXIT_SLO_VIOLATION
        assert "VIOLATED" in out.out

    def test_obs_slo_check_passes_on_healthy_run(
        self, employee_csv, tmp_path, capsys
    ):
        from repro.cli import main

        tele = str(tmp_path / "tele")
        self._dispatch(employee_csv, tele, "--repeat", "3")
        capsys.readouterr()
        rc = main([
            "obs", "slo", "--config", "benchmarks/slo.json",
            "--status", f"{tele}/status.json", "--check",
        ])
        assert rc == 0
        assert "VIOLATED" not in capsys.readouterr().out


# ----------------------------------------------------------------------
# Overhead guarantees
# ----------------------------------------------------------------------


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class TestLiveOverhead:
    """The live plane must not break the <5% instrumentation budget."""

    def test_uninstalled_free_functions_are_early_returns(self):
        assert not live_installed()
        assert live_plane() is None
        live_add("x")
        emit_event("request.start")  # must be a silent no-op

    def test_live_overhead_under_five_percent(self):
        """Op-count budget, mirroring the disabled-collector test:
        (live ops per workload x per-op enabled cost) < 5% of the
        workload's wall time, the workload being the work whose ops
        are counted: a repair enumeration and a dispatch.  Holds by
        construction — live hooks sit at request/rung granularity,
        never in per-tuple loops.  Each time is the least of a few
        runs, so other work on the host inflates neither side."""
        from repro.repairs import s_repairs

        scenario = employee_key_violations(5, 6, 2, seed=7)
        dispatch_scenario = employee()

        def repair():
            s_repairs(scenario.db, scenario.constraints)

        def dispatch():
            Dispatcher().dispatch(
                dispatch_scenario.db,
                dispatch_scenario.constraints,
                dispatch_scenario.queries["Q2"],
            )

        wall = min(_timed(lambda: (repair(), dispatch())) for _ in range(3))

        # Live ops emitted by the repair workload (hot path: zero) plus
        # a dispatch on top, which is where the live hooks live.
        with live() as plane:
            repair()
            hot_loop_ops = (
                plane.registry.op_count + plane.events.stats()["emitted"]
            )
            dispatch()
            total_ops = (
                plane.registry.op_count + plane.events.stats()["emitted"]
            )
        assert hot_loop_ops == 0, (
            "repair hot loops must not touch the live plane"
        )

        # Per-op enabled costs, amortised over tight loops.
        loops = 5000
        bench = MetricsRegistry(window_s=60.0, buckets=60)
        log = EventLog()

        def per_op(op):
            # A full collection of the test process's heap must not land
            # inside a loop and be charged to the plane.
            gc.collect()
            t0 = time.perf_counter()
            for _ in range(loops):
                op()
            return (time.perf_counter() - t0) / loops

        add_cost = min(per_op(lambda: bench.add("x")) for _ in range(3))
        emit_cost = min(
            per_op(lambda: log.emit("rung.attempt", engine="x"))
            for _ in range(3)
        )

        budget = total_ops * max(add_cost, emit_cost)
        assert budget < 0.05 * wall, (
            f"live instrumentation cost {budget * 1e6:.1f}us exceeds 5% "
            f"of workload {wall * 1e6:.1f}us ({total_ops} live ops)"
        )
