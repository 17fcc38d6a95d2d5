"""Tests for the observability layer: spans, metrics, export, overhead."""

import io
import json
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.observability import (
    Collector,
    MetricsRegistry,
    add,
    annotate,
    build_trees,
    collect,
    current_span,
    gauge,
    install,
    installed,
    observe,
    read_trace,
    span,
    uninstall,
    write_trace,
)
from repro.observability.spans import _NULL_SPAN


class TestSpans:
    def test_nesting_builds_a_tree(self):
        with collect() as c:
            with span("outer"):
                with span("inner-a"):
                    pass
                with span("inner-b"):
                    with span("leaf"):
                        pass
        assert [s.name for s in c.spans] == ["outer"]
        (outer,) = c.spans
        assert [s.name for s in outer.children] == ["inner-a", "inner-b"]
        assert [s.name for s in outer.children[1].children] == ["leaf"]

    def test_durations_are_positive_and_contain_children(self):
        with collect() as c:
            with span("outer"):
                with span("inner"):
                    time.sleep(0.005)
        (outer,) = c.spans
        (inner,) = outer.children
        assert inner.duration >= 0.005
        assert outer.duration >= inner.duration

    def test_attributes_and_annotate(self):
        with collect() as c:
            with span("work", size=3):
                annotate(result="ok")
        (s,) = c.spans
        assert s.attributes == {"size": 3, "result": "ok"}

    def test_current_span_tracks_innermost(self):
        with collect():
            with span("outer"):
                with span("inner"):
                    assert current_span().name == "inner"
                assert current_span().name == "outer"

    def test_error_is_recorded_and_propagates(self):
        with collect() as c:
            with pytest.raises(ValueError):
                with span("boom"):
                    raise ValueError("nope")
        (s,) = c.spans
        assert "ValueError" in s.attributes["error"]

    def test_counter_deltas_attach_to_each_span(self):
        with collect() as c:
            with span("outer"):
                add("work.items", 2)
                with span("inner"):
                    add("work.items", 3)
        (outer,) = c.spans
        (inner,) = outer.children
        assert inner.metrics["work.items"] == 3
        assert outer.metrics["work.items"] == 5  # includes the child's

    def test_threads_get_independent_span_stacks(self):
        with collect() as c:
            def work(i):
                with span(f"thread-{i}"):
                    time.sleep(0.001)
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(work, range(8)))
        # Each thread's spans are roots (no cross-thread nesting).
        assert sorted(s.name for s in c.spans) == sorted(
            f"thread-{i}" for i in range(8)
        )


class TestMetrics:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.add("hits", 2)
        registry.add("hits")
        registry.gauge("depth", 7)
        registry.observe("latency", 0.25)
        registry.observe("latency", 0.75)
        snap = registry.snapshot()
        assert snap["hits"] == 3
        assert snap["depth"] == 7
        assert snap["latency.count"] == 2
        assert snap["latency.sum"] == pytest.approx(1.0)
        assert snap["latency.min"] == pytest.approx(0.25)
        assert snap["latency.max"] == pytest.approx(0.75)

    def test_collector_updates_read_no_clock(self):
        """The collector's window is infinite: one bucket that never
        expires, so neither an update nor its snapshot reads the clock."""
        reads = []

        def clock():
            reads.append(1)
            return 0.0

        registry = MetricsRegistry(clock=clock)
        reads.clear()
        registry.add("hits")
        registry.observe("latency", 1.0)
        registry.gauge("depth", 3)
        assert registry.snapshot()["latency.p50"] == 1.0
        assert reads == []

    def test_counter_thread_safety(self):
        with collect() as c:
            def work(_):
                for _i in range(1000):
                    add("racy")
            with ThreadPoolExecutor(max_workers=8) as pool:
                list(pool.map(work, range(8)))
        assert c.counter("racy") == 8000

    def test_reset_isolation(self):
        registry = MetricsRegistry()
        registry.add("x", 5)
        registry.reset()
        assert registry.snapshot() == {}
        # Separate collectors never share state.
        with collect() as first:
            add("shared", 1)
        with collect() as second:
            pass
        assert first.counter("shared") == 1
        assert second.counter("shared") == 0

    def test_collector_reset(self):
        with collect() as c:
            with span("s"):
                add("n", 1)
            c.reset()
            assert c.spans == [] and c.snapshot() == {}

    def test_observe_and_gauge_module_functions(self):
        with collect() as c:
            observe("timing", 0.5)
            assert "timing.count" in c.snapshot()


class TestInstall:
    def test_collect_installs_and_uninstalls(self):
        assert installed() is None
        with collect() as c:
            assert installed() is c
        assert installed() is None

    def test_installs_nest(self):
        outer, inner = Collector(), Collector()
        install(outer)
        try:
            add("n", 1)
            install(inner)
            try:
                add("n", 1)
            finally:
                uninstall()
            add("n", 1)
        finally:
            uninstall()
        assert outer.counter("n") == 2
        assert inner.counter("n") == 1
        assert installed() is None

    def test_uninstall_when_empty_is_safe(self):
        assert uninstall() is None


class TestExport:
    def _collected(self):
        with collect() as c:
            with span("outer", kind="test"):
                add("outer.work", 4)
                with span("inner"):
                    pass
        return c

    def test_jsonl_round_trip(self, tmp_path):
        c = self._collected()
        path = tmp_path / "trace.jsonl"
        lines = c.write_trace(path)
        # 2 spans + 1 metrics line, each valid JSON.
        assert lines == 3
        records = read_trace(path)
        assert len(records) == 3
        roots = build_trees(records)
        assert len(roots) == 1
        assert roots[0]["name"] == "outer"
        assert roots[0]["attributes"] == {"kind": "test"}
        assert roots[0]["metrics"]["outer.work"] == 4
        (child,) = roots[0]["children"]
        assert child["name"] == "inner"
        metrics_lines = [r for r in records if r.get("kind") == "metrics"]
        assert metrics_lines[0]["snapshot"]["outer.work"] == 4

    def test_write_to_file_object(self):
        c = self._collected()
        buf = io.StringIO()
        c.write_trace(buf)
        for line in buf.getvalue().splitlines():
            json.loads(line)

    def test_non_serialisable_attributes_fall_back_to_repr(self, tmp_path):
        with collect() as c:
            with span("s", payload=object()):
                pass
        path = tmp_path / "t.jsonl"
        c.write_trace(path)
        assert "object" in read_trace(path)[0]["attributes"]["payload"]

    def test_summary_mentions_spans_and_counters(self):
        c = self._collected()
        text = c.summary()
        assert "outer" in text and "inner" in text
        assert "outer.work" in text

    def test_flat_snapshot(self):
        c = self._collected()
        assert c.registry.snapshot()["outer.work"] == 4

    def test_gauges_appear_in_every_export_path(self, tmp_path):
        """Regression guard: gauges ride alongside counters/histograms
        in the flat snapshot, summary_table, and the JSONL metrics line."""
        with collect() as c:
            with span("outer"):
                add("outer.work", 2)
                gauge("outer.depth", 7)
                observe("outer.size", 3.0)
        snap = c.registry.snapshot()
        assert snap["outer.depth"] == 7
        assert snap["outer.work"] == 2
        assert snap["outer.size.count"] == 1
        text = c.summary()
        assert "outer.depth" in text and "7" in text
        path = tmp_path / "t.jsonl"
        c.write_trace(path)
        metrics_lines = [
            r for r in read_trace(path) if r.get("kind") == "metrics"
        ]
        assert metrics_lines[0]["snapshot"]["outer.depth"] == 7

    def test_stale_tmp_files_are_swept_on_next_write(self, tmp_path):
        """A writer that died between write and rename leaves a ``.tmp``
        orphan; the next write to the same path must remove it (both the
        legacy fixed name and pid-unique names), without touching
        unrelated files."""
        c = self._collected()
        final = tmp_path / "trace.jsonl"
        legacy_orphan = tmp_path / "trace.jsonl.tmp"
        pid_orphan = tmp_path / "trace.jsonl.99999.tmp"
        unrelated = tmp_path / "trace.jsonl.backup.tmp"
        other_file = tmp_path / "other.jsonl.tmp"
        for orphan in (legacy_orphan, pid_orphan, unrelated, other_file):
            orphan.write_text("{}\n")
        c.write_trace(final)
        assert final.exists()
        assert not legacy_orphan.exists()
        assert not pid_orphan.exists()
        assert unrelated.exists()  # not our naming scheme
        assert other_file.exists()  # different trace path
        assert read_trace(final)  # the real trace is intact

    def test_no_tmp_file_survives_a_successful_write(self, tmp_path):
        c = self._collected()
        final = tmp_path / "trace.jsonl"
        c.write_trace(final)
        c.write_trace(final)  # second write sweeps + replaces cleanly
        leftovers = [
            p for p in tmp_path.iterdir() if p.name.endswith(".tmp")
        ]
        assert leftovers == []


class _Unwritable:
    """A value whose serialization fails partway through a file."""

    def __repr__(self):
        raise RuntimeError("cannot serialize")


class TestAtomicWrites:
    """A write that fails midway leaves no temp file and the previous
    file as it was: traces, status files, envelopes and snapshots all
    go through one writer."""

    @staticmethod
    def _assert_clean(tmp_path, final, before):
        assert [p.name for p in tmp_path.iterdir()
                if p.name.endswith(".tmp")] == []
        assert final.read_text() == before

    def test_trace(self, tmp_path):
        final = tmp_path / "t.jsonl"
        final.write_text("old\n")
        with collect() as c:
            with span("ok"):
                pass
            with span("bad", payload=_Unwritable()):
                pass
        with pytest.raises(RuntimeError, match="cannot serialize"):
            c.write_trace(final)
        self._assert_clean(tmp_path, final, "old\n")

    def test_status_file(self, tmp_path):
        from repro.observability.live import write_prometheus

        final = tmp_path / "metrics.prom"
        final.write_text("old\n")
        # A lone surrogate (valid in a JSON string, e.g. a tenant name)
        # cannot be encoded as UTF-8: the write fails partway.
        status = {
            "uptime_s": 1.0,
            "counters": {"tenant.\ud800": {"total": 1, "rate_per_s": 0.0}},
        }
        with pytest.raises(UnicodeEncodeError):
            write_prometheus(final, status)
        self._assert_clean(tmp_path, final, "old\n")

    def test_envelope(self, tmp_path):
        from repro.observability.flight import FlightEnvelope, write_envelope

        envelope = FlightEnvelope(
            schema=1, envelope_id="e" * 64, request_id="r1", trigger=(),
            semantics="s", digests={}, payload={}, policy={}, budget=None,
            fault_plan=None, breakers={}, shadow_sampled=None,
            shape_stats=None, events=[{"kind": "x", "v": _Unwritable()}],
        )
        final = tmp_path / envelope.filename()
        final.write_text("old\n")
        with pytest.raises(RuntimeError, match="cannot serialize"):
            write_envelope(tmp_path, envelope)
        self._assert_clean(tmp_path, final, "old\n")

    def test_snapshot(self, tmp_path):
        from repro.serve.store.snapshot import list_snapshots, write_snapshot

        with pytest.raises(TypeError):
            write_snapshot(tmp_path, {}, 1, compaction={"x": object()})
        assert [p.name for p in tmp_path.iterdir()] == []
        assert list_snapshots(tmp_path) == []


class TestDisabledOverhead:
    """The <5% guarantee: uninstrumented runs barely pay for the hooks."""

    def test_disabled_span_is_shared_null_singleton(self):
        assert installed() is None
        s = span("anything", attr=1)
        assert s is _NULL_SPAN
        assert s is span("other")
        with s:
            annotate(ignored=True)  # no-op, must not raise

    def test_disabled_overhead_under_five_percent(self):
        """Event-count budget: (events x per-event disabled cost) < 5%.

        Comparing two full timed runs (on/off) is noisy; instead we
        count how many instrumentation events a real workload emits,
        measure the per-event disabled cost in a tight loop, and check
        the product against the workload's wall time.
        """
        from repro.repairs import s_repairs
        from repro.workloads import employee_key_violations

        scenario = employee_key_violations(5, 6, 2, seed=7)

        # Count events with a collector installed.
        with collect() as c:
            s_repairs(scenario.db, scenario.constraints)
        n_spans = c.tracer.span_count()
        n_ops = c.registry.op_count

        # Workload wall time with instrumentation disabled (best of 3).
        assert installed() is None
        wall = min(
            _timed(lambda: s_repairs(scenario.db, scenario.constraints))
            for _ in range(3)
        )

        # Per-event disabled costs, amortised over tight loops.
        loops = 20000
        t0 = time.perf_counter()
        for _ in range(loops):
            with span("x", a=1):
                pass
        span_cost = (time.perf_counter() - t0) / loops
        t0 = time.perf_counter()
        for _ in range(loops):
            add("x", 1)
        add_cost = (time.perf_counter() - t0) / loops

        budget = n_spans * span_cost + n_ops * add_cost
        assert budget < 0.05 * wall, (
            f"disabled instrumentation cost {budget * 1e6:.1f}us exceeds 5% "
            f"of workload {wall * 1e6:.1f}us "
            f"({n_spans} spans, {n_ops} metric ops)"
        )


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
