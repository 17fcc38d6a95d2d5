"""Tests for the trace-analysis layer (repro.observability.analysis)."""

import json
import pathlib
import shutil

import pytest

from repro.observability import build_trees, collect, read_trace, span
from repro.observability.analysis import (
    EXIT_BENCH_SET,
    EXIT_COUNTERS,
    EXIT_OK,
    EXIT_TIMING,
    MemoryProfiler,
    aggregate,
    check_baselines,
    critical_path,
    diff_suites,
    exit_code,
    profile_memory,
    render_flamegraph,
    render_report,
    trace_totals,
)
from repro.observability.analysis.regression import load_suite


def _node(name, duration, children=(), metrics=None, start=0.0):
    return {
        "name": name,
        "duration_s": duration,
        "start": start,
        "attributes": {},
        "metrics": dict(metrics or {}),
        "children": list(children),
    }


class TestAggregate:
    def test_self_time_excludes_children(self):
        tree = _node(
            "outer", 1.0,
            children=[_node("inner", 0.3), _node("inner", 0.4)],
        )
        stats = {s.name: s for s in aggregate([tree])}
        assert stats["outer"].total_s == pytest.approx(1.0)
        assert stats["outer"].self_s == pytest.approx(0.3)
        assert stats["inner"].calls == 2
        assert stats["inner"].total_s == pytest.approx(0.7)
        assert stats["inner"].self_s == pytest.approx(0.7)

    def test_self_time_clamped_against_clock_jitter(self):
        # Children summing past the parent (monotonic clock jitter)
        # must not produce negative self time.
        tree = _node("outer", 0.1, children=[_node("inner", 0.2)])
        stats = {s.name: s for s in aggregate([tree])}
        assert stats["outer"].self_s == 0.0

    def test_counter_sums_per_name(self):
        forest = [
            _node("work", 0.1, metrics={"repairs.s_emitted": 2}),
            _node("work", 0.1, metrics={"repairs.s_emitted": 3}),
        ]
        stats = {s.name: s for s in aggregate(forest)}
        assert stats["work"].counters == {"repairs.s_emitted": 5}

    def test_zero_duration_spans(self):
        tree = _node("instant", 0.0, children=[_node("child", 0.0)])
        stats = {s.name: s for s in aggregate([tree])}
        assert stats["instant"].total_s == 0.0
        assert stats["instant"].self_s == 0.0
        assert trace_totals([tree]) == {
            "trees": 1, "spans": 2, "wall_s": 0.0,
        }
        assert [n["name"] for n in critical_path(tree)] == [
            "instant", "child",
        ]

    def test_open_span_counts_as_zero(self):
        tree = _node("open", None)
        assert aggregate([tree])[0].total_s == 0.0


class TestCriticalPath:
    def test_picks_slowest_child_at_each_level(self):
        tree = _node(
            "root", 1.0,
            children=[
                _node("fast", 0.2, children=[_node("fast-leaf", 0.19)]),
                _node("slow", 0.7, children=[
                    _node("slow-a", 0.1), _node("slow-b", 0.5),
                ]),
            ],
        )
        assert [n["name"] for n in critical_path(tree)] == [
            "root", "slow", "slow-b",
        ]

    def test_singleton_tree(self):
        tree = _node("only", 0.5)
        assert [n["name"] for n in critical_path(tree)] == ["only"]


class TestReport:
    def test_report_over_real_trace(self, tmp_path):
        with collect() as c:
            with span("outer"):
                from repro.observability import add

                add("repairs.s_emitted", 2)
                with span("inner"):
                    pass
        path = tmp_path / "t.jsonl"
        c.write_trace(path)
        roots = build_trees(read_trace(path))
        text = render_report(roots)
        assert "outer" in text and "inner" in text
        assert "repairs.s_emitted=2" in text
        assert "critical path" in text

    def test_report_top_limits_table(self):
        forest = [_node(f"name-{i}", 0.1) for i in range(10)]
        text = render_report(forest, top=3)
        assert "7 more span name(s)" in text


class TestFlamegraph:
    def test_html_smoke(self):
        tree = _node(
            "root", 1.0, start=100.0,
            children=[
                _node("left", 0.4, start=100.0,
                      metrics={"asp.ground_rules": 7}),
                _node("right", 0.5, start=100.45),
            ],
        )
        html = render_flamegraph([tree], title="smoke <test>")
        assert html.startswith("<!DOCTYPE html>")
        assert "smoke &lt;test&gt;" in html
        for name in ("root", "left", "right"):
            assert name in html
        assert "asp.ground_rules=7" in html
        # Children are positioned within the root's extent.
        assert 'data-l="0.0000" data-w="100.0000"' in html

    def test_empty_trace(self):
        html = render_flamegraph([])
        assert "empty trace" in html

    def test_zero_duration_root_does_not_divide_by_zero(self):
        tree = _node("instant", 0.0, children=[_node("child", 0.0)])
        assert "instant" in render_flamegraph([tree])


class TestMemoryProfiler:
    def test_spans_gain_memory_attributes(self):
        with collect() as c:
            with profile_memory(c.tracer):
                with span("alloc"):
                    blob = [0] * 50_000
                    del blob
        (s,) = c.spans
        assert s.attributes["mem_peak_kb"] > 100  # 50k ints ≈ 400kB
        assert "mem_net_kb" in s.attributes

    def test_child_peak_folds_into_parent(self):
        with collect() as c:
            with profile_memory(c.tracer):
                with span("outer"):
                    with span("inner"):
                        blob = [0] * 50_000
                        del blob
        (outer,) = c.spans
        (inner,) = outer.children
        assert (
            outer.attributes["mem_peak_kb"]
            >= inner.attributes["mem_peak_kb"]
        )

    def test_detach_removes_hook_and_stops_tracing(self):
        import tracemalloc

        with collect() as c:
            profiler = MemoryProfiler().attach(c.tracer)
            assert profiler in c.tracer.hooks
            assert tracemalloc.is_tracing()
            profiler.detach()
            assert profiler not in c.tracer.hooks
            assert not tracemalloc.is_tracing()
            with span("after"):
                pass
        (s,) = c.spans
        assert "mem_peak_kb" not in s.attributes


def _suite(records):
    return {"schema": 2, "suite": "unit", "results": records}


def _record(name, counters=None, median_s=0.01, **extra):
    record = {
        "name": name,
        "params": {},
        "rounds": 5,
        "best_s": median_s * 0.9,
        "mean_s": median_s * 1.1,
        "median_s": median_s,
        "counters": dict(counters or {}),
    }
    record.update(extra)
    return record


class TestDiffSuites:
    def test_identical_suites_pass(self):
        suite = _suite([_record("a", {"repairs.s_emitted": 4})])
        findings = diff_suites(suite, suite)
        assert findings == []
        assert exit_code(findings) == EXIT_OK

    def test_counter_drift_is_flagged_as_algorithm_change(self):
        old = _suite([_record("a", {"repairs.states_explored": 10})])
        new = _suite([_record("a", {"repairs.states_explored": 14})])
        findings = diff_suites(old, new)
        assert exit_code(findings) == EXIT_COUNTERS
        (finding,) = findings
        assert finding.kind == "counter"
        assert "10 -> 14" in finding.message
        assert "algorithm change" in finding.message

    def test_missing_counter_key_is_drift(self):
        old = _suite([_record("a", {"asp.ground_rules": 3})])
        new = _suite([_record("a", {})])
        findings = diff_suites(old, new)
        assert exit_code(findings) == EXIT_COUNTERS
        assert "3 -> absent" in findings[0].message

    def test_new_benchmark(self):
        old = _suite([_record("a")])
        new = _suite([_record("a"), _record("b")])
        findings = diff_suites(old, new)
        assert [f.kind for f in findings] == ["added"]
        assert exit_code(findings) == EXIT_BENCH_SET

    def test_removed_benchmark(self):
        old = _suite([_record("a"), _record("b")])
        new = _suite([_record("a")])
        findings = diff_suites(old, new)
        assert [f.kind for f in findings] == ["removed"]
        assert exit_code(findings) == EXIT_BENCH_SET

    def test_timing_regression_and_counters_only_demotion(self):
        old = _suite([_record("a", median_s=0.010)])
        new = _suite([_record("a", median_s=0.100)])
        findings = diff_suites(old, new, threshold=1.5)
        assert [f.kind for f in findings] == ["timing"]
        assert exit_code(findings) == EXIT_TIMING
        assert exit_code(findings, counters_only=True) == EXIT_OK

    def test_timing_within_threshold_passes(self):
        old = _suite([_record("a", median_s=0.010)])
        new = _suite([_record("a", median_s=0.012)])
        assert exit_code(diff_suites(old, new, threshold=1.5)) == EXIT_OK

    def test_speedup_is_advisory(self):
        old = _suite([_record("a", median_s=0.100)])
        new = _suite([_record("a", median_s=0.010)])
        findings = diff_suites(old, new)
        assert [f.kind for f in findings] == ["info"]
        assert exit_code(findings) == EXIT_OK

    def test_schema1_files_fall_back_to_best_s(self):
        old = _suite([_record("a")])
        del old["results"][0]["median_s"]
        new = _suite([_record("a")])
        del new["results"][0]["median_s"]
        assert exit_code(diff_suites(old, new)) == EXIT_OK

    def test_counter_drift_outranks_set_change_and_timing(self):
        old = _suite([
            _record("a", {"x": 1}, median_s=0.01), _record("gone"),
        ])
        new = _suite([_record("a", {"x": 2}, median_s=0.09)])
        assert exit_code(diff_suites(old, new)) == EXIT_COUNTERS

    def test_zero_duration_timing_is_skipped(self):
        old = _suite([_record("a", median_s=0.0)])
        old["results"][0]["best_s"] = 0.0
        new = _suite([_record("a", median_s=0.5)])
        assert exit_code(diff_suites(old, new)) == EXIT_OK


class TestCheckBaselines:
    def _write_suite(self, directory, suite_name, records):
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"BENCH_{suite_name}.json"
        path.write_text(json.dumps(
            {"schema": 2, "suite": suite_name, "results": records}
        ))
        return path

    def test_matching_directories_pass(self, tmp_path):
        records = [_record("a", {"repairs.s_emitted": 2})]
        self._write_suite(tmp_path / "base", "unit", records)
        self._write_suite(tmp_path / "run", "unit", records)
        findings = check_baselines(tmp_path / "base", tmp_path / "run")
        assert exit_code(findings) == EXIT_OK

    def test_perturbed_counter_fails_the_gate(self, tmp_path):
        self._write_suite(
            tmp_path / "base", "unit",
            [_record("a", {"repairs.s_emitted": 2})],
        )
        self._write_suite(
            tmp_path / "run", "unit",
            [_record("a", {"repairs.s_emitted": 3})],
        )
        findings = check_baselines(tmp_path / "base", tmp_path / "run")
        assert exit_code(findings) == EXIT_COUNTERS
        assert "unit::a" in findings[0].name

    def test_missing_results_suite_is_flagged(self, tmp_path):
        self._write_suite(tmp_path / "base", "unit", [_record("a")])
        (tmp_path / "run").mkdir()
        findings = check_baselines(tmp_path / "base", tmp_path / "run")
        assert exit_code(findings) == EXIT_BENCH_SET

    def test_empty_baseline_dir_raises(self, tmp_path):
        (tmp_path / "base").mkdir()
        with pytest.raises(FileNotFoundError):
            check_baselines(tmp_path / "base", tmp_path / "base")

    def test_load_suite_rejects_non_suite_json(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text('["not", "a", "suite"]')
        with pytest.raises(ValueError):
            load_suite(path)


class TestCommittedBaselines:
    """The committed benchmarks/baselines/ reference set stays coherent."""

    BASELINES = (
        pathlib.Path(__file__).resolve().parent.parent
        / "benchmarks"
        / "baselines"
    )

    def test_all_fourteen_suites_are_committed(self):
        names = sorted(
            p.stem[len("BENCH_"):]
            for p in self.BASELINES.glob("BENCH_*.json")
        )
        assert names == [
            "asp", "causality", "cqa_methods", "crepairs", "extensions",
            "further_developments", "incremental", "measures",
            "paper_examples", "replica", "scaling", "serve",
            "sql_rewriting", "store",
        ]

    def test_obs_diff_round_trips_every_baseline(self):
        for path in self.BASELINES.glob("BENCH_*.json"):
            suite = load_suite(path)
            assert suite["results"], f"{path.name}: empty suite"
            assert diff_suites(suite, suite) == [], path.name

    def test_deliberately_perturbed_counter_exits_nonzero(self, tmp_path):
        from repro.cli import main

        results = tmp_path / "results"
        shutil.copytree(self.BASELINES, results)
        victim = results / "BENCH_scaling.json"
        data = json.loads(victim.read_text())
        record = next(
            r for r in data["results"] if r["counters"]
        )
        key = sorted(record["counters"])[0]
        record["counters"][key] += 1
        victim.write_text(json.dumps(data))
        rc = main([
            "obs", "check",
            "--baseline", str(self.BASELINES),
            "--results", str(results),
            "--counters-only",
        ])
        assert rc == EXIT_COUNTERS


class TestObsCli:
    def test_obs_report_and_flamegraph_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        csv = tmp_path / "emp.csv"
        csv.write_text("Name,Salary\npage,5K\npage,8K\n")
        trace = tmp_path / "run.jsonl"
        assert main([
            "repairs", "--csv", f"Employee={csv}",
            "--fd", "Employee: Name -> Salary",
            "--trace", str(trace),
        ]) == 0
        capsys.readouterr()

        assert main(["obs", "report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "repairs.s_repairs" in out and "critical path" in out

        out_html = tmp_path / "flame.html"
        assert main([
            "obs", "flamegraph", str(trace), "-o", str(out_html),
        ]) == 0
        assert out_html.read_text().startswith("<!DOCTYPE html>")

    def test_obs_diff_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(
            _suite([_record("a", {"conflicts.edges": 1})])
        ))
        new.write_text(json.dumps(
            _suite([_record("a", {"conflicts.edges": 2})])
        ))
        assert main(["obs", "diff", str(old), str(new)]) == EXIT_COUNTERS
        assert "counter drift" in capsys.readouterr().out
        assert main(["obs", "diff", str(old), str(old)]) == EXIT_OK

    def test_obs_diff_missing_file_is_bad_input(self, tmp_path, capsys):
        from repro.cli import main

        present = tmp_path / "old.json"
        present.write_text(json.dumps(_suite([_record("a")])))
        rc = main([
            "obs", "diff", str(present), str(tmp_path / "missing.json"),
        ])
        assert rc == 2

    def test_obs_check_against_directories(self, tmp_path, capsys):
        from repro.cli import main

        base = tmp_path / "baselines"
        run = tmp_path / "results"
        for directory in (base, run):
            directory.mkdir()
            (directory / "BENCH_unit.json").write_text(json.dumps(
                _suite([_record("a", {"repairs.s_emitted": 2})])
            ))
        assert main([
            "obs", "check", "--baseline", str(base), "--results", str(run),
        ]) == EXIT_OK
        assert "OK" in capsys.readouterr().out


class TestTraceIO:
    def test_rewriting_a_trace_truncates_stale_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with collect() as c:
            for i in range(5):
                with span(f"first-{i}"):
                    pass
        assert c.write_trace(path) == 6  # 5 spans + metrics line
        with collect() as c2:
            with span("second"):
                pass
        assert c2.write_trace(path) == 2
        records = read_trace(path)
        names = [r.get("name") for r in records if "span_id" in r]
        assert names == ["second"]

    def test_read_trace_skips_corrupt_and_blank_lines(self, tmp_path, caplog):
        path = tmp_path / "t.jsonl"
        good = json.dumps({"span_id": 1, "name": "ok", "duration_s": 0.1})
        path.write_text(
            f"{good}\n\n{{truncated\n42\n{good}\n"
        )
        with caplog.at_level("WARNING", logger="repro.observability"):
            records = read_trace(path)
        assert len(records) == 2
        assert all(r["name"] == "ok" for r in records)
        assert sum(
            "skipping" in message for message in caplog.messages
        ) == 2


class TestHistogramPercentiles:
    def test_percentiles_in_snapshot(self):
        from repro.observability import MetricsRegistry

        registry = MetricsRegistry()
        for value in range(1, 101):
            registry.observe("latency", float(value))
        snap = registry.snapshot()
        assert snap["latency.p50"] == pytest.approx(50.5)
        assert snap["latency.p90"] == pytest.approx(90.1)
        assert snap["latency.p99"] == pytest.approx(99.01)

    def test_empty_histogram_percentile_is_none(self):
        from repro.observability.metrics import RollingHistogram

        assert RollingHistogram().percentile(50) is None

    def test_retention_bounds_memory_and_stays_deterministic(self):
        from repro.observability.metrics import (
            RETAINED_SAMPLES,
            RollingHistogram,
        )

        def fill():
            histogram = RollingHistogram()
            for value in range(RETAINED_SAMPLES + 5_000):
                histogram.observe(float(value))
            return histogram

        first, second = fill(), fill()
        # The one bucket of the infinite window keeps the head samples.
        assert first._samples == second._samples
        assert first._samples == [
            [float(v) for v in range(RETAINED_SAMPLES)]
        ]
        # Lifetime totals count every observation, retained or not.
        assert first.count == RETAINED_SAMPLES + 5_000
        assert first.max == float(RETAINED_SAMPLES + 4_999)

    def test_collector_percentiles_exact_up_to_retention(self):
        from repro.observability.metrics import (
            RETAINED_SAMPLES,
            MetricsRegistry,
        )

        registry = MetricsRegistry()
        for value in range(RETAINED_SAMPLES, 0, -1):
            registry.observe("latency", float(value))
        snap = registry.snapshot()
        assert snap["latency.p50"] == pytest.approx(
            (RETAINED_SAMPLES + 1) / 2
        )
        assert snap["latency.p99"] == pytest.approx(
            1 + 0.99 * (RETAINED_SAMPLES - 1)
        )

    def test_single_observation(self):
        from repro.observability.metrics import RollingHistogram

        histogram = RollingHistogram()
        histogram.observe(3.5)
        for p in (50, 90, 99):
            assert histogram.percentile(p) == 3.5
