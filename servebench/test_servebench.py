"""Tests of the benchmark's own code (no server needed).

    PYTHONPATH=src python -m pytest servebench -q
"""

from __future__ import annotations

import http.server
import json
import os
import pickle
import random
import subprocess
import sys
import threading

import pytest

from servebench import client, hostspeed, layers, server, stats, workloads

# -- the percentile rule ---------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 0.9) == (90.0, 100)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(values[:99], 0.9)  # rank 90: 9 beyond
    assert stats.percentile(values[:20], 0.5) == (10.0, 20)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(values[:19], 0.5)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([], 0.5)


def test_unanswered_reads_rank_slower_than_every_answered_one():
    inf = float("inf")
    values = [5.0] * 80 + [inf] * 20  # 20% not answered exactly
    assert stats.percentile(values, 0.5) == (5.0, 100)
    with pytest.raises(ValueError, match="not answered exactly"):
        stats.percentile(values, 0.9)


# -- the operation classifier ----------------------------------------


def _read(index, status, doc, error=""):
    body = json.dumps(doc).encode() if doc is not None else b""
    return client.Sample(index, 0, 0.0, 0.004, status, body, error)


EXPECTED = frozenset({("a", 1), ("b", 2)})


def test_classify_read_outcomes():
    exact = {"answers": [["b", 2], ["a", 1]], "complete": True}
    subset = {"answers": [["a", 1]], "complete": False}
    shed = {"error": "shed", "reason": "queue-full", "retry_after_s": 1}
    assert client.classify_read(_read(0, 200, exact), EXPECTED)[0] == "exact"
    assert client.classify_read(_read(0, 200, subset), EXPECTED)[0] == (
        "degraded"
    )
    assert client.classify_read(_read(0, 429, shed), EXPECTED)[0] == "shed"
    assert client.classify_read(_read(0, 500, {"error": "x"}), EXPECTED)[
        0
    ] == "error"
    assert client.classify_read(_read(0, 0, None, "reset"), EXPECTED)[
        0
    ] == "transport"


def _ops(n):
    return [
        workloads.Op("read", "d", {"db": "d", "query": "Q"})
        for _ in range(n)
    ]


def test_wrong_complete_answer_fails_the_run():
    doc = {"answers": [["a", 1]], "complete": True, "request_id": "r1"}
    tally = client.tally(
        [_read(0, 200, doc)], _ops(1), {("d", "Q"): EXPECTED}, {}
    )
    assert tally.count("wrong") == 1 and not tally.correct
    assert tally.failed == 1 and tally.read_ms == [float("inf")]


def test_unsound_degraded_answer_fails_the_run():
    doc = {"answers": [["a", 1], ["z", 9]], "complete": False}
    tally = client.tally(
        [_read(0, 200, doc)], _ops(1), {("d", "Q"): EXPECTED}, {}
    )
    assert tally.count("wrong") == 1 and not tally.correct


def test_sound_degraded_answer_is_not_a_failure():
    doc = {"answers": [["a", 1]], "complete": False, "request_id": "r2"}
    tally = client.tally(
        [_read(0, 200, doc)], _ops(1), {("d", "Q"): EXPECTED}, {}
    )
    assert tally.correct and tally.failed == 0
    assert tally.count("degraded") == 1 and tally.read_ms == [float("inf")]


def _write(index, connection, started, lsn, facts, db="d"):
    doc = {"db": db, "lsn": lsn, "inserted": 1, "facts": facts}
    return client.Sample(
        index, connection, started, started + 0.001, 200,
        json.dumps(doc).encode(),
    )


def _write_ops(n):
    return [workloads.Op("write", "d", {"insert": []}) for _ in range(n)]


def test_acked_writes_pass_the_write_checks():
    samples = [
        _write(0, 0, 1.0, 5, 11), _write(1, 1, 1.1, 6, 12),
        _write(2, 0, 1.2, 7, 13),
    ]
    tally = client.tally(samples, _write_ops(3), {}, {"d": 10})
    assert tally.correct and tally.count("acked") == 3
    assert tally.write_lsns == {5: pytest.approx(1.0), 6: pytest.approx(1.0),
                                7: pytest.approx(1.0)}


@pytest.mark.parametrize("samples, problem", [
    ([(0, 1.0, 5, 11), (0, 1.2, 5, 12)], "acked twice"),
    ([(0, 1.0, 6, 11), (0, 1.2, 5, 12)], "same connection"),
    ([(0, 1.0, 5, 11), (1, 1.2, 6, 99)], "expected 12"),
])
def test_write_checks_catch_bad_acks(samples, problem):
    samples = [
        _write(i, conn, started, lsn, facts)
        for i, (conn, started, lsn, facts) in enumerate(samples)
    ]
    tally = client.tally(samples, _write_ops(len(samples)), {}, {"d": 10})
    assert not tally.correct
    assert any(problem in p for p in tally.write_problems)


# -- span self time ----------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    assert stats.self_time(0.0, 10.0, []) == 10.0
    assert stats.self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0
    # overlapping children count once; parts outside the parent not at all
    assert stats.self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0)]) == 6.0
    assert stats.self_time(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0)]) == 8.0
    assert stats.self_time(0.0, 10.0, [(11.0, 12.0)]) == 10.0


def _span(name, start, end, parent=None, attrs=None):
    return [name, start, end, parent, attrs]


def test_layer_metrics_split_a_read_by_self_time():
    server_spans = [
        _span("serve.service", 1.000, 1.010, None, {"rid": "r1"}),
        _span("serve.admission", 1.001, 1.002, 0),
        _span("dispatch.dispatcher", 1.002, 1.009, 0, {"skipped": 2}),
        _span("cqa.rewrite", 1.0025, 1.003, 2),
        _span("dispatch.pool", 1.003, 1.008, 2),
        _span("dispatch.pool.send", 1.0031, 1.0032, 4, {"bytes": 500}),
        _span("serve.service.mutate", 1.02, 1.03, None, {"lsn": 4}),
        _span("serve.store.append", 1.021, 1.029, 6),
        _span("serve.store.wal", 1.022, 1.023, 7, {"bytes": 100}),
    ]
    worker_spans = [
        _span("dispatch.pool.decode", 1.0035, 1.004, None, {"rid": "r1"}),
        _span("dispatch.pool.worker", 1.004, 1.0075, None, {"rid": "r1"}),
        _span("cqa.rewrite", 1.004, 1.0045, 1),
        _span("relational.sqlbridge.exec", 1.0045, 1.0075, 1),
        _span("relational.sqlbridge.materialize", 1.0045, 1.0055, 3,
              {"rows": 40}),
        # a ping, and a job of a request the server did not trace
        _span("dispatch.pool.decode", 1.0090, 1.0091),
        _span("dispatch.pool.worker", 1.0092, 1.0099, None, {"rid": "r2"}),
    ]
    rows, notes = layers.layer_metrics(
        {"server": server_spans, "workers": [worker_spans]},
        read_rtt_ms={"r1": 12.0, "unmatched": 4.0},
        write_rtt_ms={4: 11.0},
        all_read_ms=16.0,
        window=(0.0, 2.0),
    )
    value = {name: row[0] for name, row in rows.items()}
    assert value["serve.http.self_ms"] == pytest.approx(2.0)
    assert value["serve.service.self_ms"] == pytest.approx(2.0)
    assert value["serve.admission.admit_ms"] == pytest.approx(1.0)
    assert value["dispatch.dispatcher.self_ms"] == pytest.approx(1.5)
    # pool span 5 ms = 0.9 ms own + 0.1 ms frame send + 4 ms in the
    # worker, of which decode, rewrite and SQL cover all but 0
    assert value["dispatch.pool.roundtrip_ms"] == pytest.approx(1.0)
    assert value["dispatch.pool.decode_ms"] == pytest.approx(0.5)
    assert value["cqa.rewrite_ms"] == pytest.approx(1.0)
    assert value["relational.sqlbridge.materialize_ms"] == pytest.approx(1.0)
    assert value["relational.sqlbridge.exec_ms"] == pytest.approx(2.0)
    assert value["asp.run_ms"] == 0
    read_layers = set(layers.READ_LAYERS.values()) - {
        "dispatch.dispatcher.shape_ms"
    }
    assert sum(value[name] for name in read_layers) + value[
        "serve.http.self_ms"
    ] == pytest.approx(12.0)
    assert value["dispatch.pool.job_bytes"] == 500
    assert value["relational.sqlbridge.rows_materialized"] == 40
    assert value["dispatch.dispatcher.rungs_skipped"] == 2
    # only time inside handle_cqa counts; the unmatched read counts not
    assert value["trace.coverage"] == pytest.approx(10.0 / 16.0)
    assert value["dispatch.dispatcher.shape_ms"] == 0
    assert rows["dispatch.dispatcher.shape_ms"][2] == 0
    assert value["serve.service.mutate_self_ms"] == pytest.approx(2.0)
    assert value["serve.store.bytes_per_write"] == 100
    assert value["serve.store.compactions"] == 0
    assert "1 of their 1 pool jobs traced in the worker" in notes[0]


def test_worker_spans_hang_under_the_enclosing_pool_span():
    server_spans = [
        _span("serve.service", 1.0, 2.0, None, {"rid": "r1"}),
        _span("dispatch.pool", 1.1, 1.2, 0),
        _span("dispatch.pool", 1.5, 1.6, 0),
    ]
    worker_spans = [
        _span("dispatch.pool.worker", 1.55, 1.58, None, {"rid": "r1"}),
        _span("cqa.rewrite", 1.55, 1.56, 0),
        _span("dispatch.pool.worker", 1.3, 1.4, None, {"rid": "r1"}),
        _span("dispatch.pool.decode", 1.12, 1.13),
    ]
    merged = layers.merge_worker_spans(server_spans, [worker_spans])
    assert [span[3] for span in merged[3:]] == [2, 3, None, None]


def test_worker_hook_records_a_jobs_stages(tmp_path):
    from repro.dispatch import CQARequest
    from repro.dispatch.worker import build_job
    from repro.observability.live import request_scope
    from servebench.traced import read_worker_spans

    spec = workloads.join_spec(random.Random(1), 12, 3)
    request = CQARequest(
        *workloads._parsed(spec, workloads.PROJECTION_QUERY)
    )
    with request_scope("r-hook"):
        job = build_job("fm-sql", request)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["SERVEBENCH_WORKER_SPANS"] = str(tmp_path)
    env["PYTHONPATH"] = os.pathsep.join([
        os.path.join(root, "servebench", "workerhook"),
        os.path.join(root, "src"),
    ])
    done = subprocess.run(
        [sys.executable, "-m", "repro.dispatch.worker"],
        input=pickle.dumps(job), capture_output=True, env=env, cwd=root,
        timeout=60, check=True,
    )
    assert pickle.loads(done.stdout)["ok"]
    (path,) = tmp_path.iterdir()
    spans = read_worker_spans(str(path))
    names = [span[0] for span in spans]
    assert names == [
        "dispatch.pool.decode", "dispatch.pool.worker", "cqa.rewrite",
        "cqa.rewrite", "relational.sqlbridge.exec",
        "relational.sqlbridge.materialize",
    ]
    decode, run, rewrite, sqlgen, execute, materialize = spans
    assert decode[4] == {"rid": "r-hook"}
    assert run[3] is None and run[4] == {"rid": "r-hook"}
    assert [rewrite[3], sqlgen[3], execute[3]] == [1, 1, 1]
    assert materialize[3] == 4
    assert materialize[4] == {"rows": sum(
        len(rel["rows"]) for rel in spec["relations"].values()
    )}


# -- /proc CPU accounting ----------------------------------------------

_BURN = "import time\nend = time.process_time() + {s}\n" \
        "while time.process_time() < end: pass\n{tail}"


def test_cpu_accounting_counts_live_and_reaped_children():
    me = os.getpid()
    before = server.cpu_ms(me)["workers"]
    reaped = subprocess.Popen(
        [sys.executable, "-c", _BURN.format(s=0.3, tail="")]
    )
    reaped.wait(timeout=30)  # waited for: lands in our cutime
    after_reaped = server.cpu_ms(me)["workers"]
    assert after_reaped - before >= 250
    live = subprocess.Popen(
        [sys.executable, "-c",
         _BURN.format(s=0.3, tail="print('done', flush=True)\n"
                                   "time.sleep(30)\n")],
        stdout=subprocess.PIPE,
    )
    try:
        assert live.stdout.readline().strip() == b"done"
        assert live.pid in server.children(me)
        with_live = server.cpu_ms(me)["workers"]
        assert with_live - after_reaped >= 250
    finally:
        live.kill()
        live.wait(timeout=30)
        live.stdout.close()


def test_rss_covers_the_process_tree():
    me = os.getpid()
    assert server.tree_rss_mb(me) > 1.0


# -- workloads ---------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workloads_are_seeded(name):
    first = workloads.build(name, 3, 2)
    assert first == workloads.build(name, 3, 2)
    assert first.ops != workloads.build(name, 4, 2).ops
    assert first.slices[0][0] == 0 and first.slices[-1][1] == len(first.ops)
    main = workloads.OPS_PER_SECOND[name] * 2
    if name == "large-rw":
        assert first.reads + first.writes == main + workloads.CLOSING_WRITES
        assert all(op.kind == "write" for op in first.ops[main:])
    else:
        assert (first.reads, first.writes) == (main, 0)


def test_read_only_workloads_read_every_instance_equally_often():
    for name in ("small-tenants", "selfjoin-asp"):
        workload = workloads.build(name, 5, 3)
        counts = {inst.name: 0 for inst in workload.instances}
        for op in workload.ops:
            counts[op.db] += 1
        assert max(counts.values()) - min(counts.values()) <= 1


def test_exact_answer_oracles_agree():
    for seed in range(5):
        workloads.cross_check(seed)
    spec = workloads.instances_for("small-tenants", 1)[0].spec
    query = workloads.JOIN_QUERY
    assert workloads.key_group_answers(spec, query) == (
        workloads.rewritten_answers(spec, query)
    )


def test_slices_cut_every_phase_without_crossing_it():
    workload = workloads.build("large-rw", 1, 5)
    main = workloads.OPS_PER_SECOND["large-rw"] * 5
    size = workloads.SLICE_SECONDS * workloads.OPS_PER_SECOND["large-rw"]
    slices = workload.slices
    assert all(a[1] == b[0] for a, b in zip(slices, slices[1:]))
    assert all(0 < stop - start <= size for start, stop in slices)
    assert (0, main) != slices[0] and main in {start for start, _ in slices}


def test_large_rw_slows_the_same_share_of_reads_for_every_seed():
    """A quarter of the main phase's reads come right after a write."""
    for seed in range(4):
        workload = workloads.build("large-rw", seed, 30)
        main = workload.ops[:workloads.OPS_PER_SECOND["large-rw"] * 30]
        reads = [i for i, op in enumerate(main) if op.kind == "read"]
        after_write = [i for i in reads if main[i - 1].kind == "write"]
        assert 2 * len(reads) == 4 * (len(main) - len(reads))
        assert 4 * len(after_write) == len(reads)


# -- host speed --------------------------------------------------------


def test_host_scale_is_reference_over_the_mean_loop_time():
    ref = hostspeed.REFERENCE_MS
    assert hostspeed.scale([ref, ref]) == 1.0
    assert hostspeed.scale([ref, 3 * ref]) == pytest.approx(0.5)
    assert hostspeed.loop_ms() > 0


class _Echo(http.server.BaseHTTPRequestHandler):
    """Answers every POST with an empty JSON object, counting requests
    in flight and served."""

    protocol_version = "HTTP/1.1"
    in_flight = served = 0
    lock = threading.Lock()

    def do_POST(self):
        with _Echo.lock:
            _Echo.in_flight += 1
        self.rfile.read(int(self.headers["Content-Length"]))
        with _Echo.lock:  # before the client can see the response
            _Echo.in_flight -= 1
            _Echo.served += 1
        self.send_response(200)
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"{}")

    def log_message(self, *args):
        pass


def test_drive_pauses_only_while_every_connection_is_idle():
    httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Echo)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    seen = []
    try:
        ops = [workloads.Op("read", "db", {"query": "q"})] * 30
        phases = ((0, 7), (7, 20), (20, 30))
        samples = client.drive(
            httpd.server_address[1], ops, phases, 2,
            lambda: seen.append((_Echo.in_flight, _Echo.served)),
        )
    finally:
        httpd.shutdown()
        httpd.server_close()
    # once before the first phase and once after each, all ops of the
    # phases before it served and none in flight
    assert seen == [(0, 0), (0, 7), (0, 20), (0, 30)]
    assert all(sample.status == 200 for sample in samples)
