"""Set-up, timed phase and metrics of one benchmark run."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import client as clientlib
from . import hostspeed
from .layers import layer_metrics
from .server import GateError, Server
from .stats import percentile
from .workloads import warm_up_ops

Metrics = Dict[str, Tuple[float, str]]


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: Metrics
    #: ``(name, value, unit, samples)`` rows of the printed table.
    rows: List[Tuple[str, float, str, int]] = field(default_factory=list)
    outcomes: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)


@dataclass
class Phase:
    """What one timed phase left behind."""

    tally: clientlib.Tally
    elapsed_s: float
    #: Factor from the host-speed loop's times between the slices
    #: (``hostspeed.scale``); scaled times are measured ones times it.
    scale: float
    loop_ms: List[float]
    #: Median resident memory over the pauses between slices.
    rss_mb: float
    cpu_ms: Dict[str, float]
    counters: Dict[str, float]
    ops: int
    #: Client ``perf_counter`` bounds of the timed phase.
    window: Tuple[float, float]


# -- set-up ------------------------------------------------------------


def _warm_up(client: clientlib.Client, op, expected) -> None:
    """One read answered exactly (a degraded answer is retried; a wrong
    one fails the set-up)."""
    status, doc = 0, None
    for _ in range(20):
        status, doc = client.json("POST", "/v1/cqa", op.payload)
        if status == 200 and doc.get("complete") is True:
            answers = {tuple(row) for row in doc["answers"]}
            if answers != expected[op.answer_key]:
                raise GateError(f"warm-up read {op.answer_key} is wrong")
            return
        time.sleep(0.05)
    raise GateError(
        f"warm-up read {op.answer_key} never came back exact: "
        f"HTTP {status} {str(doc)[:300]}"
    )


def setup(root: str, workload, expected, spans_path=None):
    """Start a server and bring it to serving state; returns the server
    and the set-up time (spawn to: healthy, every database registered
    durably, one exact warm-up read per instance), scaled by the
    host-speed loop's times just before and just after."""
    server = Server(root, spans_path)
    client: Optional[clientlib.Client] = None
    before = hostspeed.loop_ms()
    started = time.perf_counter()
    try:
        server.start()
        client = clientlib.Client(server.port)
        server.wait_healthy(client)
        for instance in workload.instances:
            status, doc = client.json(
                "PUT", f"/v1/db/{instance.name}", instance.spec
            )
            if (
                status != 200
                or not isinstance(doc.get("lsn"), int)
                or doc.get("facts") != instance.facts
            ):
                raise GateError(
                    f"registering {instance.name}: HTTP {status} {doc}"
                )
        for op in warm_up_ops(workload):
            _warm_up(client, op, expected)
        setup_s = time.perf_counter() - started
        return server, setup_s * hostspeed.scale(
            (before, hostspeed.loop_ms())
        )
    except BaseException:
        server.kill()
        raise
    finally:
        if client is not None:
            client.close()


# -- the timed phase ---------------------------------------------------


def _counters(port: int) -> Dict[str, float]:
    """Lifetime totals of the live plane's counters (``/status``)."""
    client = clientlib.Client(port)
    try:
        status, doc = client.json("GET", "/status")
    finally:
        client.close()
    if status != 200:
        raise GateError(f"/status answered {status}")
    return {
        name: entry.get("total", 0)
        for name, entry in (doc.get("counters") or {}).items()
    }


def timed_phase(server: Server, workload, expected) -> Phase:
    """Drive the operation sequence slice by slice, timing the
    host-speed loop while the connections are idle between slices."""
    before = _counters(server.port)
    cpu_before = server.cpu_ms()
    #: ``(arrived, loop_ms, left)`` of every pause between slices.
    marks: List[Tuple[float, float, float]] = []
    rss: List[float] = []

    def pause() -> None:
        arrived = time.perf_counter()
        rss.append(server.rss_mb())
        marks.append((arrived, hostspeed.loop_ms(), time.perf_counter()))

    samples = clientlib.drive(
        server.port, workload.ops, workload.slices, workload.connections,
        pause,
    )
    cpu_after = server.cpu_ms()
    after = _counters(server.port)
    # the slices' time, without the pauses between them
    elapsed_s = sum(
        arrived - left
        for (_, _, left), (arrived, _, _) in zip(marks, marks[1:])
    )
    loops = [mark[1] for mark in marks]
    initial = {inst.name: inst.facts for inst in workload.instances}
    tally = clientlib.tally(samples, workload.ops, expected, initial)
    return Phase(
        tally=tally,
        elapsed_s=elapsed_s,
        scale=hostspeed.scale(loops),
        loop_ms=loops,
        rss_mb=statistics.median(rss),
        cpu_ms={k: cpu_after[k] - cpu_before[k] for k in cpu_after},
        counters={
            name: after[name] - before.get(name, 0) for name in after
        },
        ops=len(workload.ops),
        window=(marks[0][2], marks[-1][0]),
    )


def run_phase(root, workload, expected, spans_path=None):
    """Set up, run the timed phase, tear down (with the gate).

    Returns ``(phase, setup_s, gate_problem)``.
    """
    server, setup_s = setup(root, workload, expected, spans_path)
    try:
        phase = timed_phase(server, workload, expected)
    except BaseException:
        server.kill()
        raise
    try:
        server.stop()
    except GateError as exc:
        return phase, setup_s, str(exc)
    return phase, setup_s, None


# -- metrics -----------------------------------------------------------


def _result(phases: List[Phase], gate_problems) -> RunResult:
    outcomes: Dict[str, int] = {}
    problems = list(gate_problems)
    for phase in phases:
        for name, count in phase.tally.outcomes.items():
            outcomes[name] = outcomes.get(name, 0) + count
        problems += phase.tally.problems + phase.tally.write_problems
    return RunResult(
        correct=all(p.tally.correct for p in phases) and not gate_problems,
        attempted=sum(p.tally.attempted for p in phases),
        failed=sum(p.tally.failed for p in phases),
        metrics={},
        outcomes=outcomes,
        problems=problems,
    )


def _add(result: RunResult, name, value, unit, samples, gated=True):
    """A metric for the printed table; *gated* ones also go into the
    JSON result that ``BENCHMARK.json`` bounds."""
    if gated:
        result.metrics[name] = (value, unit)
    result.rows.append((name, value, unit, samples))


def _add_percentiles(result, prefix, values, scale, gated=True):
    for q in (0.5, 0.9):
        value, n = percentile(values, q)
        _add(result, f"{prefix}_p{round(q * 100)}_ms", value * scale, "ms",
             n, gated)


def timed_run(root, workload, expected, setups: int) -> RunResult:
    """The end-to-end metrics: *setups* set-ups (``setup_s`` is their
    median), the last of which serves the timed phase."""
    setup_times = []
    gates = []
    for _ in range(setups - 1):
        server, setup_s = setup(root, workload, expected)
        setup_times.append(setup_s)
        try:
            server.stop()
        except GateError as exc:
            gates.append(str(exc))
    phase, setup_s, gate = run_phase(root, workload, expected)
    setup_times.append(setup_s)
    result = _result([phase], gates + ([gate] if gate else []))
    tally = phase.tally
    _add(result, "setup_s", statistics.median(setup_times), "s",
         len(setup_times))
    _add_percentiles(result, "read", tally.read_ms, phase.scale)
    useful = tally.count(clientlib.EXACT) + tally.count(clientlib.ACKED)
    _add(result, "ops_per_s", useful / (phase.elapsed_s * phase.scale),
         "1/s", useful)
    _add(result, "rss_mb", phase.rss_mb, "MB", len(phase.loop_ms))
    # Printed, not gated: every workload reports every gated metric, and
    # only large-rw writes (see README.md).
    if workload.writes:
        _add_percentiles(result, "write", tally.write_ms, phase.scale,
                         gated=False)
    reads = tally.read_ms
    _add(result, "degraded_share",
         tally.count(clientlib.DEGRADED) / len(reads), "1", len(reads),
         gated=False)
    result.notes.append(
        f"timed phase {phase.elapsed_s:.2f} s; set-ups "
        + " ".join(f"{t:.3f}" for t in setup_times) + " s scaled"
    )
    result.notes.append(_host_note(phase))
    return result


def _host_note(phase: Phase) -> str:
    """The host-speed loop's times over a phase, and the scale."""
    loops = phase.loop_ms
    return (
        f"host-speed loop {statistics.fmean(loops):.2f} ms mean "
        f"({min(loops):.2f}-{max(loops):.2f}, reference "
        f"{hostspeed.REFERENCE_MS} ms): times scaled by {phase.scale:.3f}"
    )


def traced_run(root, workload, expected) -> RunResult:
    """The per-layer metrics: an untraced timed phase (``/proc``
    figures, degraded share, pool spawns, untraced latency), then a
    traced one of the same operation sequence under ``traced.py``."""
    untraced, _, gate = run_phase(root, workload, expected)
    gates = [gate] if gate else []
    spans_path = os.path.join(
        root, ".servebench", f"spans-{os.getpid()}.json"
    )
    try:
        traced, _, gate = run_phase(root, workload, expected, spans_path)
        with open(spans_path, encoding="utf-8") as handle:
            document = json.load(handle)
    finally:
        if os.path.exists(spans_path):
            os.remove(spans_path)
        # left behind only if the launcher was killed
        shutil.rmtree(f"{spans_path}.workers", ignore_errors=True)
    gates += [gate] if gate else []
    result = _result([untraced, traced], gates)
    rows, notes = layer_metrics(
        document,
        traced.tally.request_ids,
        traced.tally.write_lsns,
        traced.tally.read_total_ms,
        traced.window,
    )
    for name, (value, unit, samples) in rows.items():
        _add(result, name, value, unit, samples)
    ops = untraced.ops
    reads = workload.reads
    for part in ("server", "workers"):
        _add(result, f"proc.{part}_cpu_ms_per_op",
             untraced.cpu_ms[part] / ops, "ms", ops)
    _add(result, "degraded_share",
         untraced.tally.count(clientlib.DEGRADED) / reads, "1", reads)
    spawns = untraced.counters.get("pool.spawns", 0)
    _add(result, "dispatch.pool.spawns", 1000.0 * spawns / reads, "count",
         int(spawns))
    traced_p50, n = percentile(traced.tally.read_ms, 0.5)
    untraced_p50, _ = percentile(untraced.tally.read_ms, 0.5)
    _add(result, "trace.overhead",
         traced_p50 * traced.scale / (untraced_p50 * untraced.scale), "1", n)
    result.rows.sort()
    result.notes.append(
        f"untraced phase {untraced.elapsed_s:.2f} s, traced phase "
        f"{traced.elapsed_s:.2f} s; {len(document['server'])} server "
        f"spans, {len(document['workers'])} traced workers"
    )
    result.notes += [_host_note(untraced), _host_note(traced)] + notes
    return result


def print_report(result: RunResult) -> None:
    outcomes = ", ".join(
        f"{name} {count}" for name, count in sorted(result.outcomes.items())
    )
    print(f"operations: {result.attempted} attempted, {result.failed} "
          f"failed ({outcomes})")
    for note in result.notes:
        print(note)
    for name, value, unit, samples in result.rows:
        gated = "" if name in result.metrics else "  (not gated)"
        print(f"  {name:<44} {value:>14.4f} {unit:<6} n={samples}{gated}")
    for problem in result.problems:
        print(f"problem: {problem}", file=sys.stderr)
