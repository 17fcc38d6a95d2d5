"""Per-layer metrics of a traced run, from spans and client samples.

The traced server and each of its pool workers record spans (see
``spans.py`` and ``workerhook/sitecustomize.py``).  A worker's root
spans — a job's decode and engine run — carry the job's request id and
are hung under the server's ``WorkerPool.run_engine`` span of the same
request that encloses them in time (both processes read the same
monotonic clock), so every read has one span tree.

Per-read times are means over the timed phase's reads that the trace
matched to their span tree (by request id), so the layers of one
workload add up to its traced mean read latency:

* ``serve.http`` — client round trip minus ``CQAService.handle_cqa``;
* every other layer — the self time of its spans (a span minus the part
  its child spans cover), summed per read.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Tuple

from .stats import self_time

Row = Tuple[float, str, int]  # value, unit, samples

#: Span names (see ``spans.instrument`` and the worker hook) and the
#: read-path layer each one's self time is charged to.
READ_LAYERS = {
    "serve.service": "serve.service.self_ms",
    "serve.admission": "serve.admission.admit_ms",
    "dispatch.dispatcher": "dispatch.dispatcher.self_ms",
    "dispatch.shape": "dispatch.dispatcher.shape_ms",
    "dispatch.pool": "dispatch.pool.roundtrip_ms",
    "dispatch.pool.send": "dispatch.pool.roundtrip_ms",
    "dispatch.pool.worker": "dispatch.pool.roundtrip_ms",
    "dispatch.pool.decode": "dispatch.pool.decode_ms",
    "cqa.rewrite": "cqa.rewrite_ms",
    "relational.sqlbridge.materialize": "relational.sqlbridge.materialize_ms",
    "relational.sqlbridge.exec": "relational.sqlbridge.exec_ms",
    "asp": "asp.run_ms",
}

#: Per-read counts: span name, attribute summed, metric, unit.
READ_COUNTS = (
    ("dispatch.pool.send", "bytes", "dispatch.pool.job_bytes", "B"),
    ("relational.sqlbridge.materialize", "rows",
     "relational.sqlbridge.rows_materialized", "count"),
)


def _root(spans: List[list], index: int) -> int:
    while spans[index][3] is not None:
        index = spans[index][3]
    return index


def merge_worker_spans(
    server: List[list], workers: List[List[list]]
) -> List[list]:
    """One span list: the server's, then each worker's, with every
    worker root span that carries a request id hung under the server's
    ``dispatch.pool`` span of that request which encloses its start.
    Worker spans that match none (pings, lost jobs) stay roots."""
    spans = [list(span) for span in server]
    pools: Dict[object, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[0] == "dispatch.pool":
            root = spans[_root(spans, index)]
            pools[(root[4] or {}).get("rid")].append(index)
    for worker in workers:
        offset = len(spans)
        for span in worker:
            span = list(span)
            if span[3] is not None:
                span[3] += offset
            else:
                rid = (span[4] or {}).get("rid")
                span[3] = next(
                    (
                        p for p in pools.get(rid, ()) if rid is not None
                        and spans[p][1] <= span[1] <= spans[p][2]
                    ),
                    None,
                )
            spans.append(span)
    return spans


class Trace:
    """Spans indexed for self-time and subtree queries."""

    def __init__(self, spans: List[list]) -> None:
        self.spans = spans
        self.children: Dict[int, List[int]] = defaultdict(list)
        for index, span in enumerate(spans):
            if span[3] is not None:
                self.children[span[3]].append(index)

    def duration_ms(self, index: int) -> float:
        span = self.spans[index]
        return (span[2] - span[1]) * 1000.0

    def self_ms(self, index: int) -> float:
        span = self.spans[index]
        kids = [self.spans[c][1:3] for c in self.children[index]]
        return self_time(span[1], span[2], kids) * 1000.0

    def subtree(self, index: int):
        stack = [index]
        while stack:
            current = stack.pop()
            yield current
            stack.extend(self.children[current])

    def roots(self, name: str, key: str) -> Dict[object, int]:
        """Spans called *name* by their *key* attribute."""
        return {
            span[4][key]: index
            for index, span in enumerate(self.spans)
            if span[0] == name and span[4] and span[4].get(key) is not None
        }

    def in_window(self, name: str, start: float, end: float) -> List[int]:
        return [
            index for index, span in enumerate(self.spans)
            if span[0] == name and start <= span[1] <= end
        ]


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_metrics(
    document: Dict[str, object],
    read_rtt_ms: Dict[str, float],
    write_rtt_ms: Dict[int, float],
    all_read_ms: float,
    window: Tuple[float, float],
) -> Tuple[Dict[str, Row], List[str]]:
    """The traced per-layer metrics, and notes on what the trace matched.

    *document* holds the ``server`` spans and each worker's
    (``traced.py``); *read_rtt_ms* maps request ids of answered reads
    to their client round trip, *write_rtt_ms* LSNs of acked writes to
    theirs; *all_read_ms* is the round-trip total of every read
    attempted in the *window* (client ``perf_counter`` bounds of the
    timed phase).
    """
    trace = Trace(merge_worker_spans(document["server"], document["workers"]))
    rows: Dict[str, Row] = {}

    # -- reads: per-read layer times and counts ------------------------
    per_read: Dict[str, List[float]] = defaultdict(list)
    roots = trace.roots("serve.service", "rid")
    wrapped_ms = 0.0
    jobs = traced_jobs = skipped = 0
    for rid, rtt in read_rtt_ms.items():
        root = roots.get(rid)
        if root is None:
            continue
        wrapped_ms += trace.duration_ms(root)
        charged = defaultdict(float)
        charged["serve.http.self_ms"] = rtt - trace.duration_ms(root)
        for index in trace.subtree(root):
            name, _, _, _, attrs = trace.spans[index]
            charged[READ_LAYERS[name]] += trace.self_ms(index)
            for span_name, key, metric, _ in READ_COUNTS:
                if name == span_name:  # no attributes when it raised
                    charged[metric] += (attrs or {}).get(key, 0)
            if name == "dispatch.pool":
                jobs += 1
                traced_jobs += any(
                    trace.spans[c][0] == "dispatch.pool.worker"
                    for c in trace.children[index]
                )
            if name == "dispatch.dispatcher":
                # no attributes when dispatch raised
                skipped += (attrs or {}).get("skipped", 0)
        layers = set(READ_LAYERS.values()) | {"serve.http.self_ms"}
        for layer in layers | {metric for _, _, metric, _ in READ_COUNTS}:
            per_read[layer].append(charged[layer])
    reads = len(per_read["serve.http.self_ms"])
    if reads == 0:
        raise ValueError("the trace matched no read to its spans")
    units = {metric: unit for _, _, metric, unit in READ_COUNTS}
    for layer, values in per_read.items():
        rows[layer] = (_mean(values), units.get(layer, "ms"), reads)
    # A shape build is charged per build, not per read.
    builds = [
        trace.self_ms(i) for i in trace.in_window("dispatch.shape", *window)
    ]
    rows["dispatch.dispatcher.shape_ms"] = (_mean(builds), "ms", len(builds))
    rows["dispatch.dispatcher.shape_builds"] = (
        1000.0 * len(builds) / reads, "count", len(builds)
    )
    rows["dispatch.dispatcher.rungs_skipped"] = (
        skipped / reads, "count", reads
    )
    # Only time inside a wrapped call counts as attributed; the rest of
    # the round trip is serve.http's residual.
    rows["trace.coverage"] = (wrapped_ms / all_read_ms, "1", reads)
    notes = [
        f"trace matched {reads} of {len(read_rtt_ms)} answered reads; "
        f"{traced_jobs} of their {jobs} pool jobs traced in the worker"
    ]

    # -- writes and the store ------------------------------------------
    mutates = trace.roots("serve.service.mutate", "lsn")
    mutate_self = [
        trace.self_ms(mutates[lsn])
        for lsn in write_rtt_ms if lsn in mutates
    ]
    rows["serve.service.mutate_self_ms"] = (
        _mean(mutate_self), "ms", len(mutate_self)
    )
    appends = trace.in_window("serve.store.append", *window)
    compacting = [
        i for i in appends
        if any(
            trace.spans[c][0] == "serve.store.snapshot"
            for c in trace.subtree(i)
        )
    ]
    plain = sorted(set(appends) - set(compacting))
    rows["serve.store.append_ms"] = (
        _mean(trace.duration_ms(i) for i in plain), "ms", len(plain)
    )
    rows["serve.store.compact_ms"] = (
        _mean(trace.duration_ms(i) for i in compacting), "ms",
        len(compacting),
    )
    rows["serve.store.compactions"] = (
        float(len(compacting)), "count", len(compacting)
    )
    written = sum(
        (trace.spans[i][4] or {}).get("bytes", 0)  # none if it raised
        for name in ("serve.store.wal", "serve.store.snapshot")
        for i in trace.in_window(name, *window)
    )
    rows["serve.store.bytes_per_write"] = (
        written / max(1, len(write_rtt_ms)), "B", len(write_rtt_ms)
    )
    return rows, notes
