"""Trace and metrics export: JSONL traces, summary tables, file I/O.

The JSONL format is one JSON object per line, one line per span, with
``span_id`` / ``parent_id`` linking so a consumer can rebuild the trees
(``read_trace`` + ``build_trees`` round-trip them).  Counter deltas ride
on each span under ``"metrics"`` — this is the machine-readable record
behind the harness cost tables and the ``BENCH_*.json`` trajectory.

The program's file output goes through the two helpers here:
:func:`write_atomic` (traces, status files, flight envelopes, and the
tenant store's snapshots and fencing latch) and :func:`read_jsonl`
(traces and event logs).
"""

from __future__ import annotations

import io
import json
import logging
import os
from typing import Callable, Dict, Iterable, List, Optional, Sequence, TextIO

from .metrics import MetricsRegistry, add
from .spans import Span

logger = logging.getLogger("repro.observability")

__all__ = [
    "span_to_record",
    "write_trace",
    "read_trace",
    "read_jsonl",
    "write_atomic",
    "fsync_dir",
    "build_trees",
    "summary_table",
]


def fsync_dir(path) -> None:
    """fsync the directory containing *path* so a rename/create is
    durable, not merely ordered (best-effort on filesystems that
    refuse directory fds)."""
    directory = os.path.dirname(os.fspath(path)) or "."
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _tmp_path(final: str) -> str:
    # pid-unique: concurrent writers never clobber each other's file
    return f"{final}.{os.getpid()}.tmp"


def write_atomic(path, write: Callable[[TextIO], object], durable=False):
    """Write the text file at *path* in one step; returns what *write*
    returned.

    *write* fills a temp sibling that then replaces *path* with an
    atomic ``os.replace``, so a reader sees the old file or the new
    one, never a half-written one.  A write that fails removes its temp
    file and leaves *path* as it was.  *durable* fsyncs the file before
    the rename and its directory after it, for the files recovery
    reads.
    """
    final = os.fspath(path)
    tmp = _tmp_path(final)
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            result = write(handle)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, final)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    if durable:
        fsync_dir(final)
    return result


def span_to_record(
    span: Span, parent_id: Optional[int] = None
) -> Dict[str, object]:
    """The JSON-ready flat record of one span (children not included)."""
    return {
        "span_id": span.span_id,
        "parent_id": parent_id,
        "name": span.name,
        "start": span.start,
        "duration_s": span.duration,
        "attributes": dict(span.attributes),
        "metrics": dict(span.metrics),
    }


def _records(roots: Sequence[Span]) -> Iterable[Dict[str, object]]:
    def emit(span: Span, parent_id: Optional[int]):
        yield span_to_record(span, parent_id)
        for child in span.children:
            yield from emit(child, span.span_id)

    for root in roots:
        yield from emit(root, None)


def write_trace(
    destination,
    roots: Sequence[Span],
    metrics: Optional[MetricsRegistry] = None,
) -> int:
    """Write span trees as JSONL to a path or text file object.

    When *metrics* is given, a final ``{"kind": "metrics", ...}`` line
    carries the full registry snapshot.  Returns the number of lines
    written.

    Paths are written with :func:`write_atomic`, so rerunning ``--trace
    FILE`` always yields exactly one run's lines — a crash mid-write can
    never leave a shorter new trace interleaved with the stale tail of
    an older, longer one.  Temp files orphaned by a process that died
    between write and rename are swept on the next write to the same
    path.
    """

    def emit(handle) -> int:
        lines = 0
        for record in _records(roots):
            handle.write(json.dumps(record, default=repr) + "\n")
            lines += 1
        if metrics is not None:
            handle.write(
                json.dumps(
                    {"kind": "metrics", "snapshot": metrics.snapshot()},
                    default=repr,
                )
                + "\n"
            )
            lines += 1
        return lines

    if not (
        isinstance(destination, (str, bytes))
        or hasattr(destination, "__fspath__")
    ):
        return emit(destination)
    final = os.fspath(destination)
    _sweep_orphaned_tmp(final, keep=_tmp_path(final))
    return write_atomic(final, emit)


def _sweep_orphaned_tmp(final: str, keep: str) -> None:
    """Remove temp siblings of *final* left by dead writers.

    Matches both the legacy fixed name (``final.tmp``) and the
    pid-unique pattern (``final.<pid>.tmp``), skipping *keep* (our own
    in-flight name).  Best-effort: a racing live writer re-creates its
    file after our unlink at worst, and its rename still lands.
    """
    directory = os.path.dirname(final) or "."
    base = os.path.basename(final)
    try:
        entries = os.listdir(directory)
    except OSError:
        return
    for entry in entries:
        if not (entry.startswith(f"{base}.") and entry.endswith(".tmp")):
            continue
        candidate = os.path.join(directory, entry)
        if candidate == keep:
            continue
        middle = entry[len(base) + 1:-len(".tmp")]
        if middle and not middle.isdigit():  # not ours: e.g. foo.bar.tmp
            continue
        try:
            os.remove(candidate)
        except OSError:
            pass


def read_jsonl(
    source, skipped_counter: Optional[str] = None
) -> List[Dict[str, object]]:
    """Parse a JSONL file (path or file object) into its object records.

    Blank lines are skipped silently; lines that fail to parse (a
    truncated write, an editor artifact) or that are not JSON objects
    are skipped with a warning, so one bad line never discards the
    rest.  Each skip also bumps *skipped_counter*, when given, so silent
    decay is visible in exported metrics.
    """
    own = not isinstance(source, io.IOBase) and not hasattr(source, "read")
    handle = open(source, "r", encoding="utf-8") if own else source
    try:
        records = []
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                problem = "corrupt"
            else:
                if isinstance(record, dict):
                    records.append(record)
                    continue
                problem = "non-object"
            if skipped_counter is not None:
                add(skipped_counter)
            logger.warning(
                "skipping %s line %d: %.60r", problem, lineno, line
            )
        return records
    finally:
        if own:
            handle.close()


def read_trace(source) -> List[Dict[str, object]]:
    """Parse a JSONL trace (path or file object) back into records,
    skipping bad lines (see :func:`read_jsonl`)."""
    return read_jsonl(source)


def build_trees(records: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Rebuild span trees from flat records (adds ``"children"`` lists).

    Ignores non-span lines (e.g. the trailing metrics snapshot).  Returns
    the list of root records.
    """
    spans = [r for r in records if "span_id" in r]
    by_id = {r["span_id"]: dict(r, children=[]) for r in spans}
    roots: List[Dict[str, object]] = []
    for record in spans:
        node = by_id[record["span_id"]]
        parent = record.get("parent_id")
        if parent is None or parent not in by_id:
            roots.append(node)
        else:
            by_id[parent]["children"].append(node)
    return roots


def summary_table(
    roots: Sequence[Span],
    metrics: Optional[MetricsRegistry] = None,
    indent: str = "  ",
) -> str:
    """A human-readable rendering: span tree with timings, then counters."""
    lines: List[str] = []

    def render(span: Span, depth: int) -> None:
        took = (
            f"{span.duration * 1000:8.2f}ms"
            if span.duration is not None
            else "      open"
        )
        extras = []
        if span.attributes:
            extras.append(
                " ".join(f"{k}={v}" for k, v in sorted(span.attributes.items()))
            )
        if span.metrics:
            extras.append(
                " ".join(f"{k}={v}" for k, v in sorted(span.metrics.items()))
            )
        suffix = ("  [" + "; ".join(extras) + "]") if extras else ""
        lines.append(f"{took}  {indent * depth}{span.name}{suffix}")
        for child in span.children:
            render(child, depth + 1)

    for root in roots:
        render(root, 0)
    if metrics is not None:
        snapshot = metrics.snapshot()
        if snapshot:
            lines.append("counters:")
            width = max(len(k) for k in snapshot)
            for key in sorted(snapshot):
                lines.append(f"  {key.ljust(width)}  {snapshot[key]}")
    return "\n".join(lines)
