"""The host-speed reference that the benchmark's times are scaled by.

Each core of a shared host switches between a fast and a slow speed
within fractions of a second, and the share of slow time drifts over
minutes; every time the benchmark measures moves with it (README.md,
"Noise on this kind of host").  So the benchmark times a fixed loop of
the kinds of work the program does — interpreted Python, a pickle round
trip and an SQLite load and scan, all from the standard library — while
the server is idle: around each set-up and between the slices of the
timed phase.  A stretch of measured time is scaled by ``REFERENCE_MS``
over the loop's mean time around and within it, so a scaled time reads
as it would on a host on which the loop takes ``REFERENCE_MS``.
"""

from __future__ import annotations

import pickle
import sqlite3
import statistics
import time
from typing import Sequence

#: The loop's time, in ms, on the host that scaled times refer to: a
#: 2-core VM in its fast state, where unscaled and scaled times agree.
REFERENCE_MS = 4.0

#: Timings per measurement.  Their mean counts, not their minimum: the
#: program pays its share of the host's slow time, so the loop must too.
REPEATS = 4

_ROWS = [(f"a{i}", f"b{i % 700}") for i in range(1500)]


def _loop() -> int:
    total = 0
    table = {}
    for i in range(15000):
        total += i * i % 7
        table[i & 255] = total
    rows = pickle.loads(pickle.dumps(_ROWS))
    con = sqlite3.connect(":memory:")
    try:
        con.execute("CREATE TABLE t (a, b)")
        con.executemany("INSERT INTO t VALUES (?, ?)", rows)
        groups = con.execute(
            "SELECT b, count(*) FROM t GROUP BY b"
        ).fetchall()
    finally:
        con.close()
    return total + len(groups)


def loop_ms() -> float:
    """Mean CPU time of ``REPEATS`` runs of the loop, in ms.

    CPU time, not wall time: work the server or its workers still do
    between slices must not count as a slow host."""
    started = time.thread_time()
    for _ in range(REPEATS):
        _loop()
    return (time.thread_time() - started) * 1000.0 / REPEATS


def scale(loop_times: Sequence[float]) -> float:
    """Factor for the time measured among *loop_times*."""
    return REFERENCE_MS / statistics.fmean(loop_times)
