"""Ring-buffer rolling windows: counters and histograms over recent time.

The post-mortem registry (:mod:`repro.observability.metrics`) accumulates
forever — right for a bounded run, wrong for a long-lived server where
"requests per second *now*" and "p99 latency over the last minute" are
the signals that matter.  The instruments here slice time into a fixed
ring of buckets (default 60 buckets over a 60 s window): an update lands
in the bucket of the current instant, reads sum the buckets still inside
the window, and advancing time lazily zeroes the buckets that fell out.
Nothing is ever scanned or reallocated, so cost per update is O(1) and
memory is O(buckets + retained samples).

The clock is injectable, which makes every windowed value deterministic
in tests (advance a fake clock, watch samples expire) — the same
discipline as the circuit breaker and the budget deadline.

Instruments are *not* internally locked: the owning
:class:`~repro.observability.live.registry.LiveRegistry` serialises
access, mirroring how ``MetricsRegistry`` owns its instruments.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from ..metrics import percentile as _percentile

__all__ = ["RollingCounter", "RollingHistogram"]


class _Ring:
    """Shared bucket mechanics: a ring indexed by absolute bucket number."""

    __slots__ = ("window_s", "buckets", "_bucket_s", "_clock", "_head")

    def __init__(
        self,
        window_s: float,
        buckets: int,
        clock: Callable[[], float],
    ) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be > 0")
        if buckets < 1:
            raise ValueError("buckets must be >= 1")
        self.window_s = float(window_s)
        self.buckets = int(buckets)
        self._bucket_s = self.window_s / self.buckets
        self._clock = clock
        #: absolute index of the newest bucket written or advanced to
        self._head = int(clock() / self._bucket_s)

    def _advance(self) -> int:
        """Move the head to the current instant, clearing buckets that
        rotated out; returns the ring slot of the current bucket."""
        index = int(self._clock() / self._bucket_s)
        if index > self._head:
            # Clear every bucket between the old head and the new one
            # (capped: after a long sleep the whole ring is stale).
            for stale in range(
                self._head + 1, min(index, self._head + self.buckets) + 1
            ):
                self._clear_slot(stale % self.buckets)
            self._head = index
        return index % self.buckets

    def _clear_slot(self, slot: int) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class RollingCounter(_Ring):
    """Events per rolling window, plus the lifetime total."""

    __slots__ = ("_counts", "lifetime")

    def __init__(
        self,
        window_s: float = 60.0,
        buckets: int = 60,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(window_s, buckets, clock)
        self._counts = [0] * self.buckets
        self.lifetime = 0

    def _clear_slot(self, slot: int) -> None:
        self._counts[slot] = 0

    def add(self, n: int = 1) -> None:
        self._counts[self._advance()] += n
        self.lifetime += n

    def window_total(self) -> int:
        """Events inside the current window."""
        self._advance()
        return sum(self._counts)

    def rate_per_s(self) -> float:
        """Mean event rate over the window."""
        return self.window_total() / self.window_s

    def summary(self) -> Dict[str, object]:
        """JSON-ready view: lifetime total, window total, window rate."""
        window = self.window_total()
        return {
            "total": self.lifetime,
            "window": window,
            "window_s": self.window_s,
            "rate_per_s": window / self.window_s,
        }


class RollingHistogram(_Ring):
    """Value distribution per rolling window with p50/p90/p99.

    Each bucket retains up to ``PER_BUCKET`` raw samples (overflow keeps
    counting toward count/sum but is not retained), so the windowed
    percentiles are exact up to ``buckets * PER_BUCKET`` observations per
    window and a head-sample estimate beyond — deterministic either way,
    with no RNG involved.  Lifetime count/sum/min/max are kept exactly.
    """

    __slots__ = (
        "_samples",
        "_counts",
        "_sums",
        "count",
        "total",
        "min",
        "max",
    )

    #: Raw samples retained per bucket for percentile estimation.
    PER_BUCKET = 256

    def __init__(
        self,
        window_s: float = 60.0,
        buckets: int = 60,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(window_s, buckets, clock)
        self._samples: List[List[float]] = [[] for _ in range(self.buckets)]
        self._counts = [0] * self.buckets
        self._sums = [0.0] * self.buckets
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def _clear_slot(self, slot: int) -> None:
        self._samples[slot].clear()
        self._counts[slot] = 0
        self._sums[slot] = 0.0

    def observe(self, value: float) -> None:
        slot = self._advance()
        self._counts[slot] += 1
        self._sums[slot] += value
        retained = self._samples[slot]
        if len(retained) < self.PER_BUCKET:
            retained.append(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def window_count(self) -> int:
        self._advance()
        return sum(self._counts)

    def window_sum(self) -> float:
        self._advance()
        return sum(self._sums)

    def percentile(self, p: float) -> Optional[float]:
        """The p-th percentile (0..100) over the current window."""
        self._advance()
        merged: List[float] = []
        for retained in self._samples:
            merged.extend(retained)
        merged.sort()
        return _percentile(merged, p)

    def summary(self) -> Dict[str, object]:
        """JSON-ready view: lifetime totals plus windowed percentiles."""
        window_count = self.window_count()
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "window_s": self.window_s,
            "window_count": window_count,
            "window_sum": self.window_sum(),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }
