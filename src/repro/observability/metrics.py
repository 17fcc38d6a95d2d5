"""Thread-safe metrics: ring counters, ring histograms and gauges.

A :class:`MetricsRegistry` is a named bag of instruments over one time
ring whose window its owner picks:

* the collector's registry has an *infinite* window — one bucket that
  never expires, so an update reads no clock and every value is a
  lifetime total ("what happened during this run");
* the live plane's registry slices recent time into a ring of buckets
  (60 buckets over 60 s by default): an update lands in the bucket of
  the current instant, reads sum the buckets still inside the window,
  and advancing time lazily zeroes the buckets that fell out ("what is
  happening *now*").

Nothing is ever scanned or reallocated, so an update is O(1) and memory
is O(buckets + retained samples).  The clock is injectable, which makes
every windowed value deterministic in tests.

There is no module-level registry here: the *active* registry (if any)
lives in the collector installed via :func:`repro.observability.install`,
and the hot paths reach it through the free functions below.  When no
collector is installed every call is a global read plus an early
return, which is what keeps permanent instrumentation affordable (the
<5%-overhead guarantee is asserted by ``tests/test_observability.py``).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

__all__ = [
    "RETAINED_SAMPLES",
    "MetricsRegistry",
    "RollingCounter",
    "RollingHistogram",
    "add",
    "gauge",
    "observe",
    "active_registry",
    "percentile",
]

#: Raw samples one histogram keeps for its percentiles, spread evenly
#: over its buckets: 256 per bucket of the live plane's 60-bucket ring,
#: all of them in the collector's one bucket.  Past that a bucket keeps
#: its head samples (the first to arrive) and draws no random numbers.
RETAINED_SAMPLES = 15_360


def percentile(ordered: List[float], p: float) -> Optional[float]:
    """The p-th percentile (0..100) of ascending *ordered* values.

    Linear interpolation between closest ranks; ``None`` when empty.
    """
    if not ordered:
        return None
    rank = (len(ordered) - 1) * (p / 100.0)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def _check_window(window_s: Optional[float], buckets: int) -> None:
    if window_s is not None and window_s <= 0:
        raise ValueError("window_s must be > 0")
    if buckets < 1:
        raise ValueError("buckets must be >= 1")
    if window_s is None and buckets != 1:
        raise ValueError("an infinite window has one bucket")


class _Ring:
    """Bucket mechanics: a ring indexed by absolute bucket number.

    ``window_s=None`` is the infinite window: one bucket that never
    expires, whose advance reads no clock.
    """

    __slots__ = ("window_s", "buckets", "_bucket_s", "_clock", "_head")

    def __init__(
        self,
        window_s: Optional[float] = None,
        buckets: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        _check_window(window_s, buckets)
        self.window_s = None if window_s is None else float(window_s)
        self.buckets = int(buckets)
        self._bucket_s = (
            None if window_s is None else self.window_s / self.buckets
        )
        self._clock = clock
        #: absolute index of the newest bucket written or advanced to
        self._head = (
            0 if self._bucket_s is None else int(clock() / self._bucket_s)
        )

    def _advance(self) -> int:
        """Move the head to the current instant, clearing buckets that
        rotated out; returns the ring slot of the current bucket."""
        if self._bucket_s is None:
            return 0
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
    """Events per window, plus the lifetime total."""

    __slots__ = ("_counts", "lifetime")

    def __init__(
        self,
        window_s: Optional[float] = None,
        buckets: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(window_s, buckets, clock)
        self._counts = [0] * self.buckets
        self.lifetime = 0

    def _clear_slot(self, slot: int) -> None:
        self._counts[slot] = 0

    def add(self, n=1) -> None:
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
        """JSON-ready view: lifetime total, window total, window rate
        (None over the infinite window)."""
        window = self.window_total()
        return {
            "total": self.lifetime,
            "window": window,
            "window_s": self.window_s,
            "rate_per_s": (
                window / self.window_s if self.window_s is not None else None
            ),
        }


class RollingHistogram(_Ring):
    """Value distribution per window with p50/p90/p99.

    Each bucket retains up to ``RETAINED_SAMPLES // buckets`` raw
    samples (overflow keeps counting toward count/sum but is not
    retained), so the windowed percentiles are exact up to
    ``RETAINED_SAMPLES`` observations per window and a head-sample
    estimate beyond — deterministic either way.  Lifetime
    count/sum/min/max are kept exactly.
    """

    __slots__ = (
        "_per_bucket",
        "_samples",
        "_counts",
        "_sums",
        "count",
        "total",
        "min",
        "max",
    )

    def __init__(
        self,
        window_s: Optional[float] = None,
        buckets: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(window_s, buckets, clock)
        self._per_bucket = max(1, RETAINED_SAMPLES // self.buckets)
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
        if len(retained) < self._per_bucket:
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

    def _window_sorted(self) -> List[float]:
        self._advance()
        merged: List[float] = []
        for retained in self._samples:
            merged.extend(retained)
        merged.sort()
        return merged

    def percentile(self, p: float) -> Optional[float]:
        """The p-th percentile (0..100) over the current window."""
        return percentile(self._window_sorted(), p)

    def summary(self) -> Dict[str, object]:
        """JSON-ready view: lifetime totals plus windowed percentiles."""
        ordered = self._window_sorted()
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "window_s": self.window_s,
            "window_count": sum(self._counts),
            "window_sum": sum(self._sums),
            "p50": percentile(ordered, 50),
            "p90": percentile(ordered, 90),
            "p99": percentile(ordered, 99),
        }


#: The keys a histogram flattens to in :meth:`MetricsRegistry.snapshot`.
_FLAT_HISTOGRAM_KEYS = ("count", "sum", "min", "max", "p50", "p90", "p99")


class MetricsRegistry:
    """A resettable, thread-safe collection of named instruments.

    Every instrument shares the registry's window (``window_s``,
    ``buckets``, ``clock``); the default is the collector's infinite
    one.  Instrument creation and updates share one lock; an update is
    a dict lookup plus an O(1) ring update, so contention only matters
    under artificial hammering (which the thread-safety test does on
    purpose).
    """

    def __init__(
        self,
        *,
        window_s: Optional[float] = None,
        buckets: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        _check_window(window_s, buckets)
        self.window_s = None if window_s is None else float(window_s)
        self.buckets = int(buckets)
        self.clock = clock
        self._lock = threading.Lock()
        self._counters: Dict[str, RollingCounter] = {}
        self._histograms: Dict[str, RollingHistogram] = {}
        self._gauges: Dict[str, object] = {}
        self._started = clock()
        self._ops = 0  # instrumentation events seen (for overhead audits)

    # -- updates -------------------------------------------------------

    def add(self, name: str, n=1) -> None:
        """Increment counter *name* by *n* (creating it on first use)."""
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = RollingCounter(
                    self.window_s, self.buckets, self.clock
                )
            counter.add(n)
            self._ops += 1

    def gauge(self, name: str, value) -> None:
        """Set gauge *name* to *value* (last write wins)."""
        with self._lock:
            self._gauges[name] = value
            self._ops += 1

    def observe(self, name: str, value: float) -> None:
        """Record *value* into histogram *name*."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = RollingHistogram(
                    self.window_s, self.buckets, self.clock
                )
            histogram.observe(value)
            self._ops += 1

    # -- reads ---------------------------------------------------------

    @property
    def op_count(self) -> int:
        """Number of instrument updates recorded so far."""
        return self._ops

    def counter_total(self, name: str, default: int = 0) -> int:
        """Lifetime total of one counter."""
        with self._lock:
            counter = self._counters.get(name)
            return counter.lifetime if counter is not None else default

    def counter_values(self) -> Dict[str, int]:
        """Every counter's lifetime total as a plain dict (cheap copy)."""
        with self._lock:
            return {k: c.lifetime for k, c in self._counters.items()}

    def percentile(self, name: str, p: float) -> Optional[float]:
        """Windowed percentile of one histogram, or None."""
        with self._lock:
            histogram = self._histograms.get(name)
            return (
                histogram.percentile(p) if histogram is not None else None
            )

    def gauge_value(self, name: str, default=None):
        with self._lock:
            return self._gauges.get(name, default)

    def snapshot(self) -> Dict[str, object]:
        """One flat dict of everything: counters, gauges, histograms.

        Counters report their lifetime totals.  Histogram ``h``
        flattens to ``h.count`` / ``h.sum`` / ``h.min`` / ``h.max`` /
        ``h.p50`` / ``h.p90`` / ``h.p99`` keys so the result is
        JSON-ready.
        """
        with self._lock:
            flat: Dict[str, object] = {
                k: c.lifetime for k, c in self._counters.items()
            }
            flat.update(self._gauges)
            for k, h in self._histograms.items():
                summary = h.summary()
                for key in _FLAT_HISTOGRAM_KEYS:
                    flat[f"{k}.{key}"] = summary[key]
            return flat

    def window_snapshot(self) -> Dict[str, object]:
        """JSON-ready view of every instrument over the window.

        Shape (part of the status-document contract, see DESIGN.md):
        ``{"uptime_s", "window_s",
        "counters": {name: {total, window, window_s, rate_per_s}},
        "histograms": {name: {count, sum, min, max, window_s,
        window_count, window_sum, p50, p90, p99}},
        "gauges": {name: value}}``.
        """
        with self._lock:
            return {
                "uptime_s": self.clock() - self._started,
                "window_s": self.window_s,
                "counters": {
                    k: c.summary() for k, c in sorted(self._counters.items())
                },
                "histograms": {
                    k: h.summary()
                    for k, h in sorted(self._histograms.items())
                },
                "gauges": dict(sorted(self._gauges.items())),
            }

    def reset(self) -> None:
        """Drop every instrument (test isolation between experiments)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._ops = 0


# ----------------------------------------------------------------------
# Active-registry plumbing.  ``_ACTIVE`` is swapped by install/uninstall
# in :mod:`repro.observability`; the free functions are what the library
# hot paths call unconditionally.
# ----------------------------------------------------------------------

_ACTIVE: Optional[MetricsRegistry] = None


def _set_active(registry: Optional[MetricsRegistry]) -> None:
    global _ACTIVE
    _ACTIVE = registry


def active_registry() -> Optional[MetricsRegistry]:
    """The registry of the installed collector, or None."""
    return _ACTIVE


def add(name: str, n=1) -> None:
    """Increment a counter on the active registry (no-op when disabled)."""
    registry = _ACTIVE
    if registry is not None:
        registry.add(name, n)


def gauge(name: str, value) -> None:
    """Set a gauge on the active registry (no-op when disabled)."""
    registry = _ACTIVE
    if registry is not None:
        registry.gauge(name, value)


def observe(name: str, value: float) -> None:
    """Observe a histogram value on the active registry (no-op when disabled)."""
    registry = _ACTIVE
    if registry is not None:
        registry.observe(name, value)
