"""Thread-safe counters, gauges, and timing histograms.

A :class:`MetricsRegistry` is a named bag of instruments.  There is no
module-level registry here: the *active* registry (if any) lives in the
collector installed via :func:`repro.observability.install`, and the hot
paths reach it through the free functions below.  When no collector is
installed every call is a global read plus an early return, which is what
keeps permanent instrumentation affordable (the <5%-overhead guarantee is
asserted by ``tests/test_observability.py``).
"""

from __future__ import annotations

import random
import threading
from typing import Dict, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "add",
    "gauge",
    "observe",
    "active_registry",
    "percentile",
]


def percentile(ordered: List[float], p: float) -> Optional[float]:
    """The p-th percentile (0..100) of ascending *ordered* values.

    Linear interpolation between closest ranks; ``None`` when empty.
    Shared by this module's histograms and the live plane's rolling
    ones, so both planes report the same figure for the same samples.
    """
    if not ordered:
        return None
    rank = (len(ordered) - 1) * (p / 100.0)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


class Counter:
    """A monotonically increasing integer-ish counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, n=1) -> None:
        self.value += n


class Gauge:
    """A last-value-wins instrument."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = None

    def set(self, value) -> None:
        self.value = value


class Histogram:
    """A streaming summary of observed values (typically durations).

    Keeps count / sum / min / max plus a bounded reservoir of samples
    (Algorithm R with a per-histogram fixed-seed RNG, so the kept set is
    deterministic for a given observation sequence), which is enough to
    report totals, averages, and percentile estimates without unbounded
    memory.
    """

    __slots__ = ("count", "total", "min", "max", "_reservoir", "_rng")

    #: Samples retained for percentile estimation.  Below this many
    #: observations the percentiles are exact.
    RESERVOIR_SIZE = 1024

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._reservoir: List[float] = []
        self._rng = random.Random(0x5EED)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._reservoir) < self.RESERVOIR_SIZE:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.RESERVOIR_SIZE:
                self._reservoir[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> Optional[float]:
        """The p-th percentile (0..100) of the retained samples.

        ``None`` when the histogram is empty.  Exact up to
        ``RESERVOIR_SIZE`` observations, a uniform-sample estimate
        beyond that.
        """
        return percentile(sorted(self._reservoir), p)


class MetricsRegistry:
    """A resettable, thread-safe collection of named instruments.

    Instrument creation and updates share one lock; counter updates are a
    dict lookup plus an integer add, so contention only matters under
    artificial hammering (which the thread-safety test does on purpose).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._ops = 0  # instrumentation events seen (for overhead audits)

    # -- updates -------------------------------------------------------

    def add(self, name: str, n=1) -> None:
        """Increment counter *name* by *n* (creating it on first use)."""
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter()
            counter.add(n)
            self._ops += 1

    def gauge(self, name: str, value) -> None:
        """Set gauge *name* to *value*."""
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                g = self._gauges[name] = Gauge()
            g.set(value)
            self._ops += 1

    def observe(self, name: str, value: float) -> None:
        """Record *value* into histogram *name*."""
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = self._histograms[name] = Histogram()
            h.observe(value)
            self._ops += 1

    # -- reads ---------------------------------------------------------

    @property
    def op_count(self) -> int:
        """Number of instrument updates recorded so far."""
        return self._ops

    def counter_values(self) -> Dict[str, int]:
        """Current counter values as a plain dict (cheap copy)."""
        with self._lock:
            return {k: c.value for k, c in self._counters.items()}

    def snapshot(self) -> Dict[str, object]:
        """One flat dict of everything: counters, gauges, histograms.

        Histogram ``h`` flattens to ``h.count`` / ``h.sum`` / ``h.min`` /
        ``h.max`` / ``h.p50`` / ``h.p90`` / ``h.p99`` keys so the result
        is JSON-ready.
        """
        with self._lock:
            flat: Dict[str, object] = {
                k: c.value for k, c in self._counters.items()
            }
            for k, g in self._gauges.items():
                flat[k] = g.value
            for k, h in self._histograms.items():
                flat[f"{k}.count"] = h.count
                flat[f"{k}.sum"] = h.total
                flat[f"{k}.min"] = h.min
                flat[f"{k}.max"] = h.max
                for p in (50, 90, 99):
                    flat[f"{k}.p{p}"] = h.percentile(p)
            return flat

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
