"""The percentile rule and span self time."""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

#: A percentile is reported only with at least this many samples beyond
#: it, so one slow request cannot be the whole tail.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank percentile ``q`` (0 < q < 1) and the sample count.

    Raises :class:`TooFewSamples` unless at least :data:`MIN_BEYOND`
    samples rank above it, and ``ValueError`` when it lands on an
    infinite sample (a request that was not answered exactly).
    """
    n = len(values)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{round(q * 100)} of {n} samples has {max(0, n - rank)} "
            f"beyond it; at least {MIN_BEYOND} are needed"
        )
    value = sorted(values)[rank - 1]
    if math.isinf(value):
        raise ValueError(
            f"p{round(q * 100)} lands on a request that was not answered "
            "exactly"
        )
    return value, n


def covered(
    start: float, end: float, children: Iterable[Tuple[float, float]]
) -> float:
    """How much of ``[start, end]`` the union of the child intervals
    covers (children clipped to the parent; overlaps counted once)."""
    clipped: List[Tuple[float, float]] = sorted(
        (max(start, a), min(end, b))
        for a, b in children
        if min(end, b) > max(start, a)
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time(
    start: float, end: float, children: Iterable[Tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - covered(start, end, children)
