"""Exposition: Prometheus text format and human status rendering.

Both writers consume the *status document* — the JSON-ready dict built
by :meth:`~repro.observability.live.LivePlane.status` — rather than the
live registry directly, so the same snapshot a test asserts on is the
one a file (and, later, an HTTP endpoint) serves verbatim.

Prometheus names are derived mechanically from the dotted metric names
(``dispatch.latency_ms`` → ``repro_dispatch_latency_ms``): counters gain
the ``_total`` suffix, rolling-window rates become companion gauges,
histograms are exposed as summaries whose quantiles come from the
rolling window (that is the *live* plane's job; lifetime count/sum ride
along as ``_count``/``_sum``).  :func:`validate_prometheus` is the
line-by-line grammar check the tests and CI gate on.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Sequence, Tuple

from ..export import write_atomic

__all__ = [
    "prometheus_text",
    "render_status",
    "validate_prometheus",
    "write_prometheus",
    "write_status_json",
]

_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_PREFIX = "repro"

#: One exposition line: ``name{labels} value`` with optional labels.
_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (-?[0-9.eE+-]+|NaN|[+-]?Inf)$"
)


def _name(metric: str, suffix: str = "") -> str:
    return f"{_PREFIX}_{_SANITIZE.sub('_', metric)}{suffix}"


def _fmt(value) -> str:
    if value is None:
        return "NaN"
    return repr(float(value)) if isinstance(value, float) else str(value)


def prometheus_text(status: Dict[str, object]) -> str:
    """Render a status document in the Prometheus text exposition format.

    Every metric family is announced with a ``# HELP`` line followed by
    its ``# TYPE`` line (the order the Prometheus text parser expects),
    the help text derived mechanically from the dotted source metric.
    """
    lines: List[str] = []

    def typed(name: str, kind: str, help_text: str) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    uptime = status.get("uptime_s")
    if uptime is not None:
        name = _name("uptime_seconds")
        typed(name, "gauge", "Seconds since the live plane was installed.")
        lines.append(f"{name} {_fmt(uptime)}")

    for metric, summary in (status.get("counters") or {}).items():
        total = _name(metric, "_total")
        typed(total, "counter", f"Lifetime count of {metric}.")
        lines.append(f"{total} {_fmt(summary['total'])}")
        rate = _name(metric, "_rate_per_s")
        typed(rate, "gauge", f"Rolling-window rate of {metric}.")
        lines.append(f"{rate} {_fmt(summary['rate_per_s'])}")

    for metric, summary in (status.get("histograms") or {}).items():
        name = _name(metric)
        typed(
            name,
            "summary",
            f"Rolling-window quantiles of {metric} "
            "(lifetime count/sum).",
        )
        for quantile, key in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
            if summary.get(key) is not None:
                lines.append(
                    f'{name}{{quantile="{quantile}"}} '
                    f"{_fmt(summary[key])}"
                )
        lines.append(f"{name}_sum {_fmt(summary['sum'])}")
        lines.append(f"{name}_count {_fmt(summary['count'])}")

    breakers = status.get("breakers") or {}
    if breakers:
        name = _name("dispatch_breaker_state")
        typed(
            name,
            "gauge",
            "Circuit-breaker state per engine (1 = current state).",
        )
        for engine, state in sorted(breakers.items()):
            lines.append(
                f'{name}{{engine="{engine}",state="{state}"}} 1'
            )

    for metric, value in (status.get("gauges") or {}).items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue  # string gauges (e.g. breaker states) expose above
        name = _name(metric)
        typed(name, "gauge", f"Current value of {metric}.")
        lines.append(f"{name} {_fmt(value)}")

    requests = status.get("requests") or {}
    availability = requests.get("availability")
    if availability is not None:
        name = _name("dispatch_availability")
        typed(
            name,
            "gauge",
            "Served (ok+degraded) over total requests in the window.",
        )
        lines.append(f"{name} {_fmt(availability)}")

    return "\n".join(lines) + "\n"


def validate_prometheus(text: str) -> int:
    """Check *text* line-by-line against the exposition grammar.

    Returns the number of sample lines; raises ``ValueError`` naming the
    first offending line.  This is the acceptance check that the output
    a future HTTP endpoint would serve actually parses.
    """
    samples = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line or line.startswith("# "):
            if line.startswith("# ") and not re.match(
                r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* ", line
            ):
                raise ValueError(
                    f"line {lineno}: malformed comment {line!r}"
                )
            continue
        if not _SAMPLE_LINE.match(line):
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        samples += 1
    return samples


# ----------------------------------------------------------------------
# Human rendering and file writers
# ----------------------------------------------------------------------


def _fmt_quantile(value, unit: str) -> str:
    return f"{value:.2f}{unit}" if value is not None else "-"


def render_status(status: Dict[str, object]) -> str:
    """Human-readable status: requests, breakers, latency, hot counters."""
    lines: List[str] = []
    uptime = status.get("uptime_s")
    window = status.get("window_s")
    header = "live status"
    if uptime is not None:
        header += f"  (uptime {uptime:.1f}s"
        if window is not None:
            header += f", window {window:g}s"
        header += ")"
    lines.append(header)

    requests = status.get("requests") or {}
    if requests.get("total"):
        availability = requests.get("availability")
        lines.append(
            "requests: total={total} ok={ok} degraded={degraded} "
            "error={error}  availability={avail}".format(
                total=requests.get("total", 0),
                ok=requests.get("ok", 0),
                degraded=requests.get("degraded", 0),
                error=requests.get("error", 0),
                avail=(
                    f"{availability:.3f}"
                    if availability is not None
                    else "-"
                ),
            )
        )

    breakers = status.get("breakers") or {}
    if breakers:
        lines.append("breakers:")
        gauges = status.get("gauges") or {}
        for engine, state in sorted(breakers.items()):
            failures = gauges.get(f"dispatch.breaker.failures.{engine}")
            trips = gauges.get(f"dispatch.breaker.trips.{engine}")
            extra = ""
            if failures is not None or trips is not None:
                extra = (
                    f"  (failures {failures or 0}, trips {trips or 0})"
                )
            lines.append(f"  {engine:<14} {state}{extra}")

    histograms = status.get("histograms") or {}
    for metric, summary in sorted(histograms.items()):
        unit = "ms" if metric.endswith("_ms") else ""
        lines.append(
            f"{metric}: p50={_fmt_quantile(summary.get('p50'), unit)} "
            f"p90={_fmt_quantile(summary.get('p90'), unit)} "
            f"p99={_fmt_quantile(summary.get('p99'), unit)}  "
            f"(window n={summary.get('window_count', 0)}, "
            f"lifetime n={summary.get('count', 0)})"
        )

    counters = status.get("counters") or {}
    if counters:
        lines.append("counters (window / total):")
        width = max(len(k) for k in counters)
        for metric, summary in sorted(counters.items()):
            lines.append(
                f"  {metric.ljust(width)}  {summary['window']:>8} / "
                f"{summary['total']}"
            )

    events = status.get("events") or {}
    by_kind = events.get("by_kind") or {}
    if by_kind:
        lines.append(
            "events: "
            + " ".join(f"{k}={v}" for k, v in sorted(by_kind.items()))
        )
    return "\n".join(lines)


def write_status_json(path, status: Dict[str, object]) -> None:
    """Write the status document as JSON (atomically, so a concurrent
    ``obs watch`` never reads a half-written file)."""
    text = json.dumps(status, indent=2, default=repr) + "\n"
    write_atomic(path, lambda handle: handle.write(text))


def write_prometheus(path, status: Dict[str, object]) -> None:
    """Write the Prometheus text exposition (atomically)."""
    text = prometheus_text(status)
    write_atomic(path, lambda handle: handle.write(text))
