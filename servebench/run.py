"""Run one workload of the serving benchmark and print its metrics.

    python3 servebench/run.py --workload NAME --seed N --seconds S \
        --trace 0|1

``--trace 0`` prints the end-to-end metrics of a timed run; ``--trace
1`` prints the per-layer metrics: a timed run (for the ``/proc``
figures and the untraced latency) followed by a traced run of the same
operation sequence.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import NoReturn

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

#: Set-ups per timed run; ``setup_s`` is their median.
SETUPS = 5


def _fail(message: str, code: int = 2) -> NoReturn:
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(code)


def _terminate(signum, frame) -> None:
    # Unwind through the cleanup paths, which stop every server.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__main__.py")):
        _fail(f"no program source under {os.path.join(ROOT, 'src')}")

    from servebench import measure, workloads
    from servebench.server import GateError

    if args.workload not in workloads.WORKLOADS:
        _fail(
            f"unknown workload {args.workload!r}; expected one of "
            + ", ".join(workloads.WORKLOADS)
        )
    if args.seconds < 1:
        _fail("--seconds must be at least 1")
    workload = workloads.build(args.workload, args.seed, args.seconds)
    workloads.cross_check(args.seed)
    expected = workloads.expected_answers(workload)
    try:
        if args.trace:
            result = measure.traced_run(ROOT, workload, expected)
        else:
            result = measure.timed_run(ROOT, workload, expected, SETUPS)
    except (GateError, ValueError) as exc:
        # a broken contract or a percentile the run cannot support
        _fail(str(exc), 1)
    finally:
        try:  # the servers' directories are gone; drop their parent
            os.rmdir(os.path.join(ROOT, ".servebench"))
        except OSError:
            pass
    measure.print_report(result)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
