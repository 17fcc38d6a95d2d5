"""Record the replay-compatibility flight envelopes kept in this folder.

Run from the repository root::

    PYTHONPATH=src python tests/data/flight/record.py tests/data/flight

It replaces every ``flight_*.json`` in the folder with fresh envelopes.
The committed ones were recorded by the tree just before the dispatch
ladder began building one record per rung (commit 161feb2), so
``tests/test_flight.py::TestReplayCompatibility`` shows that envelopes
recorded by that tree still replay, and still get the same decision
trail, on the current one.  One was recorded again, by the tree that
stopped charging a breaker for a rung that ran out of its request's own
budget: in ``flight_r000018_*`` the third starved failure of ``local``
and ``enumerate`` tripped their breakers at 161feb2, and trips none
since.  The set covers the default ladder and the
``("local", "enumerate", "certain-core")`` ladder under the
transient-sqlite and step-starvation fault plans of the CI chaos drive,
one refused request and one shadow-sampled request.
"""

import contextlib
import glob
import os
import sys

from repro.dispatch import DispatchError, DispatchPolicy, Dispatcher
from repro.logic.parser import parse_query
from repro.observability.flight import (
    FlightRecorder,
    recording,
    write_envelope,
)
from repro.runtime import FaultPlan, inject
from repro.workloads import employee, employee_key_violations

PLANS = {
    "transient-sqlite": dict(seed=11, sqlite_failure_rate=1.0),
    "step-starvation": dict(seed=12, starve_steps_after=5),
}
SELF_JOIN = "Q(X) :- Employee(X, Y), Employee(Z, Y)"


def _requests():
    paper = employee()
    synth = employee_key_violations(3, 2, 2, seed=11)
    return [
        (paper, paper.queries["Q1"]),
        (paper, paper.queries["Q2"]),
        (synth, synth.queries["all"]),
        (synth, synth.queries["names"]),
        (synth, parse_query(SELF_JOIN)),
    ]


def _run(recorder, policy, plan, requests, keep):
    """Dispatch *requests* on one dispatcher; keep the envelopes of the
    requests whose positions are in *keep*."""
    dispatcher = Dispatcher(policy)
    faults = (
        inject(FaultPlan(**plan)) if plan is not None
        else contextlib.nullcontext()
    )
    kept = []
    with recording(recorder), faults:
        for index, (scenario, query) in enumerate(requests):
            try:
                dispatcher.dispatch(scenario.db, scenario.constraints, query)
            except DispatchError:
                pass
            if index in keep:
                kept.append(recorder.captured[-1])
    return kept


def main(out_dir: str) -> int:
    for stale in glob.glob(os.path.join(out_dir, "flight_*.json")):
        os.remove(stale)
    recorder = FlightRecorder(mode="all", keep=1000)
    envelopes = []
    requests = _requests()
    for plan_name in ("transient-sqlite", "step-starvation"):
        envelopes += _run(
            recorder, DispatchPolicy(), PLANS[plan_name], requests,
            keep={0, 3, 4},
        )
        envelopes += _run(
            recorder,
            DispatchPolicy(ladder=("local", "enumerate", "certain-core")),
            PLANS[plan_name],
            requests,
            keep={2, 4},
        )
    # Refused: fm-sql is inapplicable to the self-join and enumerate
    # starves, so no rung answers.
    envelopes += _run(
        recorder,
        DispatchPolicy(ladder=("fm-sql", "enumerate")),
        PLANS["step-starvation"],
        requests[4:],
        keep={0},
    )
    # Shadow-sampled: fm-sql answers, fo-mem re-runs it and agrees.
    envelopes += _run(
        recorder,
        DispatchPolicy(shadow_rate=1.0, shadow_seed=3),
        None,
        requests[:1],
        keep={0},
    )
    for envelope in envelopes:
        print(write_envelope(out_dir, envelope))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "."))
