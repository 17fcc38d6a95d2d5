"""One serving event, one instrument call: the two metric planes agree.

Every ``live_*`` call records on the live plane and on the collector,
so after any serving session each live counter's lifetime total equals
the collector's counter of the same name, each live histogram has as
many observations as the collector's, and each live gauge holds the
same last value.
"""

from repro.observability import collect
from repro.observability.live import live
from repro.serve import CQAService
from repro.serve.store import StorePolicy, TenantStore

EMPLOYEE_SPEC = {
    "relations": {
        "Employee": {
            "columns": ["Name", "Salary"],
            "key": ["Name"],
            "rows": [["page", "5K"], ["page", "8K"], ["smith", "3K"]],
        },
        "Audit": {"columns": ["K", "V"], "rows": []},
    },
    "constraints": {"fd": ["Employee: Name -> Salary"]},
}


def _serving_session(data_dir) -> None:
    """Recover, register, then three rounds of mutate and read."""
    service = CQAService(
        store=TenantStore(str(data_dir), StorePolicy(fsync="always"))
    )
    try:
        service.recover()
        status, _, _ = service.register_db("emp", EMPLOYEE_SPEC)
        assert status == 200
        for round_ in range(3):
            status, _, _ = service.handle_mutate(
                "emp", {"insert": [["Audit", f"k{round_}", "v"]]}
            )
            assert status == 200
            status, body, _ = service.handle_cqa(
                {"db": "emp", "query": "Q(X) :- Employee(X, Y)"}
            )
            assert status == 200
            assert body["answers"] == [["page"], ["smith"]]
    finally:
        service.close()


def test_every_live_instrument_matches_the_collector(tmp_path):
    with collect() as collector, live() as plane:
        _serving_session(tmp_path)
    status = plane.status()
    flat = collector.snapshot()
    mismatched = {}
    for name, summary in status["counters"].items():
        if collector.counter(name) != summary["total"]:
            mismatched[name] = (summary["total"], collector.counter(name))
    for name, summary in status["histograms"].items():
        if flat.get(f"{name}.count") != summary["count"]:
            mismatched[f"{name}.count"] = (
                summary["count"], flat.get(f"{name}.count"),
            )
    for name, value in status["gauges"].items():
        if flat.get(name) != value:
            mismatched[name] = (value, flat.get(name))
    assert mismatched == {}, f"live vs collector: {mismatched}"
    # The session really exercised every serving layer.
    assert status["counters"]["serve.requests"]["total"] == 3
    assert status["counters"]["serve.mutations"]["total"] == 3
    assert status["counters"]["store.appends"]["total"] == 4
    assert status["counters"]["store.recoveries"]["total"] == 1
    assert status["counters"]["dispatch.rungs.ok"]["total"] == 3
    assert status["histograms"]["serve.latency_ms"]["count"] == 3
