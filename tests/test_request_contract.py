"""The request contract at the service's front door.

The golden table (``data/request_contract.json``) holds, for every
route, its 200 and each refusal it can give, as the server answered
them before the route table and the one refusal type replaced the
hand-built answers (request ids and timings masked).  ``DELTAS`` lists the answers that changed on purpose:
the gates the registry listing, the report, the fence and the promotion
lacked, and the payload fields whose type was not checked.
"""

import http.client
import json
import os
import socket
import threading

from repro.dispatch import DispatchPolicy
from repro.observability.live import live_installed
from repro.runtime import FaultPlan, inject
from repro.serve import (
    AdmissionController,
    CQAService,
    ReplicaConfig,
    ServerConfig,
    TenantPolicy,
)
from repro.serve.http import _ROUTES
from repro.serve.store import StorePolicy, TenantStore

from .test_serve import EMPLOYEE_SPEC, FakeClock, _ServerHarness

#: Keys whose values are timings or ids, different on every run.
_VOLATILE = {"request_id", "elapsed_ms", "promotion_ms", "last_pull_age_s"}

_READ = {"db": "emp", "query": "Q(X) :- Employee(X, Y)"}
_SELF_JOIN = {"db": "emp", "query": "Q(X) :- Employee(X, Y), Employee(Z, Y)"}


def _masked(value):
    if isinstance(value, dict):
        return {
            key: "*" if key in _VOLATILE else _masked(item)
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [_masked(item) for item in value]
    return value


def _exchange(port, method, path, payload=None, raw=None):
    """One request on a fresh connection: ``[status, reason, headers,
    body]``, the headers in their order but for Content-Length, which
    must be the body's length, and the body parsed and masked."""
    if raw is None and payload is not None:
        raw = json.dumps(payload).encode()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        conn.request(method, path, body=raw)
        response = conn.getresponse()
        data = response.read()
    finally:
        conn.close()
    headers = []
    for name, value in response.getheaders():
        if name == "Content-Length":
            assert int(value) == len(data), (method, path)
        else:
            headers.append([name, value])
    if response.getheader("Content-Type") == "application/json":
        body = _masked(json.loads(data))
    else:
        body = data.decode("utf-8")
    return [response.status, response.reason, headers, body]


def _raw_exchange(port, data):
    """*data* sent on a fresh socket, which then stops writing: the
    answer as :func:`_exchange` records it."""
    with socket.create_connection(("127.0.0.1", port), timeout=30.0) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        raw = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
    head, _, data = raw.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    _, status, reason = status_line.split(" ", 2)
    headers = [line.split(": ", 1) for line in lines]
    assert ["Content-Length", str(len(data))] in headers
    headers.remove(["Content-Length", str(len(data))])
    return [int(status), reason, headers, json.loads(data)]


class _Drive:
    """Runs one service behind a server and records each answer under
    its label."""

    def __init__(self, answers, service, **config):
        self.answers = answers
        self.service = service
        self.harness = _ServerHarness(
            service, ServerConfig(port=0, **config)
        )

    def __enter__(self):
        self.harness.__enter__()
        return self

    def __exit__(self, *exc):
        self.harness.__exit__(*exc)

    def __call__(self, label, method, path, payload=None, raw=None):
        assert label not in self.answers, label
        self.answers[label] = _exchange(
            self.harness.server.port, method, path, payload, raw
        )


def _store_service(tmp_path, name, recover=True, **policy):
    directory = tmp_path / name
    directory.mkdir()
    service = CQAService(
        store=TenantStore(str(directory), StorePolicy(**policy))
    )
    if recover:
        service.recover()
    return service


def _plain(answers, tmp_path):
    with _Drive(answers, CQAService()) as call:
        call("healthz", "GET", "/healthz")
        call("healthz-query", "GET", "/healthz?verbose=1")
        call("status", "GET", "/status")
        call("metrics", "GET", "/metrics")
        call("list-empty", "GET", "/v1/db")
        call("put", "PUT", "/v1/db/emp", EMPLOYEE_SPEC)
        call("put-bad-json", "PUT", "/v1/db/emp", raw=b"{nope")
        call("put-not-object", "PUT", "/v1/db/emp", raw=b"[1]")
        call("put-nan", "PUT", "/v1/db/emp", raw=b'{"relations": NaN}')
        call("put-invalid-name", "PUT", "/v1/db/a/b", EMPLOYEE_SPEC)
        call("put-no-relations", "PUT", "/v1/db/x", {})
        call("put-relation-shape", "PUT", "/v1/db/x", {"relations": {"R": 1}})
        call("put-no-columns", "PUT", "/v1/db/x",
             {"relations": {"R": {"rows": []}}})
        call("put-rows-shape", "PUT", "/v1/db/x",
             {"relations": {"R": {"columns": ["A"], "rows": 1}}})
        call("put-row-arity", "PUT", "/v1/db/x",
             {"relations": {"R": {"columns": ["A"], "rows": [["a", "b"]]}}})
        call("put-unhashable-row", "PUT", "/v1/db/x",
             {"relations": {"R": {"columns": ["A"], "rows": [[["a"]]]}}})
        call("put-bad-key", "PUT", "/v1/db/x",
             {"relations": {"R": {"columns": ["A"], "key": ["Z"]}}})
        call("put-bad-fd", "PUT", "/v1/db/x", {
            "relations": {"R": {"columns": ["A", "B"]}},
            "constraints": {"fd": ["R: A ->"]},
        })
        call("list", "GET", "/v1/db")
        call("get-db", "GET", "/v1/db/emp")
        call("post-db", "POST", "/v1/db/emp", {})
        call("patch-db", "PATCH", "/v1/db/emp", {})
        call("get-db-slash", "GET", "/v1/db/")
        call("mutate", "POST", "/v1/db/emp/mutate",
             {"insert": [["Employee", "jones", "1K"]]})
        call("mutate-bad-json", "POST", "/v1/db/emp/mutate", raw=b"{")
        call("mutate-not-list", "POST", "/v1/db/emp/mutate", {"insert": "x"})
        call("mutate-entry-shape", "POST", "/v1/db/emp/mutate",
             {"insert": [[1, "a"]]})
        call("mutate-non-scalar", "POST", "/v1/db/emp/mutate",
             {"delete": [["Employee", ["x"], "y"]]})
        call("mutate-empty", "POST", "/v1/db/emp/mutate", {})
        call("mutate-unknown-relation", "POST", "/v1/db/emp/mutate",
             {"insert": [["Nope", "a"]]})
        call("mutate-arity", "POST", "/v1/db/emp/mutate",
             {"insert": [["Employee", "a"]]})
        call("mutate-404", "POST", "/v1/db/nope/mutate",
             {"insert": [["R", "a"]]})
        call("report", "GET", "/v1/db/emp/report")
        call("report-404", "GET", "/v1/db/nope/report")
        call("put-report-name", "PUT", "/v1/db/x/report", EMPLOYEE_SPEC)
        call("cqa", "POST", "/v1/cqa", _READ)
        call("cqa-inline", "POST", "/v1/cqa", {
            **EMPLOYEE_SPEC, "query": "Q(X) :- Employee(X, Y)",
        })
        call("cqa-bad-json", "POST", "/v1/cqa", raw=b"nope")
        call("cqa-tenant", "POST", "/v1/cqa", {**_READ, "tenant": 5})
        call("cqa-timeout", "POST", "/v1/cqa", {**_READ, "timeout_s": "1"})
        call("cqa-no-db", "POST", "/v1/cqa", {"query": _READ["query"]})
        call("cqa-unknown-db", "POST", "/v1/cqa", {**_READ, "db": "nope"})
        call("cqa-no-query", "POST", "/v1/cqa", {"db": "emp"})
        call("cqa-bad-query", "POST", "/v1/cqa", {**_READ, "query": "Q(X) :-"})
        call("cqa-semantics", "POST", "/v1/cqa", {**_READ, "semantics": "z"})
        call("cqa-inline-shape", "POST", "/v1/cqa",
             {"relations": {"R": 1}, "query": _READ["query"]})
        call("cqa-db-shape", "POST", "/v1/cqa", {**_READ, "db": ["x"]})
        call("cqa-constraints-shape", "POST", "/v1/cqa", {
            **EMPLOYEE_SPEC, "constraints": "abc", "query": _READ["query"],
        })
        call("cqa-inline-bad-fd", "POST", "/v1/cqa", {
            **EMPLOYEE_SPEC, "constraints": {"fd": ["x"]},
            "query": _READ["query"],
        })
        call("cqa-inline-bad-key", "POST", "/v1/cqa", {
            "relations": {"R": {"columns": ["A"], "key": ["Z"]}},
            "query": "Q(X) :- R(X)",
        })
        call("put-constraints-shape", "PUT", "/v1/db/x",
             {**EMPLOYEE_SPEC, "constraints": "abc"})
        call("put-fd-shape", "PUT", "/v1/db/x",
             {**EMPLOYEE_SPEC, "constraints": {"fd": [5]}})
        call("put-key-shape", "PUT", "/v1/db/x",
             {"relations": {"R": {"columns": ["A"], "key": 5}}})
        call("repairs", "POST", "/v1/repairs", {"db": "emp"})
        call("repairs-db-shape", "POST", "/v1/repairs", {"db": {"a": 1}})
        call("repairs-c", "POST", "/v1/repairs",
             {"db": "emp", "semantics": "c"})
        call("repairs-limit-bool", "POST", "/v1/repairs",
             {"db": "emp", "limit": True})
        call("repairs-limit-zero", "POST", "/v1/repairs",
             {"db": "emp", "limit": 0})
        call("repairs-semantics", "POST", "/v1/repairs",
             {"db": "emp", "semantics": "x"})
        call("repairs-no-db", "POST", "/v1/repairs", {})
        call("pull-no-store", "POST", "/v1/replica/pull", {"from_lsn": 0})
        call("promote-no-store", "POST", "/v1/replica/promote")
        call("fence-no-store", "POST", "/v1/replica/fence", {"epoch": 1})
        call("replica-bad-json", "POST", "/v1/replica/fence", raw=b"[")
        call("replica-status", "GET", "/v1/replica/status")
        call("replica-get-pull", "GET", "/v1/replica/pull")
        call("replica-post-status", "POST", "/v1/replica/status", {})
        call("replica-unknown", "POST", "/v1/replica/nope", {})
        call("delete", "DELETE", "/v1/db/emp")
        call("delete-404", "DELETE", "/v1/db/emp")
        call("unknown", "GET", "/nope")
        call("get-cqa", "GET", "/v1/cqa")
        call("post-db-root", "POST", "/v1/db", {})


def _failing(answers, tmp_path):
    """A ladder that cannot answer a self-join, and answers JSON cannot
    carry."""
    service = CQAService(policy=DispatchPolicy(ladder=("fm-sql",)))
    service.register_db("emp", EMPLOYEE_SPEC)
    from .test_serve import TestHttpBoundary

    service.register_instance("nan", *TestHttpBoundary._nan_instance())
    with _Drive(answers, service) as call:
        call("cqa-unavailable", "POST", "/v1/cqa", _SELF_JOIN)
        call("cqa-nan", "POST", "/v1/cqa",
             {"db": "nan", "query": "Q(X) :- R(X, Y)"})
        call("repairs-nan", "POST", "/v1/repairs",
             {"db": "nan", "semantics": "s", "limit": 2})
    service = CQAService()
    service.register_instance("nan", *TestHttpBoundary._nan_instance())
    with _Drive(answers, service) as call:
        # The self-join is answered in memory, with the NaN itself.
        call("cqa-nan-self-join", "POST", "/v1/cqa",
             {"db": "nan", "query": "Q(X) :- R(X, Y), R(Z, Y)"})


def _admission(answers, tmp_path):
    clock = FakeClock()
    quota = CQAService(
        admission=AdmissionController(
            TenantPolicy(quota_requests=1), clock=clock
        ),
        clock=clock,
    )
    quota.register_db("emp", EMPLOYEE_SPEC)
    with _Drive(answers, quota) as call:
        call("cqa-quota-first", "POST", "/v1/cqa", _READ)
        call("cqa-quota-shed", "POST", "/v1/cqa", _READ)
    breaker = CQAService(
        policy=DispatchPolicy(ladder=("fm-sql",)),
        admission=AdmissionController(
            TenantPolicy(failure_threshold=1, cooldown_s=5.0), clock=clock
        ),
        clock=clock,
    )
    breaker.register_db("emp", EMPLOYEE_SPEC)
    with _Drive(answers, breaker) as call:
        call("cqa-breaker-trips", "POST", "/v1/cqa", _SELF_JOIN)
        call("cqa-breaker-open", "POST", "/v1/cqa", _READ)
    budget = CQAService(
        admission=AdmissionController(TenantPolicy(default_timeout_s=1e-9))
    )
    budget.register_db("emp", EMPLOYEE_SPEC)
    with _Drive(answers, budget) as call:
        call("report-budget", "GET", "/v1/db/emp/report")


def _server_busy(answers, tmp_path):
    """The one handler thread is held by a report: a read is shed at
    the server before admission."""
    service = CQAService()
    entered, release = threading.Event(), threading.Event()

    def held(name):
        entered.set()
        release.wait(30.0)
        return 200, {"db": name}, {}

    service.handle_report = held
    with _Drive(answers, service, max_inflight=1) as call:
        port = call.harness.server.port
        thread = threading.Thread(
            target=_exchange, args=(port, "GET", "/v1/db/x/report")
        )
        thread.start()
        try:
            assert entered.wait(30.0)
            call("cqa-server-busy", "POST", "/v1/cqa", _READ)
            call("repairs-server-busy", "POST", "/v1/repairs", {"db": "x"})
            call("put-while-busy-bad-json", "PUT", "/v1/db/x", raw=b"{")
        finally:
            release.set()
            thread.join(30.0)


def _transport(answers, tmp_path):
    """Requests the server cannot read: a 400 that closes."""
    with _Drive(answers, CQAService(), max_body_bytes=64) as call:
        port = call.harness.server.port
        for label, data in (
            ("malformed-request-line", b"GARBAGE\r\n\r\n"),
            ("truncated-headers", b"GET /healthz HTTP/1.1\r\nHost: x\r\n"),
            ("bad-content-length",
             b"POST /v1/cqa HTTP/1.1\r\nContent-Length: x\r\n\r\n"),
            ("body-too-large",
             b"POST /v1/cqa HTTP/1.1\r\nContent-Length: 65\r\n\r\n"),
            ("truncated-body",
             b"POST /v1/cqa HTTP/1.1\r\nContent-Length: 9\r\n\r\n{}"),
        ):
            answers[label] = _raw_exchange(port, data)


def _draining(answers, tmp_path):
    """Draining still serves: only the health probe says so."""
    service = CQAService()
    service.register_db("emp", EMPLOYEE_SPEC)
    service.begin_drain()
    with _Drive(answers, service) as call:
        call("draining-healthz", "GET", "/healthz")
        call("draining-list", "GET", "/v1/db")
        call("draining-report", "GET", "/v1/db/emp/report")
        call("draining-mutate", "POST", "/v1/db/emp/mutate",
             {"delete": [["Employee", "page", "5K"]]})
        call("draining-cqa", "POST", "/v1/cqa", _READ)


def _recovering(answers, tmp_path):
    """Every registry and replica route before recover()."""
    service = _store_service(tmp_path, "recovering", recover=False)
    with _Drive(answers, service) as call:
        call("recovering-healthz", "GET", "/healthz")
        call("recovering-list", "GET", "/v1/db")
        call("recovering-put", "PUT", "/v1/db/emp", EMPLOYEE_SPEC)
        call("recovering-delete", "DELETE", "/v1/db/emp")
        call("recovering-mutate", "POST", "/v1/db/emp/mutate",
             {"insert": [["Employee", "a", "b"]]})
        call("recovering-report", "GET", "/v1/db/emp/report")
        call("recovering-cqa", "POST", "/v1/cqa", _READ)
        call("recovering-repairs", "POST", "/v1/repairs", {"db": "emp"})
        call("recovering-pull", "POST", "/v1/replica/pull", {"from_lsn": 0})
        call("recovering-promote", "POST", "/v1/replica/promote")
        call("recovering-fence", "POST", "/v1/replica/fence", {"epoch": 5})
        call("recovering-replica-status", "GET", "/v1/replica/status")


def _primary(answers, tmp_path):
    service = _store_service(tmp_path, "primary")
    with _Drive(answers, service) as call:
        call("store-put", "PUT", "/v1/db/emp", EMPLOYEE_SPEC)
        call("store-mutate", "POST", "/v1/db/emp/mutate",
             {"insert": [["Employee", "jones", "1K"]]})
        call("store-cqa", "POST", "/v1/cqa", _READ)
        call("store-repairs", "POST", "/v1/repairs",
             {"db": "emp", "limit": 1})
        call("store-cqa-min-lsn-bool", "POST", "/v1/cqa",
             {**_READ, "min_lsn": True})
        call("store-cqa-behind-min-lsn", "POST", "/v1/cqa",
             {**_READ, "min_lsn": 99, "timeout_s": 0.01})
        call("pull", "POST", "/v1/replica/pull", {"from_lsn": 0})
        call("pull-long-poll", "POST", "/v1/replica/pull",
             {"from_lsn": 2, "epoch": 0, "wait_s": 0.01, "follower": "f1"})
        call("replica-status-followers", "GET", "/v1/replica/status")
        call("pull-epoch-shape", "POST", "/v1/replica/pull",
             {"from_lsn": 0, "epoch": "x"})
        call("pull-no-from-lsn", "POST", "/v1/replica/pull", {"epoch": 0})
        call("pull-wait-shape", "POST", "/v1/replica/pull",
             {"from_lsn": 2, "wait_s": "abc"})
        call("pull-wait-string", "POST", "/v1/replica/pull",
             {"from_lsn": 2, "wait_s": "0"})
        call("pull-wait-bool", "POST", "/v1/replica/pull",
             {"from_lsn": 2, "wait_s": False})
        call("pull-follower-shape", "POST", "/v1/replica/pull",
             {"from_lsn": 2, "follower": ["x"]})
        call("fence-epoch-shape", "POST", "/v1/replica/fence", {"epoch": 0})
        call.service.store.bump_epoch()
        call("fence-stale-epoch", "POST", "/v1/replica/fence", {"epoch": 1})
        call("promote-already-primary", "POST", "/v1/replica/promote", {})
        # The store latches between the role gate and the append.
        call.service.store.fence(5)
        call("put-fenced-store", "PUT", "/v1/db/other", EMPLOYEE_SPEC)
        call("mutate-fenced-store", "POST", "/v1/db/emp/mutate",
             {"insert": [["Employee", "k", "1K"]]})
        call("delete-fenced-store", "DELETE", "/v1/db/emp")
        call("fence", "POST", "/v1/replica/fence", {"epoch": 9})
        call("fenced-put", "PUT", "/v1/db/other", EMPLOYEE_SPEC)
        call("fenced-cqa", "POST", "/v1/cqa", _READ)
        call("fenced-pull", "POST", "/v1/replica/pull",
             {"from_lsn": 0, "epoch": 1})
        call("fenced-promote", "POST", "/v1/replica/promote", {})
    service = _store_service(tmp_path, "self-fenced")
    with _Drive(answers, service) as call:
        call("pull-higher-epoch", "POST", "/v1/replica/pull",
             {"from_lsn": 0, "epoch": 3})
        call("self-fenced-replica-status", "GET", "/v1/replica/status")


def _store_failures(answers, tmp_path):
    service = _store_service(tmp_path, "failing", fsync="always")
    service.register_db("emp", EMPLOYEE_SPEC)
    with _Drive(answers, service) as call:
        with inject(FaultPlan(seed=3, storage_fsync_fail_rate=1.0)):
            call("mutate-store-unavailable", "POST", "/v1/db/emp/mutate",
                 {"insert": [["Employee", "jones", "1K"]]})
            call("put-log-failed", "PUT", "/v1/db/other", EMPLOYEE_SPEC)
            call("delete-log-failed", "DELETE", "/v1/db/emp")


def _follower(answers, tmp_path):
    service = _store_service(tmp_path, "follower")
    service.register_db("emp", EMPLOYEE_SPEC)
    service._role = "follower"
    service._primary_url = "http://127.0.0.1:1"
    with _Drive(answers, service) as call:
        call("follower-put", "PUT", "/v1/db/x", EMPLOYEE_SPEC)
        call("follower-mutate", "POST", "/v1/db/emp/mutate",
             {"insert": [["Employee", "a", "b"]]})
        call("follower-delete", "DELETE", "/v1/db/nope")
        call("follower-cqa", "POST", "/v1/cqa", _READ)
        call("follower-pull", "POST", "/v1/replica/pull", {"from_lsn": 0})
        call.service._phase = "catching-up"
        call("catching-up-list", "GET", "/v1/db")
        call("catching-up-report", "GET", "/v1/db/emp/report")
        call("catching-up-cqa", "POST", "/v1/cqa", _READ)
        call("catching-up-pull", "POST", "/v1/replica/pull", {"from_lsn": 0})
        call("catching-up-fence", "POST", "/v1/replica/fence", {"epoch": 0})
        call.service._phase = "ready"
        with inject(FaultPlan(seed=4, storage_fsync_fail_rate=1.0,
                              max_storage_faults=1)):
            call("follower-promote-store-unavailable", "POST",
                 "/v1/replica/promote", {})
    service = _store_service(tmp_path, "candidate")
    service.register_db("emp", EMPLOYEE_SPEC)
    service._role = "follower"
    service._primary_url = "http://127.0.0.1:1"
    with _Drive(answers, service) as call:
        call("follower-promote", "POST", "/v1/replica/promote", {})
        call("promoted-put", "PUT", "/v1/db/x", EMPLOYEE_SPEC)


SCENARIOS = (
    _plain, _failing, _admission, _server_busy, _transport, _draining,
    _recovering, _primary, _store_failures, _follower,
)


def drive_every_route(tmp_path):
    """Every scenario's answers, by label."""
    assert not live_installed()
    answers = {}
    for scenario in SCENARIOS:
        scenario(answers, tmp_path)
    return answers


# ----------------------------------------------------------------------
# The golden table
# ----------------------------------------------------------------------

with open(
    os.path.join(os.path.dirname(__file__), "data", "request_contract.json")
) as _golden:
    #: label -> [status, reason, headers but Content-Length, body].
    GOLDEN = json.load(_golden)

_JSON = [["Content-Type", "application/json"], ["Connection", "keep-alive"]]


def _refused(status, reason, error, retry_after=None, **fields):
    headers = _JSON + ([["Retry-After", retry_after]] if retry_after else [])
    return [status, reason, headers, {"error": error, **fields}]


def _not_ready(phase):
    return _refused(
        503, "Service Unavailable", "not ready", retry_after="1", phase=phase
    )


def _bad(error, **fields):
    return _refused(400, "Bad Request", error, **fields)


#: The answers that changed on purpose.
DELTAS = {
    # The registry listing and the report take the ``ready`` gate; the
    # fence and the promotion take ``recovered``, so a recovering node
    # is no longer demoted, and its replication status says so.
    "recovering-list": _not_ready("recovering"),
    "recovering-report": _not_ready("recovering"),
    "recovering-promote": _not_ready("recovering"),
    "recovering-fence": _not_ready("recovering"),
    "recovering-replica-status": [200, "OK", _JSON, {
        "epoch": 0, "fenced_by": None, "last_lsn": 0,
        "phase": "recovering", "role": "primary",
    }],
    "catching-up-list": _not_ready("catching-up"),
    "catching-up-report": _not_ready("catching-up"),
    # Payload fields whose type was not checked answered 500.
    "cqa-db-shape": _bad("'db' must be a string", request_id="*"),
    "repairs-db-shape": _bad("'db' must be a string", request_id="*"),
    "cqa-constraints-shape": _bad(
        "'constraints' must be an object", request_id="*"
    ),
    "cqa-inline-bad-fd": _bad(
        "unexpected end of input in 'x'", request_id="*"
    ),
    "cqa-inline-bad-key": _bad(
        "key attributes ['Z'] not in relation 'R'", request_id="*"
    ),
    "put-constraints-shape": _bad("'constraints' must be an object"),
    "put-fd-shape": _bad("'constraints.fd' must be a list of strings"),
    "put-key-shape": _bad(
        "relation 'R': 'key' must be a list of column names"
    ),
    # Numeric strings, booleans and non-strings were taken as a wait
    # and a follower name.
    "pull-wait-string": _bad("'wait_s' must be a number"),
    "pull-wait-bool": _bad("'wait_s' must be a number"),
    "pull-follower-shape": _bad("'follower' must be a string"),
    # SQLite would store the NaN key as NULL, and fm-sql answered
    # [[null], ["a"]]: it now declines the instance, so this fm-sql-only
    # ladder refuses the read, as it refuses the self-join.
    "cqa-nan": [503, "Service Unavailable", _JSON, {
        "detail": "no engine could produce a sound answer (semantics=s): "
                  "fm-sql: inapplicable: SQLite would not give back nan "
                  "as it was stored",
        "error": "unavailable",
        "request_id": "*",
    }],
}


def test_every_route_answers_as_recorded(tmp_path):
    answers = drive_every_route(tmp_path)
    expected = {**GOLDEN, **DELTAS}
    assert sorted(answers) == sorted(expected)
    for label in sorted(expected):
        assert answers[label] == expected[label], label


def test_each_delta_changes_a_recorded_answer():
    for label, answer in DELTAS.items():
        assert GOLDEN[label] != answer, label


def test_a_body_nested_past_the_decoder_is_a_400(tmp_path):
    answers = {}
    with _Drive(answers, CQAService()) as call:
        call("deep", "POST", "/v1/cqa", raw=b"[" * 100000)
    status, _, headers, body = answers["deep"]
    assert status == 400 and headers == _JSON
    assert body["error"].startswith("invalid JSON body: maximum recursion")


def test_every_route_calls_a_handler_that_declares_its_gates():
    for route in _ROUTES.values():
        handler = getattr(CQAService, route.handler)
        assert hasattr(handler, "__wrapped__"), route.handler


# ----------------------------------------------------------------------
# The gates the handlers forgot
# ----------------------------------------------------------------------

_NOT_READY = {"error": "not ready", "phase": "recovering"}


class TestGates:
    def test_listing_and_report_wait_for_recovery(self, tmp_path):
        service = _store_service(tmp_path, "s", recover=False)
        for status, body, headers in (
            service.list_dbs(), service.handle_report("x")
        ):
            assert (status, body, headers) == (
                503, _NOT_READY, {"Retry-After": "1"}
            )
        service.recover()
        assert service.list_dbs() == (200, {"databases": {}}, {})
        assert service.handle_report("x")[0] == 404
        service.close()

    def test_a_stale_fence_cannot_demote_a_recovering_node(self, tmp_path):
        service = _store_service(tmp_path, "s")
        for _ in range(7):
            service.store.bump_epoch()
        service.close()
        service = CQAService(
            store=TenantStore(str(tmp_path / "s"), StorePolicy())
        )
        status, body, _ = service.handle_replica_fence({"epoch": 5})
        assert (status, body) == (503, _NOT_READY)
        assert service.handle_replica_promote()[:2] == (503, _NOT_READY)
        service.recover()
        assert service.role == "primary" and service.store.fenced is None
        status, body, _ = service.handle_replica_fence({"epoch": 5})
        assert status == 409 and body["error"] == "stale-epoch"
        service.close()
        # A restart comes back as the primary it was.
        restarted = CQAService(
            store=TenantStore(str(tmp_path / "s"), StorePolicy())
        )
        restarted.recover()
        assert restarted.role == "primary" and restarted.store.epoch == 7
        restarted.close()


def test_a_failed_promotion_keeps_the_follower_pulling(tmp_path):
    """The epoch bump fails: the node answers 503, stays a follower and
    pulls again; the failed log refuses a retry too."""
    service = _store_service(tmp_path, "f")
    service.start_follower(ReplicaConfig(
        upstream="http://127.0.0.1:1", backoff_s=0.05,
        poll_interval_s=0.05, request_timeout_s=1.0,
    ))
    try:
        with inject(FaultPlan(
            seed=1, storage_fsync_fail_rate=1.0, max_storage_faults=1
        )):
            for _ in range(2):
                status, body, _ = service.handle_replica_promote()
                assert status == 503, body
                assert body["error"] == "store-unavailable"
                assert service.role == "follower"
                assert service.replication()["client"]["running"] is True
    finally:
        service.close()
