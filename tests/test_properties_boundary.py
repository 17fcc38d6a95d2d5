"""Any JSON value in any payload field gets a well-formed answer.

For every route that reads a payload, a valid payload with one field
(top-level or inside a database spec) replaced by an arbitrary JSON
value must be answered with a status, a JSON body and headers: never a
500, never an exception out of the handler, never a dropped connection.
A refusal (4xx) must leave the registry and the store as they were.
Each example runs on a fresh service with a durable store, so a 200
that changes either cannot leak into the next example.
"""

import http.client
import json
import tempfile

from hypothesis import given, settings, strategies as st

from repro.serve import CQAService, ServerConfig
from repro.serve.http import _json_text
from repro.serve.store import StorePolicy, TenantStore

from .test_serve import EMPLOYEE_SPEC, _ServerHarness

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)

_READ = {
    "db": "emp",
    "query": "Q(X) :- Employee(X, Y)",
    # Bounds a min_lsn wait, so an example never waits long.
    "timeout_s": 0.2,
}
_SPEC_FIELDS = (
    ("relations",),
    ("relations", "Employee"),
    ("relations", "Employee", "columns"),
    ("relations", "Employee", "key"),
    ("relations", "Employee", "rows"),
    ("constraints",),
    ("constraints", "fd"),
    ("constraints", "ind"),
    ("constraints", "dc"),
)
_READ_FIELDS = tuple(
    (name,)
    for name in ("db", "query", "semantics", "tenant", "timeout_s", "min_lsn")
)

#: route -> (handler, the path's database name or None, valid payload,
#: the fields an example replaces).
ROUTES = {
    "PUT /v1/db/new": ("register_db", "new", EMPLOYEE_SPEC, _SPEC_FIELDS),
    "POST /v1/db/emp/mutate": (
        "handle_mutate", "emp",
        {"insert": [["Employee", "jones", "1K"]],
         "delete": [["Employee", "smith", "3K"]]},
        (("insert",), ("delete",)),
    ),
    "POST /v1/cqa": ("handle_cqa", None, _READ, _READ_FIELDS),
    "POST /v1/cqa inline": (
        "handle_cqa", None,
        {**EMPLOYEE_SPEC, "query": _READ["query"], "timeout_s": 0.2},
        (("query",),) + _SPEC_FIELDS,
    ),
    "POST /v1/repairs": (
        "handle_repairs", None, {**_READ, "limit": 2},
        _READ_FIELDS + (("limit",),),
    ),
    "POST /v1/replica/pull": (
        "handle_replica_pull", None,
        {"from_lsn": 0, "epoch": 0, "follower": "f"},
        (("from_lsn",), ("epoch",), ("follower",), ("wait_s",)),
    ),
    "POST /v1/replica/promote": (
        "handle_replica_promote", None, {}, (("epoch",),),
    ),
    "POST /v1/replica/fence": (
        "handle_replica_fence", None, {"epoch": 3}, (("epoch",),),
    ),
}


@st.composite
def requests(draw):
    """A route and its valid payload with one field replaced."""
    route = draw(st.sampled_from(sorted(ROUTES)))
    handler, name, valid, fields = ROUTES[route]
    path = draw(st.sampled_from(fields))
    payload = json.loads(json.dumps(valid))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(JSON_VALUES)
    return route, payload


def _service(directory):
    service = CQAService(
        store=TenantStore(directory, StorePolicy(fsync="never"))
    )
    service.recover()
    service.register_db("emp", EMPLOYEE_SPEC)
    return service


def _state(service):
    """The registry's names and versions, and the store's log."""
    store = service.store
    return (
        {name: entry.version for name, entry in service._databases.items()},
        store.last_lsn,
        store.epoch,
        json.dumps(store.records_since(0), sort_keys=True),
    )


def _check(service, route, before, status, body):
    assert status != 500, (route, body)
    assert isinstance(body, dict), (route, body)
    if 400 <= status < 500:
        assert isinstance(body.get("error"), str), (route, body)
        assert _state(service) == before, (route, status, body)


@settings(max_examples=150, deadline=None)
@given(request=requests())
def test_every_payload_field_gets_a_well_formed_answer_in_process(request):
    route, payload = request
    handler, name, _, _ = ROUTES[route]
    with tempfile.TemporaryDirectory() as directory:
        service = _service(directory)
        try:
            before = _state(service)
            args = (payload,) if name is None else (name, payload)
            status, body, headers = getattr(service, handler)(*args)
            _check(service, route, before, status, body)
            _json_text(body)  # the server can send it
            assert all(
                isinstance(key, str) and isinstance(value, str)
                for key, value in headers.items()
            ), (route, headers)
        finally:
            service.close()


def test_every_payload_field_gets_a_well_formed_answer_over_http():
    """One server; each example swaps a fresh service in behind it."""
    with tempfile.TemporaryDirectory() as directory:
        harness = _ServerHarness(
            _service(tempfile.mkdtemp(dir=directory)), ServerConfig(port=0)
        )
        with harness as server:
            _over_http(server, directory)


def _over_http(server, directory):
    @settings(max_examples=100, deadline=None)
    @given(request=requests())
    def example(request):
        route, payload = request
        method, path = route.split()[:2]
        server.service.close()
        server.service = _service(tempfile.mkdtemp(dir=directory))
        before = _state(server.service)
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=30.0
        )
        try:
            conn.request(method, path, json.dumps(payload))
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        _check(server.service, route, before, response.status, body)
        assert response.getheader("Connection") == "keep-alive", body

    example()
