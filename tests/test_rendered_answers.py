"""Rendered answers: each answer set is sorted and JSON-encoded once.

``CQAService`` keeps, per registered name, the rendering of every answer
set a read produced, keyed by the set itself, and a later read of that
name with an equal set reuses it.  These tests pin that a response is
byte-for-byte what the server sent before renderings were kept (the
reference below sorts into lists and encodes the whole body on every
read), that only values whose equality implies identical JSON are kept,
that a repeat read renders nothing, and that a name's renderings stay
within its fact count and go with the name.
"""

import http.client
import json
import sys
import threading
import types
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.logic.parser import parse_fd
from repro.observability import collect
from repro.relational import RelationSchema, Schema
from repro.relational.database import Database
from repro.relational.nulls import NULL, is_null
from repro.serve import CQAService, ServerConfig, specs
from repro.serve.http import _json_text
from repro.serve.service import _Renderings

from .test_serve import _ServerHarness

PROJECTION = "Q(X) :- R(X, Y)"
FULL = "Q(X, Y) :- R(X, Y)"
VALUES_OF_B = "Q(Y) :- R(X, Y)"
#: Outside the Fuxman-Miller class: the in-memory ``local`` rung
#: answers it with the instance's own values (SQLite would turn True
#: into 1).
SELF_JOIN = "Q(X) :- R(X, Y), R(Z, Y)"
QUERIES = (PROJECTION, FULL, SELF_JOIN)
R_KEY = [parse_fd("R: A -> B")]


# -- the reference: how every read was answered before -----------------


def _reference_value_order(value):
    if is_null(value):
        return (0, "", 0)
    if isinstance(value, (int, float)):
        return (1, "", value)
    if isinstance(value, str):
        return (2, "", value)
    return (3, type(value).__name__, repr(value))


def _reference_lists(rows):
    ordered = list(rows)
    try:
        ordered.sort()
    except TypeError:
        ordered.sort(
            key=lambda row: [_reference_value_order(v) for v in row]
        )
    return [list(row) for row in ordered]


def _reference_json(body, answers):
    """*body* encoded as it was: its answers sorted into lists, then
    the whole body JSON-encoded, with the NULL marker as ``null``."""
    doc = dict(body)
    doc["answers"] = [
        [None if is_null(value) else value for value in row]
        for row in _reference_lists(answers)
    ]
    return json.dumps(doc, sort_keys=True, allow_nan=False)


# -- helpers -----------------------------------------------------------


def _r_instance(rows, audit=0):
    schema = Schema.of(
        RelationSchema("R", ("A", "B"), ("A",)),
        RelationSchema("Audit", ("E",)),
    )
    return Database.from_dict(
        {"R": list(rows), "Audit": [(f"e{i}",) for i in range(audit)]},
        schema=schema,
    )


class _Answered:
    """Records the answer set the dispatcher returned to the last read."""

    def __init__(self, service):
        self.last = None
        dispatch = service.dispatcher.dispatch

        def recording(*args, **kwargs):
            result = dispatch(*args, **kwargs)
            self.last = result.answers
            return result

        service.dispatcher.dispatch = recording


def _read(service, name, query):
    status, body, _ = service.handle_cqa({"db": name, "query": query})
    assert status == 200, body
    return body


def _post_raw(port, path, payload):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        conn.request("POST", path, json.dumps(payload))
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


@pytest.fixture
def render_calls(monkeypatch):
    """Counts the renderer's sorts and JSON encodings."""
    calls = Counter()
    sort = specs.sorted_rows

    def counting_sort(rows):
        calls["sort"] += 1
        return sort(rows)

    def counting_dumps(*args, **kwargs):
        calls["encode"] += 1
        return json.dumps(*args, **kwargs)

    monkeypatch.setattr(specs, "sorted_rows", counting_sort)
    monkeypatch.setattr(
        specs, "json", types.SimpleNamespace(dumps=counting_dumps)
    )
    return calls


# -- the differential --------------------------------------------------

_VALUES = st.one_of(
    st.sampled_from(["a", "b", "é", "日本", "", "NaN", "null"]),
    st.text(max_size=2),
    st.integers(-2, 2),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, -1e300]),
    st.booleans(),
    st.none(),
    st.just(NULL),
)
# A mutate payload carries JSON values only.
_JSON_VALUES = st.one_of(
    st.sampled_from(["a", "b", "é"]),
    st.integers(-1, 1),
    st.sampled_from([0.0, 1.0]),
    st.booleans(),
    st.none(),
)
_ROWS = st.lists(st.tuples(_VALUES, _VALUES), max_size=6)
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("read"),
            st.sampled_from(["p", "q"]),
            st.sampled_from(QUERIES),
            st.sampled_from(["service", "http"]),
        ),
        st.tuples(
            st.sampled_from(["insert", "delete"]),
            st.sampled_from(["p", "q"]),
            _JSON_VALUES,
            _JSON_VALUES,
        ),
    ),
    min_size=1,
    max_size=14,
)


@pytest.fixture(scope="module")
def served():
    service = CQAService()
    answered = _Answered(service)
    harness = _ServerHarness(service, ServerConfig(port=0))
    with harness as server:
        yield service, answered, server.port


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(p_rows=_ROWS, q_rows=_ROWS, ops=_OPS)
def test_every_response_is_the_reference_encoding(
    served, p_rows, q_rows, ops
):
    service, answered, port = served
    service.register_instance("p", _r_instance(p_rows), R_KEY)
    service.register_instance("q", _r_instance(q_rows), R_KEY)
    for op in ops:
        if op[0] != "read":
            kind, name, a, b = op
            status, body, _ = service.handle_mutate(
                name, {kind: [["R", a, b]]}
            )
            assert status == 200, body
            continue
        _, name, query, via = op
        if via == "service":
            body = _read(service, name, query)
            assert body["answers"] == _reference_lists(answered.last)
            assert _json_text(body) == _reference_json(
                body, answered.last
            )
        else:
            status, raw = _post_raw(
                port, "/v1/cqa", {"db": name, "query": query}
            )
            assert status == 200, raw
            expected = _reference_json(json.loads(raw), answered.last)
            assert raw == expected.encode("utf-8")


# -- equal answers of different types ----------------------------------


def test_equal_answers_of_different_types_render_their_own_way():
    service = CQAService()
    cases = [
        ([(1, "x")], SELF_JOIN, "[[1]]"),
        ([(1.0, "x")], SELF_JOIN, "[[1.0]]"),
        ([(True, "x")], SELF_JOIN, "[[true]]"),
        ([(None, "x")], SELF_JOIN, "[[null]]"),
        # fm-sql maps SQL NULL back to the NULL marker.
        ([(None, "x")], PROJECTION, "[[null]]"),
    ]
    with collect() as collector:
        for _ in range(2):
            for rows, query, rendered in cases:
                # Two Audit facts: both null answers fit the bound.
                service.register_instance(
                    "t", _r_instance(rows, audit=2), R_KEY
                )
                body = _read(service, "t", query)
                assert _json_text(body).startswith(
                    '{"answers": ' + rendered + ", "
                ), (rows, query)
    # Only the two null answers were kept; each second read reused one.
    assert collector.counter("serve.answers.reused") == 2
    assert body["engine"] == "fm-sql"
    assert list(body["answers"]) == [[NULL]]


# -- reuse -------------------------------------------------------------


def test_a_repeat_read_renders_nothing_and_counts_one_reuse(render_calls):
    service = CQAService()
    rows = [(f"a{i}", f"b{i % 3}") for i in range(8)] + [("a0", "b-alt")]
    service.register_instance("r", _r_instance(rows, audit=2), R_KEY)
    with collect() as collector:
        first = _read(service, "r", PROJECTION)
        assert render_calls == {"sort": 1, "encode": 1}
        assert collector.counter("serve.answers.reused") == 0
        second = _read(service, "r", PROJECTION)
        assert render_calls == {"sort": 1, "encode": 1}
        assert collector.counter("serve.answers.reused") == 1
        assert second["answers"] == first["answers"]
        assert _json_text(second) == _reference_json(
            second, {(f"a{i}",) for i in range(8)}
        )

        # A write to Audit leaves the answer as it was: reused.
        status, _, _ = service.handle_mutate(
            "r", {"insert": [["Audit", "e-new"]]}
        )
        assert status == 200
        _read(service, "r", PROJECTION)
        assert render_calls == {"sort": 1, "encode": 1}
        assert collector.counter("serve.answers.reused") == 2

        # A write that changes the answer renders once more.
        status, _, _ = service.handle_mutate(
            "r", {"delete": [["R", "a7", "b1"]]}
        )
        assert status == 200
        third = _read(service, "r", PROJECTION)
        assert render_calls == {"sort": 2, "encode": 2}
        assert collector.counter("serve.answers.reused") == 2
        assert ["a7"] in first["answers"] and ["a7"] not in third["answers"]
        _read(service, "r", PROJECTION)
        assert render_calls == {"sort": 2, "encode": 2}
        assert collector.counter("serve.answers.reused") == 3


def test_inline_instances_and_numbers_are_rendered_every_time(render_calls):
    service = CQAService()
    inline = {
        "relations": {
            "R": {"columns": ["A", "B"], "key": ["A"],
                  "rows": [["a", "b"], ["c", "d"]]},
        },
        "constraints": {"fd": ["R: A -> B"]},
        "query": PROJECTION,
    }
    service.register_instance("n", _r_instance([(1, "x"), (2, "y")]), R_KEY)
    with collect() as collector:
        for _ in range(2):
            assert service.handle_cqa(inline)[1]["answers"] == [["a"], ["c"]]
            assert _read(service, "n", PROJECTION)["answers"] == [[1], [2]]
        assert render_calls == {"sort": 4, "encode": 4}
        assert collector.counter("serve.answers.reused") == 0


# -- the bound ---------------------------------------------------------


def test_renderings_follow_least_recently_used_order():
    kept = _Renderings()

    def rendering(*values):
        return specs.render_rows((value,) for value in values)

    one, two, three = (
        frozenset((v,) for v in values)
        for values in (("a", "b"), ("c",), ("d", "e"))
    )
    kept.keep(one, rendering("a", "b"), 4)
    kept.keep(two, rendering("c"), 4)
    assert kept.recall(frozenset({("a",), ("b",)}), 4) == [["a"], ["b"]]
    # Over the bound: "c" was used least recently, so it goes first.
    kept.keep(three, rendering("d", "e"), 4)
    assert kept.recall(two, 4) is None
    assert kept.recall(one, 4) is not None
    assert kept.recall(three, 4) == [["d"], ["e"]]
    # An answer over the bound on its own is not kept; an empty one
    # counts one row.
    kept.keep(frozenset(), specs.render_rows(()), 4)
    kept.keep(frozenset({("x",), ("y",), ("z",), ("w",), ("v",)}),
              rendering("x", "y", "z", "w", "v"), 4)
    assert kept.recall(frozenset({("x",)}), 4) is None
    assert kept.recall(frozenset(), 4) == []
    assert kept.recall(one, 4) is None  # evicted by the empty answer
    # A smaller bound evicts on the next access.
    assert kept.recall(three, 2) is not None
    assert kept.recall(frozenset(), 2) is None


def test_a_name_keeps_at_most_its_fact_count_and_delete_drops_it(
    render_calls,
):
    service = CQAService()
    # 4 R facts and 2 Audit facts: the name holds at most 6 rows.
    rows = [("a0", "b0"), ("a1", "b0"), ("a2", "b1"), ("a3", "b1")]
    service.register_instance("n", _r_instance(rows, audit=2), R_KEY)
    audit = "Q(E) :- Audit(E)"
    cross = "Q(X, Y) :- R(X, Z), R(Y, W)"  # 16 rows: over the bound

    def renders(query):
        before = render_calls["sort"]
        _read(service, "n", query)
        return render_calls["sort"] - before

    def held_rows():
        return service._renderings["n"]._rows  # noqa: SLF001

    assert renders(PROJECTION) == 1  # 4 rows
    assert renders(VALUES_OF_B) == 1  # 2 rows: 6 in all
    assert renders(PROJECTION) == 0  # now the most recently used
    assert renders(audit) == 1  # 2 rows: VALUES_OF_B goes
    assert held_rows() == 6
    assert renders(PROJECTION) == 0 and renders(audit) == 0
    assert renders(VALUES_OF_B) == 1  # PROJECTION was least recent
    assert renders(audit) == 0 and renders(PROJECTION) == 1
    assert renders(cross) == 1 and renders(cross) == 1
    assert held_rows() <= 6

    harness = _ServerHarness(service, ServerConfig(port=0))
    with harness:
        assert harness.request("DELETE", "/v1/db/n")[0] == 200
        assert "n" not in service._renderings  # noqa: SLF001
    service.register_instance("n", _r_instance(rows, audit=2), R_KEY)
    assert renders(PROJECTION) == 1


# -- threads -----------------------------------------------------------


def test_threads_reading_two_names_get_exact_answers():
    service = CQAService()
    # Each name's two answers do not fit its bound together (3 facts;
    # 3 + 2 rows), so its reads alternate keeping one and evicting the
    # other.
    instances = {
        "left": [("l0", "x"), ("l1", "x"), ("l2", "y")],
        "right": [("r0", "u"), ("r1", "v"), ("r2", "v")],
    }
    expected = {}
    for name, rows in instances.items():
        service.register_instance(name, _r_instance(rows), R_KEY)
        expected[name, PROJECTION] = {(a,) for a, _ in rows}
        expected[name, VALUES_OF_B] = {(b,) for _, b in rows}
    reads = sorted(expected)
    failures = []

    def reader(offset):
        try:
            for i in range(300):
                name, query = reads[(offset + i) % len(reads)]
                body = _read(service, name, query)
                answers = expected[name, query]
                if body["answers"] != _reference_lists(answers) or (
                    _json_text(body) != _reference_json(body, answers)
                ):
                    failures.append((name, query, body))
        except Exception as exc:  # noqa: BLE001 — reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=reader, args=(offset,))
            for offset in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:3]
    for name in instances:
        assert service._renderings[name]._rows <= 3  # noqa: SLF001
