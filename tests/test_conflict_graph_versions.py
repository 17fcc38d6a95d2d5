"""One conflict graph per instance version.

:meth:`ConflictHypergraph.of` keeps an instance's conflict hypergraph on
the instance, per constraint tuple, built at most once.  These tests pin
what makes that safe: no derived version inherits a graph (each one
equals a fresh build), a pickle never carries one, and a graph lives
exactly as long as its version, so the service keeps no superseded
version alive for its sake.
"""

import gc
import pickle

from hypothesis import given, settings, strategies as st

from repro.constraints.conflicts import ConflictHypergraph
from repro.dispatch import DispatchPolicy
from repro.logic.parser import parse_denial, parse_fd
from repro.observability.live import live
from repro.relational import Database, Fact, RelationSchema, Schema
from repro.serve.service import CQAService

_SCHEMA = Schema.of(
    RelationSchema("R", ("A", "B")),
    RelationSchema("S", ("C", "D")),
)
#: A key, a binary denial constraint and a ternary one.
SIGMA = (
    parse_fd("R: A -> B"),
    parse_denial(":- R(X, Y), S(Y, X)", name="binary"),
    parse_denial(":- R(X, Y), R(Y, Z), S(Z, W)", name="ternary"),
)

_value = st.integers(0, 3)
_fact = st.one_of(
    st.tuples(_value, _value).map(lambda v: Fact("R", v)),
    st.tuples(_value, _value).map(lambda v: Fact("S", v)),
)
_pick = st.integers(0, 15)
_step = st.one_of(
    st.tuples(st.just("insert"), st.lists(_fact, max_size=3)),
    st.tuples(st.just("delete"), st.lists(_pick, max_size=3)),
    st.tuples(st.just("update"), _pick, st.integers(0, 1), _value),
    st.tuples(st.just("restrict"), st.lists(_pick, max_size=12)),
)


def _derive(db, step):
    tids = sorted(db.tids())
    kind = step[0]
    if kind == "insert":
        return db.insert(step[1])
    if kind == "delete":
        return db.delete_tids(tids[i] for i in step[1] if i < len(tids))
    if kind == "update":
        _, i, position, value = step
        if not tids:
            return db
        return db.update_value(tids[i % len(tids)], position, value)
    return db.restricted_to(tids[i] for i in step[1] if i < len(tids))


@settings(max_examples=200, deadline=None)
@given(st.lists(_fact, max_size=10), st.lists(_step, max_size=6))
def test_a_derived_version_gets_its_own_graph(facts, steps):
    db = Database.from_facts(facts, _SCHEMA)
    for step in steps:
        parent_graph = ConflictHypergraph.of(db, SIGMA)  # fill first
        derived = _derive(db, step)
        assert ConflictHypergraph.of(derived, SIGMA) == (
            ConflictHypergraph.build(derived, SIGMA)
        )
        # The parent's graph stayed its own.
        assert ConflictHypergraph.of(db, SIGMA) is parent_graph
        assert parent_graph == ConflictHypergraph.build(db, SIGMA)
        db = derived


def test_a_graph_is_kept_per_constraint_tuple():
    db = Database.from_facts(
        [Fact("R", (0, 1)), Fact("R", (0, 2)), Fact("S", (1, 0))],
        _SCHEMA,
    )
    keys_only = ConflictHypergraph.of(db, SIGMA[:1])
    everything = ConflictHypergraph.of(db, list(SIGMA))
    assert ConflictHypergraph.of(db, SIGMA[:1]) is keys_only
    assert ConflictHypergraph.of(db, SIGMA) is everything
    assert keys_only == ConflictHypergraph.build(db, SIGMA[:1])
    assert everything == ConflictHypergraph.build(db, SIGMA)
    assert keys_only != everything


def test_pickle_is_byte_identical_after_the_graph_fills():
    db = Database.from_facts(
        [Fact("R", (0, 1)), Fact("R", (0, 2)), Fact("S", (1, 0))],
        _SCHEMA,
    )
    before = pickle.dumps(db)
    graph = ConflictHypergraph.of(db, SIGMA)
    assert graph.edges
    assert pickle.dumps(db) == before
    restored = pickle.loads(before)
    assert ConflictHypergraph.of(restored, SIGMA) == graph
    assert ConflictHypergraph.of(restored, SIGMA) is not graph


def test_the_service_keeps_no_superseded_version():
    """Twenty writes, each followed by an observed read: afterwards
    the one live version of the database is the registry's."""
    marker = Fact("Employee", ("retention-marker", 0))
    service = CQAService(DispatchPolicy())
    spec = {
        "relations": {"Employee": {
            "columns": ["Name", "Salary"],
            "key": ["Name"],
            "rows": [list(marker.values), ["page", 5], ["page", 8]],
        }},
        "constraints": {"fd": ["Employee: Name -> Salary"]},
    }
    with live():
        assert service.register_db("staff", spec)[0] == 200
        for i in range(20):
            status, body, _ = service.handle_mutate(
                "staff", {"insert": [["Employee", f"e{i}", i]]}
            )
            assert status == 200, body
            for query in (
                "Q(X) :- Employee(X, Y)",
                "Q(X) :- Employee(X, Y), Employee(Z, Y)",
            ):
                status, body, _ = service.handle_cqa(
                    {"db": "staff", "query": query}
                )
                assert status == 200 and body["complete"], body
    gc.collect()
    versions = [
        obj for obj in gc.get_objects()
        if isinstance(obj, Database) and marker in obj
    ]
    assert versions == [service._databases["staff"].db]  # noqa: SLF001
