"""One conflict graph per instance version.

:meth:`ConflictHypergraph.of` keeps an instance's conflict hypergraph on
the instance, per constraint tuple, made at most once: a version derived
by ``insert`` or ``delete_tids`` advances the graph of its nearest read
ancestor by the delta between them, any other version builds.  These
tests pin what makes that safe: every version's graph equals a fresh
build, also when deltas compose through versions nobody read; an
advance builds nothing; a pickle never carries a graph; and a graph
lives exactly as long as its version, so the service keeps no
superseded version alive for its sake.
"""

import gc
import pickle
from contextlib import contextmanager

from hypothesis import given, settings, strategies as st

from repro.constraints.cfd import (
    WILDCARD,
    ConditionalFunctionalDependency,
    PatternTuple,
)
from repro.constraints.conflicts import ConflictHypergraph
from repro.dispatch import DispatchPolicy
from repro.logic.parser import parse_denial, parse_fd
from repro.observability.live import live
from repro.relational import Database, Fact, RelationSchema, Schema
from repro.relational.database import SMALL_DELTA
from repro.relational.nulls import NULL
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


# ----------------------------------------------------------------------
# Advancing a read ancestor's graph by a chain of writes
# ----------------------------------------------------------------------

_WIDE = Schema.of(
    RelationSchema("R", ("A", "B")),
    RelationSchema("S", ("C", "D")),
    RelationSchema("T", ("E", "F", "G")),
    RelationSchema("Audit", ("Id", "Note")),  # no constraint mentions it
)
#: SIGMA plus a key of two attributes: every kind here has a rule.
WIDE_SIGMA = SIGMA + (parse_fd("T: E, F -> G"),)
#: A CFD has no rule for facts it gains: the rebuild path.
CFD = ConditionalFunctionalDependency(
    "S", ("C",), ("D",),
    (PatternTuple((WILDCARD,), (WILDCARD,)), PatternTuple((0,), (1,))),
    name="cfd",
)

#: One NaN object, as json.loads returns one for every ``NaN``: a
#: key or FD groups it by identity, the row index never.
NAN = float("nan")
#: ``None`` is a plain value; the NULL marker joins nothing.
_wide_value = st.sampled_from([0, 1, 2, None, NULL, NAN])
_wide_fact = st.one_of(
    st.tuples(_wide_value, _wide_value).map(lambda v: Fact("R", v)),
    st.tuples(_wide_value, _wide_value).map(lambda v: Fact("S", v)),
    st.tuples(_wide_value, _wide_value, _wide_value).map(
        lambda v: Fact("T", v)
    ),
    st.tuples(_wide_value, _wide_value).map(lambda v: Fact("Audit", v)),
)
#: (read the new version?, write); at most 8 x 3 facts, within
#: SMALL_DELTA however the writes compose.
_write = st.tuples(
    st.booleans(),
    st.one_of(
        st.tuples(st.just("insert"), st.lists(_wide_fact, max_size=3)),
        st.tuples(
            st.just("delete"), st.lists(st.integers(0, 20), max_size=3)
        ),
    ),
)


@contextmanager
def _counting_builds():
    """Count calls to ``ConflictHypergraph.build`` in the block."""
    calls = []
    real = ConflictHypergraph.build

    def counting(db, constraints):
        calls.append(db)
        return real(db, constraints)

    ConflictHypergraph.build = staticmethod(counting)
    try:
        yield calls
    finally:
        ConflictHypergraph.build = staticmethod(real)


def _nan_keyed(f):
    """Whether *f* holds the NaN on a key's left-hand side, where an
    advance cannot find its rivals and the version builds instead."""
    lhs = {"R": f.values[:1], "T": f.values[:2]}.get(f.relation, ())
    return any(v is NAN for v in lhs)


def _write_to(db, write):
    kind, arg = write
    if kind == "insert":
        return db.insert(arg)
    tids = sorted(db.tids())
    return db.delete_tids(tids[i] for i in arg if i < len(tids))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_wide_fact, max_size=12),
    st.lists(_write, max_size=8),
    st.booleans(),
)
def test_every_version_advanced_through_unread_ones_equals_a_build(
    facts, writes, with_cfd
):
    assert 8 * 3 <= SMALL_DELTA
    sigma = WIDE_SIGMA + ((CFD,) if with_cfd else ())
    db = Database.from_facts(facts, _WIDE)
    versions = [db]
    with _counting_builds() as builds:
        ConflictHypergraph.of(db, sigma)
        assert len(builds) == 1
        for read, write in writes:
            db = _write_to(db, write)
            versions.append(db)
            if read:
                ConflictHypergraph.of(db, sigma)
        # The unread versions last, newest first.
        graphs = [ConflictHypergraph.of(v, sigma) for v in versions[::-1]]
    nan_keyed = any(
        kind == "insert" and any(_nan_keyed(f) for f in arg)
        for _, (kind, arg) in writes
    )
    if not (with_cfd or nan_keyed):
        assert len(builds) == 1  # every later graph was advanced
    for version, graph in zip(versions[::-1], graphs):
        built = ConflictHypergraph.build(version, sigma)
        assert graph == built
        assert graph.shape_stats() == built.shape_stats()
        assert graph.components() == built.components()


def _keyed(*extra):
    return Database.from_facts(
        [Fact("R", (0, 1)), Fact("R", (0, 2)), Fact("S", (1, 0)), *extra],
        _WIDE,
    )


def test_a_write_no_constraint_reads_keeps_the_edges_and_stats():
    parent = _keyed()
    graph = ConflictHypergraph.of(parent, WIDE_SIGMA)
    stats = graph.shape_stats()
    child = parent.insert([Fact("Audit", ("w1", "op 1"))])
    with _counting_builds() as builds:
        advanced = ConflictHypergraph.of(child, WIDE_SIGMA)
    assert builds == []
    assert advanced.edges is graph.edges
    assert advanced.nodes == frozenset(child.tids())
    assert advanced.shape_stats() == dict(stats, nodes=stats["nodes"] + 1)
    assert advanced == ConflictHypergraph.build(child, WIDE_SIGMA)


def test_a_write_to_a_constrained_relation_advances_its_edges():
    parent = _keyed()
    ConflictHypergraph.of(parent, WIDE_SIGMA)
    children = (
        parent.insert([Fact("R", (0, 3))]),  # a new rival in a key group
        parent.delete([Fact("R", (0, 2))]),  # an edge goes with its tid
        parent.insert([Fact("S", (3, 0))]),  # a new join for the DCs
    )
    with _counting_builds() as builds:
        graphs = [ConflictHypergraph.of(c, WIDE_SIGMA) for c in children]
    assert builds == []
    for child, graph in zip(children, graphs):
        assert graph == ConflictHypergraph.build(child, WIDE_SIGMA)


def test_a_rival_with_a_nan_key_is_found_by_a_build():
    parent = _keyed(Fact("R", (NAN, 1)))
    ConflictHypergraph.of(parent, WIDE_SIGMA)
    child = parent.insert([Fact("R", (NAN, 2))])
    with _counting_builds() as builds:
        graph = ConflictHypergraph.of(child, WIDE_SIGMA)
    assert len(builds) == 1
    rivals = frozenset(
        child.tid_of(Fact("R", (NAN, b))) for b in (1, 2)
    )
    assert rivals in graph.edges
    assert graph == ConflictHypergraph.build(child, WIDE_SIGMA)


def test_a_delta_past_the_bound_builds():
    parent = _keyed()
    ConflictHypergraph.of(parent, WIDE_SIGMA)
    child = parent.insert(
        Fact("Audit", (f"w{i}", "op")) for i in range(SMALL_DELTA + 1)
    )
    with _counting_builds() as builds:
        graph = ConflictHypergraph.of(child, WIDE_SIGMA)
    assert len(builds) == 1
    assert graph == ConflictHypergraph.build(child, WIDE_SIGMA)


def test_a_delta_that_changes_nothing_derives_nothing():
    db = _keyed(Fact("Audit", ("w0", "op 0")))
    graph = ConflictHypergraph.of(db, WIDE_SIGMA)
    before = pickle.dumps(db)
    present = Fact("R", (0, 1))
    absent = Fact("R", (9, 9))
    for same in (
        db.insert([]),
        db.insert([present, present]),
        db.delete([]),
        db.delete([absent]),
        db.delete_tids([]),
        db.delete_tids(["t999"]),
    ):
        assert same is db
        assert pickle.dumps(same) == before
        assert ConflictHypergraph.of(same, WIDE_SIGMA) is graph


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
