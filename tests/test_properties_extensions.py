"""Property-based tests (hypothesis) for the extension modules."""

import itertools

from hypothesis import example, given, settings, strategies as st

from repro.constraints import ConflictHypergraph, DenialConstraint, FunctionalDependency
from repro.cqa import (
    AggregateQuery,
    fd_range_count_star,
    fd_range_max,
    fd_range_min,
    fd_range_sum,
    range_consistent_answer,
)
from repro.errors import SplitDeclinedError
from repro.logic import Var, atom, cq, vars_
from repro.probabilistic import (
    DirtyDatabase,
    clean_answers,
    clean_answers_single_atom,
    world_probabilities,
)
from repro.relational import Database, RelationSchema, Schema
from repro.relational.nulls import NULL, is_null
from repro.repairs import (
    IncrementalRepairer,
    PriorityRelation,
    count_fd_repairs,
    globally_optimal_repairs,
    pareto_optimal_repairs,
    s_repairs,
)

X, Y = vars_("x y")

_KV_SCHEMA = Schema.of(RelationSchema("R", ("K", "V"), key=("K",)))
FD = FunctionalDependency("R", ("K",), ("V",), name="key")
_KVW_SCHEMA = Schema.of(RelationSchema("R", ("K", "V", "W"), key=("K",)))
FD_WIDE = FunctionalDependency("R", ("K",), ("V", "W"), name="key")


def _or_null(values):
    return st.one_of(values, st.just(NULL))


@st.composite
def numeric_kv_databases(draw):
    rows = draw(st.lists(
        st.tuples(
            _or_null(st.sampled_from(["k0", "k1", "k2"])),
            _or_null(st.integers(min_value=-20, max_value=20)),
        ),
        min_size=1, max_size=7, unique=True,
    ))
    return Database.from_dict({"R": rows}, schema=_KV_SCHEMA)


@st.composite
def wide_kvw_databases(draw):
    """A two-attribute right-hand side, where a NULL beside a value
    agrees with two rows that disagree: the split may decline."""
    rows = draw(st.lists(
        st.tuples(
            _or_null(st.sampled_from(["k0", "k1"])),
            _or_null(st.integers(min_value=-3, max_value=3)),
            _or_null(st.integers(min_value=-3, max_value=3)),
        ),
        min_size=1, max_size=6, unique=True,
    ))
    return Database.from_dict({"R": rows}, schema=_KVW_SCHEMA)


#: (instance, its FD): one right-hand-side attribute or two.
instances = st.one_of(
    numeric_kv_databases().map(lambda db: (db, FD)),
    wide_kvw_databases().map(lambda db: (db, FD_WIDE)),
)


def _intransitive(db, fd):
    """Does a row of some left-hand-side value agree with two rows
    that conflict?  Rows with a NULL left-hand side or an all-NULL
    right-hand side conflict with nothing and are left out."""
    rel = db.schema.relation("R")
    lhs, rhs = rel.positions(fd.lhs), rel.positions(fd.rhs)

    def conflict(u, v):
        return any(
            not is_null(u[p]) and not is_null(v[p]) and u[p] != v[p]
            for p in rhs
        )

    groups = {}
    for row in db.relation("R"):
        key = tuple(row[p] for p in lhs)
        if not any(map(is_null, key)) and not all(
            is_null(row[p]) for p in rhs
        ):
            groups.setdefault(key, []).append(row)
    return any(
        conflict(x, z) and not conflict(x, y) and not conflict(y, z)
        for rows in groups.values()
        for x, y, z in itertools.permutations(rows, 3)
    )


def _shortcut(db, fd, call):
    """*call*'s answer, or None where the FD's split declined, which
    only a right-hand side of two or more attributes may do, where a
    row agrees with two rows that conflict."""
    try:
        return call()
    except SplitDeclinedError as exc:
        assert len(fd.rhs) > 1 and "NULL" in str(exc)
        assert _intransitive(db, fd)
        return None


def _rows_query(db, repeat=False):
    """``Q(X, Y) :- R(X, Y, ...)`` over all of R's attributes, or with
    *repeat* the self-join ``Q(X) :- R(X, X, ...)``, which a NULL
    never satisfies."""
    arity = db.schema.relation("R").arity
    rest = [Var(f"u{i}") for i in range(arity - 2)]
    if repeat:
        return cq([X], [atom("R", X, X, *rest)], name="equal")
    return cq([X, Y], [atom("R", X, Y, *rest)], name="rows")


@given(instances)
@settings(max_examples=60, deadline=None)
# No repair keeps a value: SUM is NULL, not 0.
@example(instance=(
    Database.from_dict({"R": [("k0", NULL)]}, schema=_KV_SCHEMA), FD
))
def test_aggregate_closed_forms_match_enumeration(instance):
    db, fd = instance
    pairs = [
        (lambda: fd_range_sum(db, fd, "V"), AggregateQuery("R", "sum", "V")),
        (lambda: fd_range_count_star(db, fd), AggregateQuery("R", "count")),
        (lambda: fd_range_min(db, fd, "V"), AggregateQuery("R", "min", "V")),
        (lambda: fd_range_max(db, fd, "V"), AggregateQuery("R", "max", "V")),
    ]
    for call, query in pairs:
        fast = _shortcut(db, fd, call)
        if fast is not None:
            exact = range_consistent_answer(db, (fd,), query)
            assert (fast.glb, fast.lub) == (exact.glb, exact.lub)


@given(instances)
@settings(max_examples=40, deadline=None)
def test_aggregate_range_brackets_every_repair(instance):
    db, fd = instance
    for function, attribute in (("sum", "V"), ("min", "V"), ("max", "V")):
        query = AggregateQuery("R", function, attribute)
        bracket = range_consistent_answer(db, (fd,), query)
        for r in s_repairs(db, (fd,)):
            value = query.evaluate(r.instance)
            if value is not None:
                assert bracket.glb <= value <= bracket.lub


@given(instances)
@settings(max_examples=40, deadline=None)
def test_world_probabilities_sum_to_one(instance):
    db, fd = instance
    worlds = _shortcut(
        db, fd, lambda: world_probabilities(DirtyDatabase(db, fd))
    )
    if worlds is None:
        return
    assert abs(sum(p for _, p in worlds) - 1.0) < 1e-9
    srepair_sets = {
        r.instance.facts() for r in s_repairs(db, (fd,))
    }
    assert {w.facts() for w, _ in worlds} == srepair_sets
    assert len(worlds) == len(srepair_sets) == count_fd_repairs(db, fd)


@given(instances)
@settings(max_examples=40, deadline=None)
def test_clean_answer_paths_agree(instance):
    db, fd = instance
    dirty = DirtyDatabase(db, fd)
    for q in (_rows_query(db), _rows_query(db, repeat=True)):
        exact = _shortcut(db, fd, lambda: dict(clean_answers(dirty, q)))
        fast = _shortcut(
            db, fd, lambda: dict(clean_answers_single_atom(dirty, q))
        )
        assert (exact is None) == (fast is None)
        if exact is None:
            return
        assert set(exact) == set(fast)
        for row in exact:
            assert abs(exact[row] - fast[row]) < 1e-9


@given(instances)
@settings(max_examples=30, deadline=None)
def test_certain_answers_have_probability_one(instance):
    from repro.cqa import consistent_answers

    db, fd = instance
    dirty = DirtyDatabase(db, fd)
    q = _rows_query(db)
    probs = _shortcut(db, fd, lambda: dict(clean_answers(dirty, q)))
    if probs is None:
        return
    for row in consistent_answers(db, (fd,), q):
        assert abs(probs[row] - 1.0) < 1e-9


@given(numeric_kv_databases())
@settings(max_examples=25, deadline=None)
def test_preferred_repair_containments(db):
    priority = PriorityRelation.from_score(
        db, lambda f: 0.0 if is_null(f.values[1]) else float(f.values[1])
    )
    s_diffs = {r.diff for r in s_repairs(db, (FD,))}
    pareto = {r.diff for r in pareto_optimal_repairs(db, (FD,), priority)}
    global_ = {
        r.diff for r in globally_optimal_repairs(db, (FD,), priority)
    }
    assert global_ <= pareto <= s_diffs
    assert global_  # some repair is always preferred


@given(
    numeric_kv_databases(),
    st.lists(
        st.tuples(
            st.sampled_from(["k0", "k1", "k3"]),
            st.integers(min_value=-5, max_value=5),
        ),
        min_size=1, max_size=4,
    ),
)
@settings(max_examples=25, deadline=None)
def test_incremental_matches_batch(db, updates):
    from repro.relational import Fact

    repairer = IncrementalRepairer(db, (FD,))
    for key, value in updates:
        f = Fact("R", (key, value))
        if f in repairer.database:
            repairer.delete([f])
        else:
            repairer.insert([f])
    expected = ConflictHypergraph.build(repairer.database, (FD,))
    assert repairer.graph.edges == expected.edges
    assert {r.instance.facts() for r in repairer.s_repairs()} == {
        r.instance.facts()
        for r in s_repairs(repairer.database, (FD,))
    }
