"""Property-based tests (hypothesis) on the core invariants.

These cover the paper's defining properties over randomly generated
instances: minimality and consistency of repairs, the antichain
structure of S-repair diffs, equality of independent computation paths
(hypergraph vs search, enumeration vs rewriting, repairs vs causes), and
the metric behaviour of the cleaning similarity.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.cleaning import edit_distance
from repro.constraints import (
    ConflictHypergraph,
    DenialConstraint,
    FunctionalDependency,
)
from repro.cqa import consistent_answers, consistent_answers_fm
from repro.logic import atom, cq, vars_
from repro.constraints.base import Violation
from repro.relational import Database, Fact, RelationSchema, Schema
from repro.relational.nulls import NULL, is_null
from repro.repairs import (
    c_repairs,
    count_s_repairs,
    is_s_repair,
    s_repairs,
)

X, Y = vars_("x y")

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

_VALUES = st.sampled_from(["a0", "a1", "a2", "a3"])

_RS_SCHEMA = Schema.of(
    RelationSchema("R", ("A", "B")),
    RelationSchema("S", ("A",)),
)

_KV_SCHEMA = Schema.of(RelationSchema("R", ("K", "V"), key=("K",)))

KAPPA = DenialConstraint(
    (atom("S", X), atom("R", X, Y), atom("S", Y)), name="kappa"
)

FD = FunctionalDependency("R", ("K",), ("V",), name="FD")


@st.composite
def rs_databases(draw):
    r_rows = draw(st.lists(
        st.tuples(_VALUES, _VALUES), min_size=0, max_size=5, unique=True,
    ))
    s_rows = draw(st.lists(
        st.tuples(_VALUES), min_size=0, max_size=4, unique=True,
    ))
    return Database.from_dict(
        {"R": r_rows, "S": s_rows}, schema=_RS_SCHEMA
    )


@st.composite
def kv_databases(draw):
    rows = draw(st.lists(
        st.tuples(
            st.sampled_from(["k0", "k1", "k2"]),
            st.sampled_from(["v0", "v1", "v2"]),
        ),
        min_size=0, max_size=7, unique=True,
    ))
    return Database.from_dict({"R": rows}, schema=_KV_SCHEMA)


# ----------------------------------------------------------------------
# Database invariants
# ----------------------------------------------------------------------


@given(rs_databases())
@settings(max_examples=60, deadline=None)
def test_delete_insert_roundtrip(db):
    facts = sorted(db.facts(), key=repr)
    if not facts:
        return
    target = facts[0]
    removed = db.delete([target])
    assert target not in removed
    restored = removed.insert([target])
    assert restored == db


@given(rs_databases(), rs_databases())
@settings(max_examples=60, deadline=None)
def test_symmetric_difference_symmetry(db1, db2):
    assert db1.symmetric_difference(db2) == db2.symmetric_difference(db1)
    assert db1.distance(db2) == db2.distance(db1)
    assert db1.distance(db1) == 0


@given(rs_databases())
@settings(max_examples=60, deadline=None)
def test_facts_are_set_semantics(db):
    assert len(db.facts()) == len(db)
    doubled = db.insert(db.facts())
    assert doubled == db


_RS_FACTS = st.one_of(
    st.tuples(_VALUES, _VALUES).map(lambda row: Fact("R", row)),
    _VALUES.map(lambda value: Fact("S", (value,))),
)


def _scratch_delete_tids(db, tids):
    """``delete_tids`` through the validating constructor."""
    drop = set(tids)
    kept = {t: f for t, f in db.facts_with_tids().items() if t not in drop}
    return Database(db.schema, kept, db._next_tid)  # noqa: SLF001


def _scratch_insert(db, facts):
    """``insert`` through the validating constructor."""
    combined = db.facts_with_tids()
    present = set(combined.values())
    counter = db._next_tid  # noqa: SLF001
    for f in facts:
        if f not in present:
            present.add(f)
            combined[f"t{counter}"] = f
            counter += 1
    return Database(db.schema, combined, counter)


def _indexes(db):
    """Tids, iteration orders and ``next_tid``: what a derived instance
    must share with one built from scratch.  (No code iterates over
    the relation names of the row index, so their order is free.)"""
    return (
        list(db.facts_with_tids().items()),
        list(db._tid_of.items()),  # noqa: SLF001
        {
            name: list(rows.items())
            for name, rows in db._by_relation.items()  # noqa: SLF001
        },
        db._next_tid,  # noqa: SLF001
    )


@given(
    rs_databases(),
    st.lists(
        st.tuples(
            st.sampled_from(["delete", "delete_tids", "insert"]),
            st.lists(_RS_FACTS, max_size=4),
        ),
        max_size=6,
    ),
)
@settings(max_examples=80, deadline=None)
def test_derived_instances_match_from_scratch_construction(db, steps):
    derived = scratch = db
    for op, facts in steps:
        if op == "insert":
            derived = derived.insert(facts)
            scratch = _scratch_insert(scratch, facts)
        else:
            tids = [scratch.tid_of(f) for f in facts if f in scratch]
            if op == "delete":
                derived = derived.delete(facts)
            else:
                derived = derived.delete_tids(tids + ["t-absent"])
            scratch = _scratch_delete_tids(scratch, tids)
        assert _indexes(derived) == _indexes(scratch)
        assert derived == scratch and hash(derived) == hash(scratch)
        for name in db.schema.names():
            assert derived.relation(name) == scratch.relation(name)


# ----------------------------------------------------------------------
# Repair invariants
# ----------------------------------------------------------------------


@given(rs_databases())
@settings(max_examples=40, deadline=None)
def test_srepairs_consistent_minimal_antichain(db):
    repairs = s_repairs(db, (KAPPA,))
    assert repairs  # deleting everything is always consistent
    for r in repairs:
        assert KAPPA.is_satisfied(r.instance)
        assert r.instance.issubset(db)
        assert is_s_repair(db, r.instance, (KAPPA,))
    for r1, r2 in itertools.combinations(repairs, 2):
        assert not (r1.diff < r2.diff) and not (r2.diff < r1.diff)


@given(rs_databases())
@settings(max_examples=40, deadline=None)
def test_srepair_engines_agree(db):
    via_graph = {r.diff for r in s_repairs(db, (KAPPA,), engine="hypergraph")}
    via_search = {r.diff for r in s_repairs(db, (KAPPA,), engine="search")}
    assert via_graph == via_search


@given(rs_databases())
@settings(max_examples=40, deadline=None)
def test_crepairs_are_minimum_srepairs(db):
    all_s = s_repairs(db, (KAPPA,))
    best = min(r.size for r in all_s)
    expected = {r.diff for r in all_s if r.size == best}
    assert {r.diff for r in c_repairs(db, (KAPPA,))} == expected


@given(rs_databases())
@settings(max_examples=40, deadline=None)
def test_count_matches_enumeration(db):
    assert count_s_repairs(db, (KAPPA,)) == len(s_repairs(db, (KAPPA,)))


@given(kv_databases())
@settings(max_examples=40, deadline=None)
def test_fd_closed_form_count(db):
    assert count_s_repairs(db, (FD,)) == len(s_repairs(db, (FD,)))


@given(rs_databases())
@settings(max_examples=40, deadline=None)
def test_consistent_core_inside_every_repair(db):
    graph = ConflictHypergraph.build(db, (KAPPA,))
    core = {db.fact_by_tid(t) for t in graph.conflict_free_tids()}
    for r in s_repairs(db, (KAPPA,)):
        assert core <= r.instance.facts()


# ----------------------------------------------------------------------
# CQA invariants
# ----------------------------------------------------------------------


@given(kv_databases())
@settings(max_examples=40, deadline=None)
def test_fm_rewriting_equals_enumeration_projection(db):
    if not len(db):
        return
    q = cq([X], [atom("R", X, Y)], name="keys")
    assert consistent_answers_fm(db, (FD,), q) == consistent_answers(
        db, (FD,), q
    )


@given(kv_databases())
@settings(max_examples=40, deadline=None)
def test_fm_rewriting_equals_enumeration_full(db):
    if not len(db):
        return
    q = cq([X, Y], [atom("R", X, Y)], name="full")
    assert consistent_answers_fm(db, (FD,), q) == consistent_answers(
        db, (FD,), q
    )


@given(kv_databases())
@settings(max_examples=40, deadline=None)
def test_certain_answers_hold_in_every_repair(db):
    if not len(db):
        return
    q = cq([X, Y], [atom("R", X, Y)], name="full")
    certain = consistent_answers(db, (FD,), q)
    for r in s_repairs(db, (FD,)):
        assert certain <= q.answers(r.instance)


# ----------------------------------------------------------------------
# Causality invariants
# ----------------------------------------------------------------------


@given(rs_databases())
@settings(max_examples=25, deadline=None)
def test_causes_match_direct_definition(db):
    from repro.causality import actual_causes, actual_causes_direct

    q = cq([], [atom("S", X), atom("R", X, Y), atom("S", Y)], name="Q")
    via_repairs = {
        c.fact: c.responsibility for c in actual_causes(db, q)
    }
    direct = {
        c.fact: c.responsibility for c in actual_causes_direct(db, q)
    }
    assert via_repairs == direct


@given(rs_databases())
@settings(max_examples=25, deadline=None)
def test_attribute_repairs_consistent_and_minimal(db):
    from repro.repairs import attribute_repairs

    repairs = attribute_repairs(db, (KAPPA,))
    for r in repairs:
        assert KAPPA.is_satisfied(r.instance)
    for r1, r2 in itertools.combinations(repairs, 2):
        assert not (r1.changes < r2.changes)
        assert not (r2.changes < r1.changes)


# ----------------------------------------------------------------------
# Hypergraph invariants
# ----------------------------------------------------------------------


@given(rs_databases())
@settings(max_examples=40, deadline=None)
def test_mis_are_complements_of_mhs(db):
    graph = ConflictHypergraph.build(db, (KAPPA,))
    mhs = graph.minimal_hitting_sets()
    mis = graph.maximal_independent_sets()
    assert {graph.nodes - h for h in mhs} == set(mis)
    for independent in mis:
        assert graph.is_independent(independent)


def _recursive_minimal_hitting_sets(graph, limit=None):
    """``minimal_hitting_sets_partial`` as it was, one recursion level
    per covered edge, unbudgeted: the reference for the explicit-stack
    enumerator.  Returns the sets and whether *limit* stopped it."""
    from repro.constraints.conflicts import _is_minimal_hitting_set
    from repro.observability import add

    class Stop(Exception):
        pass

    edges = sorted(graph.edges, key=lambda e: (len(e), sorted(e)))
    if not edges:
        return [frozenset()], False
    candidates, found = set(), []

    def branch(chosen, remaining):
        add("conflicts.hitting_set_branches")
        uncovered = [e for e in remaining if not (e & chosen)]
        if not uncovered:
            hitting = frozenset(chosen)
            if hitting not in candidates:
                candidates.add(hitting)
                if _is_minimal_hitting_set(hitting, edges):
                    found.append(hitting)
                    if limit is not None and len(found) >= limit:
                        raise Stop
            return
        edge = min(uncovered, key=len)
        for vertex in sorted(edge):
            chosen.add(vertex)
            if not any(c <= chosen for c in candidates):
                branch(chosen, uncovered)
            else:
                add("conflicts.superset_pruned")
            chosen.remove(vertex)

    stopped = False
    try:
        branch(set(), edges)
    except Stop:
        stopped = True
    return sorted(found, key=lambda s: (len(s), sorted(s))), stopped


_TIDS = st.sampled_from([f"t{i}" for i in range(1, 9)])


@given(
    st.lists(st.frozensets(_TIDS, min_size=1, max_size=3), max_size=9),
    st.one_of(st.none(), st.integers(1, 6)),
)
@settings(max_examples=300, deadline=None)
def test_explicit_stack_enumerates_like_the_recursion(edges, limit):
    """The same sets in the same order and the same *limit* stop as
    the recursion, which also tried the branches that could only end
    non-minimal: never more branches, so a step budget the recursion
    finished in (one step per branch) is enough."""
    from repro.observability import collect
    from repro.runtime import Budget

    graph = ConflictHypergraph(
        frozenset(tid for edge in edges for tid in edge), frozenset(edges)
    )
    with collect() as reference_run:
        expected, stopped = _recursive_minimal_hitting_sets(graph, limit)
    with collect() as run:
        partial = graph.minimal_hitting_sets_partial(limit=limit)
    assert partial.value == expected
    assert partial.complete == (not stopped)
    branches = reference_run.counter("conflicts.hitting_set_branches")
    assert run.counter("conflicts.hitting_set_branches") <= branches
    budgeted = graph.minimal_hitting_sets_partial(
        limit=limit, budget=Budget(max_steps=branches)
    )
    assert (budgeted.value, budgeted.complete) == (expected, not stopped)


def _rescanned_greedy_size(edges):
    """``_greedy_hitting_size`` as it was: every step recounts the
    degrees of all uncovered edges."""
    uncovered = list(edges)
    chosen = set()
    while uncovered:
        degree = {}
        for e in uncovered:
            for v in e:
                degree[v] = degree.get(v, 0) + 1
        vertex = max(sorted(degree), key=lambda v: degree[v])
        chosen.add(vertex)
        uncovered = [e for e in uncovered if vertex not in e]
    return len(chosen)


def _recursive_minimum_hitting_sets(graph):
    """``minimum_hitting_sets_branch_and_bound`` as it was, one
    recursion level per covered edge: the reference for the
    explicit-stack search.  Budget exhaustion raises the budget's
    error."""
    from repro.observability import add
    from repro.runtime import checkpoint

    edges = sorted(graph.edges, key=lambda e: (len(e), sorted(e)))
    if not edges:
        return [frozenset()]
    best_size = _rescanned_greedy_size(edges)
    solutions = set()

    def branch(chosen, remaining):
        nonlocal best_size
        add("repairs.bb_branches")
        checkpoint()
        uncovered = [e for e in remaining if not (e & chosen)]
        if not uncovered:
            size = len(chosen)
            if size < best_size:
                best_size = size
                solutions.clear()
            if size == best_size:
                solutions.add(frozenset(chosen))
            return
        if len(chosen) + 1 > best_size:
            add("repairs.bb_pruned")
            return
        edge = min(uncovered, key=len)
        for vertex in sorted(edge):
            chosen.add(vertex)
            branch(chosen, uncovered)
            chosen.remove(vertex)

    branch(set(), edges)
    return sorted(solutions, key=sorted)


@given(
    st.lists(st.frozensets(_TIDS, min_size=1, max_size=3), max_size=9),
    st.one_of(st.none(), st.integers(1, 80)),
)
@settings(max_examples=300, deadline=None)
def test_branch_and_bound_searches_like_the_recursion(edges, steps):
    """The same minimum hitting sets in the same order as the
    recursion, with no more branches and no more prunes; under a step
    budget, wherever the recursion finishes the search finishes too,
    and where it finishes alone it finds the same sets."""
    from repro.errors import BudgetExceededError
    from repro.observability import collect
    from repro.repairs import minimum_hitting_sets_branch_and_bound
    from repro.runtime import Budget, use_budget

    graph = ConflictHypergraph(
        frozenset(tid for edge in edges for tid in edge), frozenset(edges)
    )

    def run(search):
        with collect() as collector:
            with use_budget(Budget(max_steps=steps) if steps else None):
                try:
                    outcome = search(graph)
                except BudgetExceededError:
                    outcome = "stopped"
            return outcome, [
                collector.counter(name)
                for name in ("repairs.bb_branches", "repairs.bb_pruned")
            ]

    expected, expected_counts = run(_recursive_minimum_hitting_sets)
    outcome, counts = run(minimum_hitting_sets_branch_and_bound)
    if expected != "stopped":
        assert outcome == expected
        assert all(n <= m for n, m in zip(counts, expected_counts))
    elif outcome != "stopped":
        assert outcome == _recursive_minimum_hitting_sets(graph)


@given(st.lists(st.frozensets(_TIDS, min_size=1, max_size=4), max_size=12))
@settings(max_examples=300, deadline=None)
def test_greedy_bound_is_the_rescanned_one(edges):
    from repro.repairs.product import _greedy_hitting_size

    edges = sorted(set(edges), key=lambda e: (len(e), sorted(e)))
    assert _greedy_hitting_size(edges) == _rescanned_greedy_size(edges)


# ----------------------------------------------------------------------
# Key conflicts: the one-pass scan lists what the sorted scan listed
# ----------------------------------------------------------------------

_MIXED_VALUES = st.one_of(
    st.sampled_from(["a", "b", ""]),
    st.integers(min_value=-1, max_value=2),
    st.floats(min_value=-2, max_value=2, allow_nan=False, width=16),
    st.booleans(),
    st.just(NULL),
)

_ABCD_SCHEMA = Schema.of(RelationSchema("R", ("A", "B", "C", "D")))


def _sorted_scan_violations(fd, db):
    """``FunctionalDependency.violations`` as it was: group every row
    of ``db.relation``, in its sorted order."""
    lhs_pos, rhs_pos = fd._positions(db)
    groups = {}
    for values in db.relation(fd.relation):
        key = tuple(values[p] for p in lhs_pos)
        if any(is_null(v) for v in key):
            continue
        groups.setdefault(key, []).append(Fact(fd.relation, values))
    out = []
    for facts in groups.values():
        if len(facts) < 2:
            continue
        for f1, f2 in itertools.combinations(facts, 2):
            if fd._conflicting(f1, f2, rhs_pos):
                out.append(Violation(fd.name, frozenset((f1, f2))))
    return out


@given(
    st.lists(st.tuples(*[_MIXED_VALUES] * 4), max_size=14),
    st.sampled_from([("A",), ("A", "B")]),
    st.sampled_from([("C",), ("C", "D")]),
)
@settings(max_examples=300, deadline=None)
def test_one_pass_key_conflicts_equal_the_sorted_scan(rows, lhs, rhs):
    db = Database.from_dict({"R": rows}, schema=_ABCD_SCHEMA)
    fd = FunctionalDependency("R", lhs, rhs)
    assert fd.violations(db) == _sorted_scan_violations(fd, db)


# ----------------------------------------------------------------------
# Similarity metric
# ----------------------------------------------------------------------

_WORDS = st.text(alphabet="abcde", max_size=8)


@given(_WORDS, _WORDS)
@settings(max_examples=80, deadline=None)
def test_edit_distance_symmetric(a, b):
    assert edit_distance(a, b) == edit_distance(b, a)
    assert (edit_distance(a, b) == 0) == (a == b)


@given(_WORDS, _WORDS, _WORDS)
@settings(max_examples=80, deadline=None)
def test_edit_distance_triangle(a, b, c):
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)
