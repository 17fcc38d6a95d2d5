"""Differential tests for the component product (hypothesis).

Every repair consumer that reads
:class:`~repro.repairs.product.ComponentProduct` is checked against the
whole-graph form it replaced, kept here as the reference: on small
denial-class instances (two keys and one denial constraint across them)
the S-repair count, the C-repair distance, the C-repairs and their
``limit`` prefix, one C-repair, the maintained C-repairs and the
attribute repairs must equal what the whole conflict graph gives, and
every repair the product builds must be an S-repair.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.constraints import ConflictHypergraph
from repro.constraints.conflicts import _is_minimal_hitting_set
from repro.cqa import consistent_answers, overapproximate_answers
from repro.errors import SplitDeclinedError
from repro.logic import atom, cq, vars_
from repro.logic.parser import parse_denial, parse_fd
from repro.relational import Database, RelationSchema, Schema
from repro.relational.nulls import NULL
from repro.repairs import (
    ComponentProduct,
    IncrementalRepairer,
    attribute_repairs,
    attribute_repairs_partial,
    c_repairs,
    c_repairs_partial,
    count_fd_repairs,
    count_repairs_per_group,
    count_s_repairs,
    is_c_repair,
    is_s_repair,
    minimum_hitting_sets_branch_and_bound,
    one_c_repair,
    repair_distance,
)
from repro.runtime import Budget, BudgetExhaustion

from .test_properties import KAPPA, rs_databases

X, Y = vars_("x y")

_SCHEMA = Schema.of(
    RelationSchema("R", ("A", "B")),
    RelationSchema("S", ("B", "C")),
)

#: Keys on both relations plus a denial constraint joining them, so a
#: component can span both relations and hold a non-key edge.
SIGMA = (
    parse_fd("R: A -> B"),
    parse_fd("S: B -> C"),
    parse_denial(":- R(X, Y), S(Y, X)"),
)

_A = st.sampled_from(["a0", "a1", "a2", "b0"])
_B = st.sampled_from(["b0", "b1", "b2", "a0"])


@st.composite
def instances(draw):
    r_rows = draw(st.lists(st.tuples(_A, _B), max_size=7, unique=True))
    s_rows = draw(st.lists(st.tuples(_B, _A), max_size=5, unique=True))
    return Database.from_dict({"R": r_rows, "S": s_rows}, schema=_SCHEMA)


def _diffs(repairs):
    return [r.diff for r in repairs]


@settings(max_examples=80, deadline=None)
@given(instances())
def test_counts_distance_and_c_repairs_equal_the_whole_graph(db):
    graph = ConflictHypergraph.build(db, SIGMA)
    assert count_s_repairs(db, SIGMA) == len(graph.minimal_hitting_sets())
    minimum = minimum_hitting_sets_branch_and_bound(graph)
    assert repair_distance(db, SIGMA) == len(minimum[0])
    full = c_repairs(db, SIGMA)
    assert _diffs(full) == _diffs(c_repairs(db, SIGMA, engine="filter"))
    # The product's first repair is the whole graph's first minimum set.
    assert one_c_repair(db, SIGMA).deleted_tids == minimum[0]
    assert _diffs(IncrementalRepairer(db, SIGMA).c_repairs()) == (
        _diffs(full)
    )
    for repair in full:
        assert is_c_repair(db, repair.instance, SIGMA)


@settings(max_examples=60, deadline=None)
@given(instances(), st.integers(min_value=1, max_value=5))
def test_a_limit_keeps_that_many_certified_c_repairs(db, limit):
    full = _diffs(c_repairs(db, SIGMA, engine="filter"))
    partial = c_repairs_partial(db, SIGMA, limit=limit)
    assert len(partial.value) == min(limit, len(full))
    assert set(_diffs(partial.value)) <= set(full)
    assert partial.complete == (len(full) <= limit)
    if not partial.complete:
        assert partial.exhausted == BudgetExhaustion.COUNT


@settings(max_examples=60, deadline=None)
@given(instances(), st.integers(min_value=1, max_value=60))
def test_a_cut_c_repair_run_returns_certified_or_one_s_repair(db, steps):
    full = set(_diffs(c_repairs(db, SIGMA)))
    partial = c_repairs_partial(db, SIGMA, budget=Budget(max_steps=steps))
    if partial.complete:
        assert set(_diffs(partial.value)) == full
        return
    bound = partial.detail["distance_bound"]
    if set(_diffs(partial.value)) <= full:
        assert partial.value == [] or bound == repair_distance(db, SIGMA)
    else:
        # Nothing certified was built: one S-repair of greedy parts.
        [repair] = partial.value
        assert is_s_repair(db, repair.instance, SIGMA)
        assert repair.size == bound


@settings(max_examples=60, deadline=None)
@given(instances(), st.integers(min_value=0, max_value=8))
def test_every_sampled_repair_is_an_s_repair(db, start):
    product = ComponentProduct(db, SIGMA)
    repair = product.greedy_repair(start)
    assert is_s_repair(db, repair.instance, SIGMA)
    assert is_s_repair(db, product.best_so_far().instance, SIGMA)
    query = cq([X], [atom("R", X, Y)])
    upper = overapproximate_answers(db, SIGMA, query, sample_size=3)
    assert consistent_answers(db, SIGMA, query) <= upper


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["k0", "k1"]),
            st.sampled_from(["v0", "v1", NULL]),
            st.sampled_from(["w0", "w1"]),
        ),
        max_size=6, unique=True,
    ),
    st.sampled_from(["T: K -> V, W", "T: K -> V"]),
)
def test_the_null_fallback_counts_like_the_whole_graph(rows, spec):
    """A NULL beside a value in a two-attribute right-hand side leaves
    the closed form for the product; a NULL as the one right-hand-side
    value keeps its row in every repair.  Wherever the FD's split
    answers, the per-group counts multiply to the count."""
    schema = Schema.of(RelationSchema("T", ("K", "V", "W")))
    db = Database.from_dict({"T": rows}, schema=schema)
    fd = parse_fd(spec)
    graph = ConflictHypergraph.build(db, (fd,))
    count = count_fd_repairs(db, fd)
    assert count == len(graph.minimal_hitting_sets())
    try:
        per_group = count_repairs_per_group(db, fd)
    except SplitDeclinedError:
        assert len(fd.rhs) > 1
    else:
        assert math.prod(n for _, n in per_group) == count


# ----------------------------------------------------------------------
# Attribute repairs: the recursive search they used to run
# ----------------------------------------------------------------------


def _recursive_change_sets(sets, limit=None):
    """``attribute._minimal_hitting_sets`` as it was: a recursion over
    the candidate-position sets, sorted, with superset pruning and the
    private-edge check.  Returns the sets and whether *limit* stopped
    it."""

    class Stop(Exception):
        pass

    if not sets:
        return [frozenset()], False
    candidates, found = set(), []

    def branch(chosen, remaining):
        uncovered = [s for s in remaining if not (s & chosen)]
        if not uncovered:
            hitting = frozenset(chosen)
            if hitting not in candidates:
                candidates.add(hitting)
                if _is_minimal_hitting_set(hitting, sets):
                    found.append(hitting)
                    if limit is not None and len(found) >= limit:
                        raise Stop
            return
        for position in sorted(min(uncovered, key=len)):
            chosen.add(position)
            if not any(r <= chosen for r in candidates):
                branch(chosen, uncovered)
            chosen.remove(position)

    stopped = False
    try:
        branch(set(), sets)
    except Stop:
        stopped = True
    return sorted(found, key=lambda s: (len(s), sorted(s))), stopped


@settings(max_examples=80, deadline=None)
@given(rs_databases(), st.one_of(st.none(), st.integers(1, 4)))
def test_attribute_repairs_search_like_the_recursion(db, limit):
    from repro.repairs.attribute import _violation_candidates

    candidates = _violation_candidates(db, (KAPPA,))
    partial = attribute_repairs_partial(db, (KAPPA,), limit=limit)
    if candidates is None:
        assert partial.value == []
        return
    expected, stopped = _recursive_change_sets(
        sorted(candidates.edges, key=sorted), limit
    )

    def labels(changes):
        return len(changes), [f"{t}[{p + 1}]" for t, p in sorted(changes)]

    assert [r.changes for r in partial.value] == sorted(expected, key=labels)
    assert partial.complete == (not stopped)
    if limit is None:
        assert [r.changes for r in attribute_repairs(db, (KAPPA,))] == [
            r.changes for r in partial.value
        ]
