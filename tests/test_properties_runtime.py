"""Property-based tests (hypothesis) for anytime budget truncation.

The contract of every ``*_partial`` API, checked on random instances and
random budgets:

* **soundness** — a budget-truncated result is a subset (prefix) of the
  unbudgeted result; never an element the exact computation would not
  produce;
* **exactness when complete** — ``complete=True`` results are identical
  to the legacy unbudgeted API's output;
* **bracketing** — anytime CQA's fallback value under-approximates the
  exact certain answers, and its ``upper_bound`` detail
  over-approximates them.
"""

from hypothesis import given, settings, strategies as st

from repro.asp import RepairProgram
from repro.constraints import FunctionalDependency
from repro.cqa import consistent_answers, consistent_answers_partial
from repro.logic import atom, cq, vars_
from repro.relational import Database, RelationSchema, Schema
from repro.repairs import c_repairs, c_repairs_partial, s_repairs, s_repairs_partial
from repro.runtime import Budget, BudgetExhaustion

X, Y = vars_("x y")

_KV_SCHEMA = Schema.of(RelationSchema("R", ("K", "V"), key=("K",)))

FD = FunctionalDependency("R", ("K",), ("V",), name="FD")

QUERY = cq([X, Y], [atom("R", X, Y)], name="all")


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


_BUDGET_STEPS = st.integers(min_value=1, max_value=400)


def _diffs(repairs):
    return {frozenset(map(repr, r.diff)) for r in repairs}


# ----------------------------------------------------------------------
# S-repairs
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(kv_databases(), _BUDGET_STEPS)
def test_truncated_s_repairs_are_a_subset(db, steps):
    full = _diffs(s_repairs(db, (FD,)))
    partial = s_repairs_partial(db, (FD,), budget=Budget(max_steps=steps))
    assert _diffs(partial.value) <= full
    if partial.complete:
        assert _diffs(partial.value) == full
    else:
        assert partial.exhausted == BudgetExhaustion.STEPS


@settings(max_examples=40, deadline=None)
@given(kv_databases())
def test_complete_partial_equals_legacy(db):
    legacy = s_repairs(db, (FD,))
    partial = s_repairs_partial(db, (FD,))
    assert partial.complete
    assert partial.exhausted is None
    assert [r.diff for r in partial.value] == [r.diff for r in legacy]


@settings(max_examples=40, deadline=None)
@given(kv_databases(), st.integers(min_value=1, max_value=6))
def test_limit_is_a_count_truncation(db, limit):
    full = s_repairs(db, (FD,))
    partial = s_repairs_partial(db, (FD,), limit=limit)
    assert len(partial.value) == min(limit, len(full))
    if len(full) > limit:
        assert partial.exhausted == BudgetExhaustion.COUNT
        # COUNT truncation is caller-requested, so the legacy API
        # returns the prefix instead of raising.
        assert len(s_repairs(db, (FD,), limit=limit)) == limit
    elif len(full) < limit:
        assert partial.complete
    else:
        # limit == len(full): the enumerator stops at the cap without
        # proving nothing remains, so either outcome is acceptable.
        assert partial.complete or (
            partial.exhausted == BudgetExhaustion.COUNT
        )
    assert _diffs(partial.value) <= _diffs(full)


@settings(max_examples=40, deadline=None)
@given(kv_databases(), _BUDGET_STEPS)
def test_both_engines_truncate_soundly(db, steps):
    for engine in ("hypergraph", "search"):
        full = _diffs(s_repairs(db, (FD,), engine=engine))
        partial = s_repairs_partial(
            db, (FD,), engine=engine, budget=Budget(max_steps=steps)
        )
        assert _diffs(partial.value) <= full


# ----------------------------------------------------------------------
# C-repairs
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(kv_databases(), _BUDGET_STEPS)
def test_c_repairs_complete_results_are_exact(db, steps):
    full = _diffs(c_repairs(db, (FD,)))
    partial = c_repairs_partial(db, (FD,), budget=Budget(max_steps=steps))
    if partial.complete:
        assert _diffs(partial.value) == full
    else:
        # Best-so-far: genuine S-repairs whose size is an upper bound
        # on the C-repair distance.
        from repro.repairs import is_s_repair

        bound = partial.detail.get("distance_bound")
        for repair in partial.value:
            assert is_s_repair(db, repair.instance, (FD,))
            assert repair.size == bound


@settings(max_examples=40, deadline=None)
@given(kv_databases(), st.integers(min_value=1, max_value=4))
def test_c_repairs_limit_keeps_certified_repairs(db, limit):
    full = _diffs(c_repairs(db, (FD,)))
    for engine in ("auto", "filter"):
        partial = c_repairs_partial(db, (FD,), engine=engine, limit=limit)
        assert len(partial.value) == min(limit, len(full))
        assert _diffs(partial.value) <= full
        assert partial.complete == (len(full) <= limit)
        if not partial.complete:
            assert partial.exhausted == BudgetExhaustion.COUNT


# ----------------------------------------------------------------------
# Conflict hypergraph hitting sets
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(kv_databases(), _BUDGET_STEPS)
def test_truncated_hitting_sets_are_sound(db, steps):
    from repro.constraints import ConflictHypergraph
    from repro.constraints.conflicts import _is_minimal_hitting_set

    graph = ConflictHypergraph.build(db, (FD,))
    full = set(graph.minimal_hitting_sets())
    partial = graph.minimal_hitting_sets_partial(
        budget=Budget(max_steps=steps)
    )
    found = set(partial.value)
    assert found <= full
    edges = sorted(graph.edges, key=lambda e: (len(e), sorted(e)))
    for hitting in partial.value:
        if edges:
            assert _is_minimal_hitting_set(hitting, edges)
    if partial.complete:
        assert found == full


@settings(max_examples=40, deadline=None)
@given(kv_databases(), st.integers(min_value=1, max_value=5))
def test_hitting_set_limit_does_bounded_work(db, limit):
    from repro.constraints import ConflictHypergraph

    graph = ConflictHypergraph.build(db, (FD,))
    full = graph.minimal_hitting_sets()
    limited = graph.minimal_hitting_sets(limit=limit)
    assert len(limited) == min(limit, len(full))
    assert set(limited) <= set(full)


# ----------------------------------------------------------------------
# Stable models
# ----------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(kv_databases(), _BUDGET_STEPS)
def test_truncated_stable_models_are_a_subset(db, steps):
    from repro.asp.grounding import ground_program
    from repro.asp.solver import stable_models, stable_models_partial
    from repro.errors import BudgetExceededError

    program = RepairProgram(db, (FD,))
    ground = ground_program(program.program)
    full = set(stable_models(ground))
    try:
        partial = stable_models_partial(
            ground, budget=Budget(max_steps=steps)
        )
    except BudgetExceededError:
        # Exhausted inside grounding-adjacent bookkeeping before the
        # solver boundary could catch: acceptable for strict-less
        # budgets only if raised by a non-anytime layer; solver itself
        # always catches, so reaching here is a failure.
        raise
    assert set(partial.value) <= full
    if partial.complete:
        assert set(partial.value) == full


# ----------------------------------------------------------------------
# Anytime CQA bracketing
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(kv_databases(), _BUDGET_STEPS)
def test_cqa_partial_brackets_exact_answers(db, steps):
    if not db.facts():
        return
    exact = consistent_answers(db, (FD,), QUERY)
    partial = consistent_answers_partial(
        db, (FD,), QUERY, budget=Budget(max_steps=steps)
    )
    if partial.complete:
        assert partial.value == exact
    else:
        # Sound under-approximation ...
        assert partial.value <= exact
        # ... bracketed from above by the prefix intersection.
        upper = partial.detail.get("upper_bound")
        if upper is not None:
            assert exact <= upper
