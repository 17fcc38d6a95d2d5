"""Tests for the resilient multi-engine CQA dispatcher.

Covers the breaker state machine (with a fake clock), typed
applicability errors, ladder fallback under injected faults, subprocess
isolation with watchdog kill, shadow cross-checking, the budget-capped
retry backoff, and the CLI front-end.  The invariant under test
throughout: the dispatcher may degrade (INCOMPLETE) or refuse
(DispatchError), but it never returns a wrong answer.
"""

import random
import sqlite3

import pytest

from repro.constraints.conflicts import ConflictHypergraph
from repro.cqa import consistent_answers, fuxman_miller_rewrite
from repro.cqa.local import consistent_answers_local
from repro.cqa.rewriting import fo_rewrite
from repro.cqa.sqlgen import query_to_sql
from repro.dispatch import (
    BreakerState,
    CircuitBreaker,
    CQARequest,
    DEFAULT_LADDER,
    DispatchError,
    DispatchPolicy,
    Dispatcher,
    EngineInapplicableError,
    applicable_engines,
    dispatch_cqa,
    get_engine,
    run_isolated,
)
from repro.dispatch.worker import WorkerTimeoutError
from repro.errors import (
    BudgetExceededError,
    NotRewritableError,
    ReproError,
    RewritingError,
)
from repro.constraints import TupleGeneratingDependency, denial_class_only
from repro.logic import atom, cq, vars_
from repro.logic.parser import parse_denial, parse_fd, parse_query
from repro.observability import collect
from repro.relational import Database, RelationSchema, Schema
from repro.relational.sqlbridge import to_sqlite
from repro.runtime import Budget, FaultPlan, inject, use_budget
from repro.runtime.retry import retry_transient
from repro.errors import TransientBackendError
from repro.workloads import employee, employee_key_violations, rs_instance

X, Y, Z = vars_("x y z")


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# ----------------------------------------------------------------------
# Circuit breaker state machine
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def test_stays_closed_below_threshold(self):
        b = CircuitBreaker("e", failure_threshold=3, clock=FakeClock())
        b.record_failure()
        b.record_failure()
        assert b.state() is BreakerState.CLOSED
        assert b.allows()

    def test_trips_open_at_threshold(self):
        b = CircuitBreaker("e", failure_threshold=3, clock=FakeClock())
        for _ in range(3):
            b.record_failure()
        assert b.state() is BreakerState.OPEN
        assert not b.allows()
        assert b.trips == 1

    def test_success_resets_consecutive_count(self):
        b = CircuitBreaker("e", failure_threshold=3, clock=FakeClock())
        b.record_failure()
        b.record_failure()
        b.record_success()
        b.record_failure()
        b.record_failure()
        assert b.state() is BreakerState.CLOSED

    def test_half_open_after_cooldown_allows_one_probe(self):
        clock = FakeClock()
        b = CircuitBreaker(
            "e", failure_threshold=1, cooldown_s=30.0, clock=clock
        )
        b.record_failure()
        assert not b.allows()
        clock.advance(29.0)
        assert not b.allows()
        clock.advance(1.0)
        assert b.state() is BreakerState.HALF_OPEN
        assert b.allows()       # the single probe
        assert not b.allows()   # probe in flight: everyone else waits

    def test_probe_success_closes(self):
        clock = FakeClock()
        b = CircuitBreaker(
            "e", failure_threshold=1, cooldown_s=5.0, clock=clock
        )
        b.record_failure()
        clock.advance(5.0)
        assert b.allows()
        b.record_success()
        assert b.state() is BreakerState.CLOSED
        assert b.allows()

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        clock = FakeClock()
        b = CircuitBreaker(
            "e", failure_threshold=1, cooldown_s=5.0, clock=clock
        )
        b.record_failure()
        clock.advance(5.0)
        assert b.allows()
        b.record_failure()
        assert b.state() is BreakerState.OPEN
        clock.advance(4.9)
        assert not b.allows()
        clock.advance(0.1)
        assert b.allows()

    def test_half_open_admits_exactly_one_probe_across_threads(self):
        # The serving layer hits a shared breaker from many handler
        # threads at once; check-state + claim-probe must be atomic or
        # a just-cooled breaker lets a thundering herd through.
        import threading

        clock = FakeClock()
        b = CircuitBreaker(
            "e", failure_threshold=1, cooldown_s=5.0, clock=clock
        )
        b.record_failure()
        clock.advance(5.0)  # cooled: next allows() promotes to HALF_OPEN
        n = 16
        barrier = threading.Barrier(n)
        admitted = []

        def contender():
            barrier.wait()
            if b.allows():
                admitted.append(threading.get_ident())

        threads = [
            threading.Thread(target=contender) for _ in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(admitted) == 1
        assert b.state() is BreakerState.HALF_OPEN
        # The winning probe reports back; everyone is admitted again.
        b.record_success()
        assert b.state() is BreakerState.CLOSED

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker("e", failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("e", cooldown_s=-1.0)


# ----------------------------------------------------------------------
# Typed applicability errors (satellite: NotRewritableError)
# ----------------------------------------------------------------------


class TestNotRewritable:
    def test_is_typed_subclass(self):
        assert issubclass(NotRewritableError, RewritingError)
        assert issubclass(NotRewritableError, ReproError)

    def test_fuxman_miller_raises_on_non_key_constraints(self):
        scenario = rs_instance()
        q = cq([X], [atom("S", X)], name="q")
        with pytest.raises(NotRewritableError):
            fuxman_miller_rewrite(q, scenario.constraints, scenario.db)

    def test_fo_rewrite_raises_on_existential_head_tgd(self):
        # An inclusion dependency whose target has extra attributes
        # turns into a tgd with existential head variables — no
        # universal clausal form, so residue rewriting must refuse.
        from repro.constraints import InclusionDependency
        from repro.workloads import supply_articles

        scenario = supply_articles()
        reverse = InclusionDependency(
            "Articles", ("Item",), "Supply", ("Item",), name="rev"
        )
        with pytest.raises(NotRewritableError):
            fo_rewrite(
                cq([X], [atom("Articles", X)], name="q"),
                (reverse,),
                scenario.db,
            )

    def test_applicability_never_penalizes_breakers(self):
        # A BCQ with existential variables under a denial constraint:
        # both rewriting rungs are inapplicable, local serves it.
        scenario = rs_instance()
        d = Dispatcher(DispatchPolicy())
        result = d.dispatch(
            scenario.db, scenario.constraints, scenario.queries["Q"]
        )
        assert result.provenance.engine == "local"
        statuses = {
            o.engine: o.status for o in result.provenance.rungs
        }
        assert statuses["fm-sql"] == "inapplicable"
        assert statuses["fo-mem"] == "inapplicable"
        assert all(b.failures == 0 for b in d.breakers.values())


# ----------------------------------------------------------------------
# Engines agree where applicable
# ----------------------------------------------------------------------


class TestEngines:
    def test_applicable_engines_on_paper_example(self):
        scenario = employee()
        request = CQARequest(
            scenario.db, scenario.constraints, scenario.queries["Q2"]
        )
        names = applicable_engines(request)
        assert names[0] == "fm-sql"
        assert "enumerate" in names and "certain-core" in names

    @pytest.mark.parametrize("qname", ["Q1", "Q2"])
    def test_every_exact_engine_matches_reference(self, qname):
        scenario = employee()
        query = scenario.queries[qname]
        ref = consistent_answers(
            scenario.db, scenario.constraints, query
        )
        request = CQARequest(scenario.db, scenario.constraints, query)
        for name in applicable_engines(request):
            engine = get_engine(name)
            answer = engine.run(request)
            if engine.exact:
                assert answer.complete
                assert answer.answers == ref, name
            else:
                assert answer.answers <= ref, name

    def test_semantics_validation(self):
        scenario = employee()
        with pytest.raises(ValueError):
            CQARequest(
                scenario.db, scenario.constraints,
                scenario.queries["Q1"], semantics="majority",
            )

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            get_engine("quantum")
        with pytest.raises(ValueError):
            DispatchPolicy(ladder=("quantum",))


# ----------------------------------------------------------------------
# Ladder fallback under injected faults
# ----------------------------------------------------------------------


class TestFallback:
    def test_sqlite_outage_falls_to_fo_mem(self):
        scenario = employee()
        query = scenario.queries["Q2"]
        ref = consistent_answers(
            scenario.db, scenario.constraints, query
        )
        with collect() as collector:
            with inject(FaultPlan(seed=3, sqlite_failure_rate=1.0)):
                result = dispatch_cqa(
                    scenario.db, scenario.constraints, query
                )
        assert result.complete
        assert result.answers == ref
        assert result.provenance.engine == "fo-mem"
        assert result.provenance.rungs[0].engine == "fm-sql"
        assert result.provenance.rungs[0].status == "failed"
        assert collector.counter("dispatch.fallbacks") >= 1

    def test_breaker_skips_dead_engine_on_later_requests(self):
        scenario = employee()
        query = scenario.queries["Q1"]
        d = Dispatcher(DispatchPolicy(failure_threshold=2))
        with inject(FaultPlan(seed=5, sqlite_failure_rate=1.0)):
            for _ in range(2):
                d.dispatch(scenario.db, scenario.constraints, query)
            result = d.dispatch(
                scenario.db, scenario.constraints, query
            )
        assert result.provenance.rungs[0].status == "breaker-open"
        assert result.provenance.engine == "fo-mem"

    def test_all_exact_engines_starved_yields_sound_incomplete(self):
        scenario = employee_key_violations(3, 2, 2, seed=4)
        query = scenario.queries["all"]
        ref = consistent_answers(
            scenario.db, scenario.constraints, query
        )
        policy = DispatchPolicy(
            ladder=("asp", "enumerate", "certain-core")
        )
        with inject(FaultPlan(seed=1, starve_steps_after=5)):
            result = dispatch_cqa(
                scenario.db, scenario.constraints, query, policy=policy
            )
        assert not result.complete
        assert result.provenance.engine == "certain-core"
        assert result.answers <= ref
        upper = result.detail.get("upper_bound")
        assert upper is not None and ref <= upper
        failed = [
            o for o in result.provenance.rungs if o.status == "failed"
        ]
        assert {o.engine for o in failed} == {"asp", "enumerate"}

    def test_a_cut_enumerate_rung_builds_no_bracket(self, monkeypatch):
        """The rung raises on a repair prefix: intersecting the prefix
        and the certain core would only be thrown away (the final rung
        brackets)."""
        import repro.cqa.approximation
        import repro.cqa.certain

        calls = []
        for module, name in (
            (repro.cqa.certain, "intersect_answers"),
            (repro.cqa.approximation, "underapproximate_answers"),
        ):
            real = getattr(module, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        scenario = employee_key_violations(3, 6, 2, seed=4)
        request = CQARequest(
            scenario.db, scenario.constraints, scenario.queries["all"]
        )
        with use_budget(Budget(max_steps=20)):
            with pytest.raises(BudgetExceededError) as info:
                get_engine("enumerate").run(request)
        assert "did not finish inside the rung budget (steps)" in str(
            info.value
        )
        assert calls == []

    def test_unservable_request_raises_dispatch_error(self):
        # A BCQ on non-key constraints with a rewriting-only ladder:
        # nothing applies, and the error says so per rung.
        scenario = rs_instance()
        policy = DispatchPolicy(ladder=("fm-sql", "fo-mem"))
        with pytest.raises(DispatchError, match="inapplicable"):
            dispatch_cqa(
                scenario.db, scenario.constraints,
                scenario.queries["Q"], policy=policy,
            )

    def test_request_budget_is_sliced_over_rungs(self):
        scenario = employee()
        query = scenario.queries["Q1"]
        d = Dispatcher(DispatchPolicy())
        request = CQARequest(scenario.db, scenario.constraints, query)
        budget = Budget(timeout=8.0)
        budget.start()
        applicable = d._applicability(request)
        slice_s = d._slice(request, budget, applicable, 0)
        # 4 exact applicable rungs share the 8s deadline.
        assert slice_s is not None and slice_s <= 2.1
        tail = d._slice(request, budget, applicable, 3)
        assert tail is not None and slice_s < tail <= 8.0


# ----------------------------------------------------------------------
# Residue scope of fo-mem, the local rung, and certain-core under "c"
# ----------------------------------------------------------------------

_RS = Schema.of(
    RelationSchema("R", ("A", "B")),
    RelationSchema("S", ("B", "C")),
    RelationSchema("T", ("A", "C")),
)


def _rs(r=(), s=(), t=()):
    return Database.from_dict(
        {"R": list(r), "S": list(s), "T": list(t)}, schema=_RS
    )


#: Requests the residue-rewritten query answers wrongly, each with its
#: Cons(Q, D, Σ).
RESIDUE_OUT_OF_SCOPE = {
    # three database literals
    "ternary-dc": (
        _rs([("a", 2)], [(2, "a")]),
        [parse_denial(":- R(X, Y), S(Y, Z), R(Z, X)")],
        "Q(X, Y, Z) :- R(X, Y), S(Y, Z)",
        {("a", 2, "a")},
    ),
    # one tuple violates the DC on its own
    "one-tuple-dc": (
        _rs([(2, 1), (2, 2)]),
        [parse_fd("R: A -> B"), parse_denial(":- R(X, X)")],
        "Q(X, Y) :- R(X, Y)",
        {(2, 1)},
    ),
    # the DC's two atoms unify with no disequality to stop them
    "symmetric-dc": (
        _rs([(1, "b"), (1, 1)]),
        [parse_fd("R: A -> B"), parse_denial(":- R(X, Y), R(Y, X)")],
        "Q(X, Y) :- R(X, Y)",
        {(1, "b")},
    ),
    # an order comparison over values that do not compare
    "order-dc": (
        _rs([("b", 2), (2, "b")]),
        [
            parse_denial(":- R(X, Y), R(Y, X), X < Y"),
            parse_fd("S: B -> C"),
        ],
        "Q(X, Y) :- R(X, Y)",
        {("b", 2), (2, "b")},
    ),
    # the same, with atoms no single tuple matches both of
    "order-dc-two-relations": (
        _rs([("b", 2)], [(2, "a")]),
        [parse_denial(":- R(X, Y), S(Y, Z), X < Y")],
        "Q(X, Y) :- R(X, Y)",
        {("b", 2)},
    ),
    # three literals in a tgd: the residue answers [(1, 'a')]
    "ternary-tgd": (
        _rs([(1, "a")], [("a", "b")], [(1, 1)]),
        [
            TupleGeneratingDependency(
                (atom("R", X, Y), atom("S", Y, Z)), (atom("T", X, Z),)
            )
        ],
        "Q(X, Y) :- R(X, Y)",
        set(),
    ),
}


class TestResidueScope:
    @pytest.mark.parametrize("case", sorted(RESIDUE_OUT_OF_SCOPE))
    def test_out_of_scope_falls_through_to_an_exact_answer(self, case):
        db, constraints, text, expected = RESIDUE_OUT_OF_SCOPE[case]
        query = parse_query(text)
        assert consistent_answers(db, constraints, query) == expected
        with pytest.raises(NotRewritableError):
            get_engine("fo-mem").check(
                CQARequest(db, constraints, query)
            )
        result = dispatch_cqa(db, constraints, query)
        assert result.complete
        assert result.answers == expected
        assert result.provenance.engine == (
            "local" if denial_class_only(constraints) else "enumerate"
        )

    def test_binary_constraints_keep_the_residue_plan(self):
        db = _rs([("b", 1), ("b", 2), ("a", 1)], [(1, "b")])
        constraints = [
            parse_fd("R: A -> B"),
            parse_denial(":- R(X, Y), S(Y, X)"),
        ]
        query = parse_query("Q(X, Y) :- R(X, Y)")
        request = CQARequest(db, constraints, query)
        engine = get_engine("fo-mem")
        assert engine._plan(request) == "residue"
        assert engine.run(request).answers == consistent_answers(
            db, constraints, query
        )


class TestCertainCoreUnderC:
    def test_no_upper_bound_from_s_repairs_under_c(self):
        # {R('b', 1)} is an S-repair but not a C-repair: deleting
        # R('b', 1) alone beats deleting R('b', 2) and S(1, 'b').
        db = _rs([("b", 1), ("b", 2)], [(1, "b")])
        constraints = [
            parse_fd("R: A -> B"),
            parse_fd("S: B -> C"),
            parse_denial(":- R(X, Y), S(Y, X)"),
        ]
        query = parse_query("Q(X, Y) :- R(X, Y)")
        ref = consistent_answers(db, constraints, query, semantics="c")
        assert ref == {("b", 2)}
        request = CQARequest(db, constraints, query, "c")
        answer = get_engine("certain-core").run(request)
        assert answer.answers <= ref
        assert "upper_bound" not in answer.detail
        for name in ("local", "enumerate"):
            assert get_engine(name).run(request).answers == ref, name
        s_answer = get_engine("certain-core").run(
            CQARequest(db, constraints, query, "s")
        )
        assert s_answer.detail["upper_bound"] >= consistent_answers(
            db, constraints, query
        )


def _keyed_join(keys, violating, seed=1):
    """``R(A, B)`` and ``S(B, C)``, keyed on their first column, one
    row per key plus a rival for *violating* keys of each relation: so
    ``2 * violating`` disjoint conflicts, and ``R.B`` draws from the
    keys of ``S``, so the join is dense."""
    rng = random.Random(seed)

    def keyed(prefix, values):
        first = {f"{prefix}{i}": rng.choice(values) for i in range(keys)}
        rows = list(first.items())
        for key in rng.sample(sorted(first), violating):
            rows.append(
                (key, rng.choice([v for v in values if v != first[key]]))
            )
        return rows

    schema = Schema.of(
        RelationSchema("R", ("A", "B"), key=("A",)),
        RelationSchema("S", ("B", "C"), key=("B",)),
    )
    db = Database.from_dict({
        "R": keyed("a", [f"b{i}" for i in range(keys)]),
        "S": keyed("b", [f"c{i}" for i in range(keys // 4)]),
    }, schema=schema)
    return db, (parse_fd("R: A -> B"), parse_fd("S: B -> C"))


def _path(tuples):
    """*tuples* facts of ``R(A, B)`` under ``R: A -> B`` and
    ``R: B -> A``, each conflicting with the next: ``(a0, b0)``,
    ``(a0, b1)``, ``(a1, b1)``, ...  One conflict component, a path, so
    no per-component split makes it small."""
    rows = [(f"a{i // 2}", f"b{(i + 1) // 2}") for i in range(tuples)]
    schema = Schema.of(RelationSchema("R", ("A", "B")))
    db = Database.from_dict({"R": rows}, schema=schema)
    return db, (parse_fd("R: A -> B"), parse_fd("R: B -> A"))


class TestOneLongComponent:
    """``_path(24)``: one component of 24 tuples with 816 S-repairs.
    The hitting-set search prunes a branch once a chosen tuple has no
    private conflict, so it follows no branch that can only end
    non-minimal."""

    def test_the_first_minimal_and_the_minimum_sets_come_within_a_second(
        self,
    ):
        from repro.repairs import minimum_hitting_sets_branch_and_bound

        db, constraints = _path(24)
        graph = ConflictHypergraph.build(db, constraints)
        first = graph.minimal_hitting_sets_partial(
            limit=1, budget=Budget(timeout=1.0)
        )
        assert len(first.value) == 1
        assert not first.hit_resource_limit
        with use_budget(Budget(timeout=1.0, strict=True)):
            minimum = minimum_hitting_sets_branch_and_bound(graph)
        assert len(minimum) == 13 and {len(s) for s in minimum} == {12}

    def test_a_default_ladder_read_is_answered_by_local(self):
        db, constraints = _path(24)
        result = Dispatcher().dispatch(
            db, constraints, parse_query("Q(X) :- R(X, Y)"),
            budget=Budget(timeout=5.0),
        )
        assert result.complete and result.provenance.engine == "local"
        assert result.answers == {("a0",), ("a11",)}


class TestCertainCoreAtScale:
    def test_the_salvage_rung_answers_a_thousand_disjoint_conflicts(
        self, monkeypatch
    ):
        """1,100 disjoint conflicts: the S-repair sample's enumerator
        covers one edge per stack frame, so it used to die of
        RecursionError under "s" and "delete-only"."""
        db, constraints = _keyed_join(5500, 550)
        query = parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)")
        builds = []
        real_build = ConflictHypergraph.build

        def counting_build(db, constraints):
            builds.append(db)
            return real_build(db, constraints)

        monkeypatch.setattr(
            ConflictHypergraph, "build", staticmethod(counting_build)
        )
        dispatcher = Dispatcher(DispatchPolicy(ladder=("certain-core",)))
        for semantics in ("s", "c", "delete-only"):
            result = dispatcher.dispatch(
                db, constraints, query, semantics=semantics
            )
            assert not result.complete
            cons = consistent_answers_local(
                db, constraints, query, semantics=semantics
            )
            assert result.answers <= cons
            upper = result.detail.get("upper_bound")
            assert (upper is None) == (semantics == "c")
            if upper is not None:
                assert cons <= upper
        assert len(builds) == 1  # the version's one graph

    def test_the_bracket_sample_searches_no_hitting_set(self):
        """The sample keeps greedy kept sets: one pass per component,
        no hitting-set search (a sample of the whole graph's first
        minimal hitting sets took longer than ``local``'s exact
        answer)."""
        db, constraints = _keyed_join(5500, 550)
        query = parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)")
        dispatcher = Dispatcher(DispatchPolicy(ladder=("certain-core",)))
        with collect() as collector:
            result = dispatcher.dispatch(db, constraints, query)
        assert not result.complete and "upper_bound" in result.detail
        assert collector.counter("conflicts.hitting_set_branches") == 0
        assert collector.counter("repairs.s_emitted") == 4


class TestJoinSqlAtScale:
    #: SQLite VM instructions per fact.  The key indexes take about 42
    #: on this instance; scanning a table per correlated subquery took
    #: about 43,000 (524M in all, 3.4 s).
    INSTRUCTIONS_PER_FACT = 100

    def test_the_join_rewriting_runs_in_linear_sqlite_work(self):
        """fm-sql's join correlates its NOT EXISTS subqueries on key
        columns, so each must search the key's index: the statement is
        aborted past a budget linear in the instance."""
        db, constraints = _keyed_join(5500, 550)
        rewritten = fuxman_miller_rewrite(
            parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)"), constraints, db
        )
        sql, params = query_to_sql(rewritten, db.schema)
        budget = self.INSTRUCTIONS_PER_FACT * len(db)
        step = 1000
        spent = 0

        def progress():
            nonlocal spent
            spent += step
            return spent > budget  # true aborts the statement

        conn = to_sqlite(db)
        try:
            conn.set_progress_handler(progress, step)
            try:
                rows = conn.execute(sql, params).fetchall()
            except sqlite3.OperationalError:
                pytest.fail(f"the join ran past {budget} VM instructions")
        finally:
            conn.close()
        assert frozenset(rows) == rewritten.answers(db)


SELF_JOIN = parse_query("Q(X) :- Employee(X, Y), Employee(Z, Y)")


class TestLocalRung:
    def test_default_ladder_serves_the_self_join_locally(self):
        scenario = employee_key_violations(3, 3, 2, seed=4)
        ref = consistent_answers(
            scenario.db, scenario.constraints, SELF_JOIN
        )
        result = dispatch_cqa(scenario.db, scenario.constraints, SELF_JOIN)
        assert result.complete and result.answers == ref
        assert result.provenance.engine == "local"

    @pytest.mark.parametrize("semantics", ["s", "c", "delete-only"])
    def test_matches_reference(self, semantics):
        scenario = rs_instance()
        query = scenario.queries["Q"]
        request = CQARequest(
            scenario.db, scenario.constraints, query, semantics
        )
        ref = consistent_answers(
            scenario.db, scenario.constraints, query, semantics=semantics
        )
        assert get_engine("local").run(request).answers == ref

    def test_check_declines_non_denial_constraints_and_fo_queries(self):
        from repro.constraints import InclusionDependency
        from repro.logic.queries import Query

        scenario = employee()
        ind = InclusionDependency(
            "Employee", ("Name",), "Employee", ("Salary",), name="ind"
        )
        engine = get_engine("local")
        with pytest.raises(EngineInapplicableError):
            engine.check(CQARequest(
                scenario.db, (ind,), scenario.queries["Q1"]
            ))
        generic = Query((X,), atom("Employee", X, Y))
        with pytest.raises(EngineInapplicableError):
            engine.check(CQARequest(
                scenario.db, scenario.constraints, generic
            ))

    def test_starved_request_fails_local_and_salvages_soundly(
        self, monkeypatch
    ):
        from repro.constraints.conflicts import ConflictHypergraph
        from repro.cqa import local

        # One conflicting key group among forty clean names: the graph
        # build takes few checkpoints, the self-join over 42 facts at
        # least 42 bindings, and the search over the one component
        # only a few steps, so the budget runs out among the bindings.
        scenario = employee_key_violations(40, 1, 2, seed=4)
        ref = consistent_answers(
            scenario.db, scenario.constraints, SELF_JOIN
        )
        with inject(FaultPlan(seed=1)) as counting, use_budget(Budget()):
            ConflictHypergraph.build(scenario.db, scenario.constraints)
        assert counting.checkpoints_seen > 0
        phases = []
        original = local._candidates

        def candidates(*args):
            phases.append("witnesses")
            found = original(*args)
            phases.append("search")
            return found

        monkeypatch.setattr(local, "_candidates", candidates)
        d = Dispatcher(DispatchPolicy())
        starve = counting.checkpoints_seen + 3
        with inject(FaultPlan(seed=1, starve_steps_after=starve)):
            result = d.dispatch(
                scenario.db, scenario.constraints, SELF_JOIN
            )
        assert phases == ["witnesses"]
        outcomes = {o.engine: o for o in result.provenance.rungs}
        assert outcomes["local"].status == "failed"
        assert "BudgetExceededError" in outcomes["local"].reason
        # The request's own budget ran out: no engine fault to charge.
        assert d.breakers["local"].failures == 0
        assert not result.complete
        assert result.provenance.engine == "certain-core"
        assert result.answers <= ref
        upper = result.detail.get("upper_bound")
        assert upper is not None and ref <= upper


# ----------------------------------------------------------------------
# Subprocess isolation
# ----------------------------------------------------------------------


class TestIsolation:
    def test_round_trip(self):
        scenario = employee()
        query = scenario.queries["Q2"]
        ref = consistent_answers(
            scenario.db, scenario.constraints, query
        )
        request = CQARequest(scenario.db, scenario.constraints, query)
        answer = run_isolated("fm-sql", request, watchdog_s=30.0)
        assert answer.complete
        assert answer.answers == ref

    def test_typed_errors_survive_marshalling(self):
        scenario = rs_instance()
        request = CQARequest(
            scenario.db, scenario.constraints, scenario.queries["Q"]
        )
        with pytest.raises(NotRewritableError):
            run_isolated("fm-sql", request, watchdog_s=30.0)

    def test_watchdog_kills_wedged_worker(self):
        scenario = employee()
        request = CQARequest(
            scenario.db, scenario.constraints, scenario.queries["Q1"]
        )
        with collect() as collector:
            with pytest.raises(WorkerTimeoutError):
                run_isolated(
                    "fm-sql", request, watchdog_s=0.1, wedge_s=60.0
                )
            assert collector.counter("dispatch.worker_kills") == 1

    def test_dispatcher_survives_wedged_isolated_rung(self):
        scenario = employee()
        query = scenario.queries["Q1"]
        ref = consistent_answers(
            scenario.db, scenario.constraints, query
        )
        d = Dispatcher(DispatchPolicy(isolate=("fm-sql",)))
        original = d._run_rung

        def wedge_fm(request, name, slice_s, wedge_s=None):
            if name == "fm-sql":
                return original(request, name, 0.05, wedge_s=60.0)
            return original(request, name, slice_s, wedge_s=wedge_s)

        d._run_rung = wedge_fm
        result = d.dispatch(scenario.db, scenario.constraints, query)
        assert result.complete and result.answers == ref
        assert result.provenance.engine == "fo-mem"
        assert result.provenance.rungs[0].status == "failed"
        assert "watchdog" in result.provenance.rungs[0].reason

    def test_child_main_in_process(self, tmp_path):
        import io
        import pickle

        from repro.dispatch.worker import child_main

        scenario = employee()
        request = CQARequest(
            scenario.db, scenario.constraints, scenario.queries["Q1"]
        )
        job = pickle.dumps({"engine": "fo-mem", "request": request})
        out = io.BytesIO()
        assert child_main(io.BytesIO(job), out) == 0
        result = pickle.loads(out.getvalue())
        assert result["ok"] and result["complete"]


# ----------------------------------------------------------------------
# Shadow cross-checking
# ----------------------------------------------------------------------


class TestShadow:
    def test_shadow_agreement_on_paper_example(self):
        scenario = employee()
        d = Dispatcher(DispatchPolicy(shadow_rate=1.0))
        with collect() as collector:
            result = d.dispatch(
                scenario.db, scenario.constraints,
                scenario.queries["Q2"],
            )
            assert result.provenance.shadow is not None
            assert result.provenance.shadow.agreed is True
            assert result.provenance.shadow.engine != (
                result.provenance.engine
            )
            assert collector.counter("dispatch.shadow_runs") == 1
            assert collector.counter(
                "dispatch.shadow_disagreements"
            ) == 0

    def test_shadow_disagreement_is_counted(self, monkeypatch):
        from repro.dispatch import engines as engines_mod
        from repro.dispatch.engines import EngineAnswer

        scenario = employee()
        monkeypatch.setattr(
            type(engines_mod.ENGINES["fo-mem"]),
            "run",
            lambda self, request: EngineAnswer(frozenset(), True),
        )
        d = Dispatcher(DispatchPolicy(shadow_rate=1.0))
        with collect() as collector:
            result = d.dispatch(
                scenario.db, scenario.constraints,
                scenario.queries["Q2"],
            )
            assert result.provenance.shadow.agreed is False
            assert collector.counter(
                "dispatch.shadow_disagreements"
            ) == 1

    def test_shadow_sampling_is_seeded(self):
        scenario = employee()

        def shadowed(seed):
            d = Dispatcher(
                DispatchPolicy(shadow_rate=0.5, shadow_seed=seed)
            )
            hits = []
            for _ in range(8):
                r = d.dispatch(
                    scenario.db, scenario.constraints,
                    scenario.queries["Q1"],
                )
                hits.append(r.provenance.shadow is not None)
            return hits

        assert shadowed(7) == shadowed(7)
        assert any(shadowed(7)) and not all(shadowed(7))


# ----------------------------------------------------------------------
# Budget-capped, jittered retry backoff (satellite)
# ----------------------------------------------------------------------


class TestRetryBackoff:
    def _delays(self, expect=TransientBackendError, **kwargs):
        sleeps = []

        def flaky():
            raise TransientBackendError("down")

        with pytest.raises(expect):
            retry_transient(
                flaky, sleep=sleeps.append, **kwargs
            )
        return sleeps

    def test_jitter_is_deterministic_per_seed(self):
        a = self._delays(jitter_seed=1)
        b = self._delays(jitter_seed=1)
        c = self._delays(jitter_seed=2)
        assert a == b
        assert a != c

    def test_jitter_stays_within_band(self):
        sleeps = self._delays(
            jitter_seed=9, base_delay=0.1, factor=1.0, max_delay=0.1
        )
        assert len(sleeps) == 3
        for s in sleeps:
            assert 0.075 <= s <= 0.125

    def test_deadline_shorter_than_backoff_raises_immediately(self):
        # Nominal backoff of 5s per retry, but only ~0.5s of wall time
        # left: sleeping would overshoot the deadline, so the transient
        # error must be re-raised immediately with zero sleeps (PR 8).
        budget = Budget(timeout=1000.0)
        budget.start()
        budget._deadline = budget._clock() + 0.5
        with use_budget(budget):
            sleeps = self._delays(
                jitter_seed=0, base_delay=5.0, max_delay=5.0
            )
        assert sleeps == []

    def test_ample_deadline_still_sleeps_full_backoff(self):
        # With hours of wall time left the fail-fast path must not
        # trigger: the full jittered schedule runs as before.
        budget = Budget(timeout=1000.0)
        budget.start()
        with use_budget(budget):
            sleeps = self._delays(
                jitter_seed=0, base_delay=0.01, max_delay=0.25
            )
        assert len(sleeps) == 3

    def test_expired_budget_aborts_backoff_without_sleeping(self):
        # remaining_time() is clamped at 0 and the pre-sleep checkpoint
        # raises; either way the loop must never sleep (time.sleep would
        # reject a negative duration) once the deadline has passed.
        from repro.errors import BudgetExceededError

        budget = Budget(timeout=1000.0)
        budget.start()
        budget._deadline = budget._clock() - 1.0
        with use_budget(budget):
            sleeps = self._delays(
                expect=(TransientBackendError, BudgetExceededError),
                jitter_seed=0, attempts=2,
            )
        assert sleeps == []


# ----------------------------------------------------------------------
# CLI front-end
# ----------------------------------------------------------------------


class TestDispatchCli:
    @pytest.fixture
    def employee_csv(self, tmp_path):
        path = tmp_path / "emp.csv"
        path.write_text(
            "Name,Salary\npage,5K\npage,8K\nsmith,3K\nstowe,7K\n"
        )
        return str(path)

    def test_happy_path_with_provenance(self, employee_csv, capsys):
        from repro.cli import main

        rc = main([
            "dispatch", "--csv", f"Employee={employee_csv}",
            "--fd", "Employee: Name -> Salary",
            "--query", "Q(X) :- Employee(X, Y)",
            "--provenance",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "page" in captured.out
        assert "via fm-sql" in captured.err
        assert "fm-sql: ok" in captured.err

    def test_forced_sqlite_failure_routes_to_lower_rung(
        self, employee_csv, capsys
    ):
        from repro.cli import main

        rc = main([
            "dispatch", "--csv", f"Employee={employee_csv}",
            "--fd", "Employee: Name -> Salary",
            "--query", "Q(X, Y) :- Employee(X, Y)",
            "--provenance", "--fault-sqlite-rate", "1.0",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "smith,3K" in captured.out
        assert "page" not in captured.out
        assert "via fo-mem" in captured.err
        assert "fm-sql: failed" in captured.err

    def test_total_outage_degrades_to_incomplete(
        self, employee_csv, capsys
    ):
        from repro.cli import main

        rc = main([
            "dispatch", "--csv", f"Employee={employee_csv}",
            "--fd", "Employee: Name -> Salary",
            "--query", "Q(X, Y) :- Employee(X, Y)",
            "--engine", "asp", "--engine", "enumerate",
            "--engine", "certain-core",
            "--fault-starve-after", "5",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "INCOMPLETE" in captured.err
        assert "certain-core" in captured.err
        # sound: only the conflict-free tuples may be printed
        assert "page" not in captured.out

    def test_unservable_is_a_clean_error_not_a_traceback(
        self, employee_csv, capsys
    ):
        from repro.cli import main

        rc = main([
            "dispatch", "--csv", f"Employee={employee_csv}",
            "--fd", "Employee: Name -> Salary",
            "--query", "Q(X) :- Employee(X, Y), Employee(Y, X)",
            "--engine", "fm-sql", "--engine", "fo-mem",
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error:" in captured.err
        assert "Traceback" not in captured.err
