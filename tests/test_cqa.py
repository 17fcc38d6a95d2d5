"""Tests for consistent query answering: all four computation paths."""

import pytest

from repro.cqa import (
    answer_frequencies,
    answers_via_sql,
    approximation_gap,
    certain_core,
    consistent_answers,
    consistent_answers_by_rewriting,
    consistent_answers_fm,
    fo_rewrite,
    fuxman_miller_rewrite,
    is_consistently_true,
    is_possibly_true,
    overapproximate_answers,
    query_to_sql,
    underapproximate_answers,
)
from repro.constraints import FunctionalDependency
from repro.errors import RewritingError
from repro.logic import atom, boolean_query, cq, neq, vars_
from repro.relational import Database, RelationSchema, Schema
from repro.workloads import (
    employee,
    employee_key_violations,
    random_fd_instance,
    rs_instance,
    supply_articles,
)

X, Y, Z, W = vars_("x y z w")


class TestExample32:
    """Example 3.2: Cons(Q, D, {ID}) = {I1, I2}."""

    def setup_method(self):
        self.scenario = supply_articles()

    def test_certain_answers(self):
        answers = consistent_answers(
            self.scenario.db,
            self.scenario.constraints,
            self.scenario.queries["Q"],
        )
        assert answers == {("I1",), ("I2",)}

    def test_rewriting_matches(self):
        # Example 2.2: the residue rewriting evaluated on the original
        # instance returns the same answers.
        answers = consistent_answers_by_rewriting(
            self.scenario.db,
            self.scenario.constraints,
            self.scenario.queries["Q"],
        )
        assert answers == {("I1",), ("I2",)}

    def test_rewriting_produces_articles_residue(self):
        rewritten = fo_rewrite(
            self.scenario.queries["Q"],
            self.scenario.constraints,
            self.scenario.db,
        )
        predicates = {a.predicate for a in rewritten.body.atoms()}
        assert predicates == {"Supply", "Articles"}


class TestExample34:
    """Examples 3.3/3.4: key constraint, both queries, all paths."""

    def setup_method(self):
        self.scenario = employee()

    def test_full_query_certain(self):
        answers = consistent_answers(
            self.scenario.db,
            self.scenario.constraints,
            self.scenario.queries["Q1"],
        )
        assert answers == {("smith", "3K"), ("stowe", "7K")}

    def test_projection_query_certain(self):
        answers = consistent_answers(
            self.scenario.db,
            self.scenario.constraints,
            self.scenario.queries["Q2"],
        )
        assert answers == {("smith",), ("stowe",), ("page",)}

    def test_residue_rewriting_q1(self):
        answers = consistent_answers_by_rewriting(
            self.scenario.db,
            self.scenario.constraints,
            self.scenario.queries["Q1"],
        )
        assert answers == {("smith", "3K"), ("stowe", "7K")}

    def test_fm_rewriting_both_queries(self):
        for name, expected in [
            ("Q1", {("smith", "3K"), ("stowe", "7K")}),
            ("Q2", {("smith",), ("stowe",), ("page",)}),
        ]:
            answers = consistent_answers_fm(
                self.scenario.db,
                self.scenario.constraints,
                self.scenario.queries[name],
            )
            assert answers == expected, name

    def test_sql_path_matches_paper_sql(self):
        rewritten = fuxman_miller_rewrite(
            self.scenario.queries["Q1"],
            self.scenario.constraints,
            self.scenario.db,
        )
        sql, params = query_to_sql(rewritten, self.scenario.db.schema)
        assert "NOT" in sql and "EXISTS" in sql and params == ()
        answers = answers_via_sql(self.scenario.db, rewritten)
        assert answers == {("smith", "3K"), ("stowe", "7K")}

    def test_sql_path_projection(self):
        rewritten = fuxman_miller_rewrite(
            self.scenario.queries["Q2"],
            self.scenario.constraints,
            self.scenario.db,
        )
        answers = answers_via_sql(self.scenario.db, rewritten)
        assert answers == {("smith",), ("stowe",), ("page",)}


class TestBooleanCQA:
    def test_consistently_true_and_possible(self):
        scenario = rs_instance()
        q_true = boolean_query([atom("S", "a2")])
        q_kappa = scenario.queries["Q"]
        assert is_consistently_true(
            scenario.db, scenario.constraints, q_true
        )
        # The DC body is false in every repair by construction.
        assert not is_consistently_true(
            scenario.db, scenario.constraints, q_kappa
        )
        assert not is_possibly_true(
            scenario.db, scenario.constraints, q_kappa
        )
        q_some = boolean_query([atom("S", "a3")])
        assert is_possibly_true(scenario.db, scenario.constraints, q_some)
        assert not is_consistently_true(
            scenario.db, scenario.constraints, q_some
        )

    def test_answer_frequencies(self):
        scenario = employee()
        freqs = dict(
            answer_frequencies(
                scenario.db,
                scenario.constraints,
                scenario.queries["Q1"],
            )
        )
        assert freqs[("smith", "3K")] == 1.0
        assert freqs[("page", "5K")] == 0.5
        assert freqs[("page", "8K")] == 0.5

    def test_unknown_semantics_rejected(self):
        scenario = employee()
        with pytest.raises(ValueError):
            consistent_answers(
                scenario.db, scenario.constraints,
                scenario.queries["Q1"], semantics="zeta",
            )


class TestFuxmanMillerClass:
    def test_join_query(self):
        # R(x, y) joins nonkey y into the key of S(y, z).
        schema = Schema.of(
            RelationSchema("R", ("K", "V"), key=("K",)),
            RelationSchema("S", ("K", "V"), key=("K",)),
        )
        db = Database.from_dict(
            {
                "R": [("r1", "s1"), ("r1", "s2"), ("r2", "s1")],
                "S": [("s1", "ok"), ("s2", "ok")],
            },
            schema=schema,
        )
        fds = (
            FunctionalDependency("R", ("K",), ("V",), name="keyR"),
            FunctionalDependency("S", ("K",), ("V",), name="keyS"),
        )
        q = cq([X], [atom("R", X, Y), atom("S", Y, Z)], name="join")
        expected = consistent_answers(db, fds, q)
        got = consistent_answers_fm(db, fds, q)
        assert got == expected
        # r1's two candidate tuples both reach some S tuple, so r1 is
        # a certain answer even though its S target differs per repair.
        assert ("r1",) in got

    def test_self_join_rejected(self):
        scenario = employee()
        q = cq([X], [atom("Employee", X, Y), atom("Employee", Y, Z)])
        with pytest.raises(RewritingError):
            fuxman_miller_rewrite(
                q, scenario.constraints, scenario.db
            )

    def test_nonkey_nonkey_join_rejected(self):
        schema = Schema.of(
            RelationSchema("R", ("K", "V"), key=("K",)),
            RelationSchema("S", ("K", "V"), key=("K",)),
        )
        db = Database.from_dict(
            {"R": [("a", "b")], "S": [("c", "b")]}, schema=schema
        )
        fds = (
            FunctionalDependency("R", ("K",), ("V",)),
            FunctionalDependency("S", ("K",), ("V",)),
        )
        q = cq([X], [atom("R", X, Y), atom("S", Z, Y)])
        with pytest.raises(RewritingError):
            fuxman_miller_rewrite(q, fds, db)

    def test_non_key_fd_rejected(self):
        db = Database.from_dict({"R": [("a", "b", "c")]})
        fd = FunctionalDependency("R", ("a0",), ("a1",))
        q = cq([X], [atom("R", X, Y, Z)])
        with pytest.raises(RewritingError):
            fuxman_miller_rewrite(q, (fd,), db)

    def test_comparison_on_existential(self):
        schema = Schema.of(RelationSchema("R", ("K", "V"), key=("K",)))
        db = Database.from_dict(
            {"R": [("a", 5), ("a", 9), ("b", 9), ("c", 1)]}, schema=schema
        )
        fd = FunctionalDependency("R", ("K",), ("V",))
        from repro.logic import Comparison

        q = cq([X], [atom("R", X, Y)], [Comparison(">", Y, 3)])
        expected = consistent_answers(db, (fd,), q)
        got = consistent_answers_fm(db, (fd,), q)
        assert got == expected == {("a",), ("b",)}

    @pytest.mark.parametrize("seed", range(8))
    def test_differential_projection_query(self, seed):
        scenario = random_fd_instance(8, 4, 3, seed=seed)
        q = cq([X], [atom("R", X, Y)], name="names")
        expected = consistent_answers(
            scenario.db, scenario.constraints, q
        )
        assert consistent_answers_fm(
            scenario.db, scenario.constraints, q
        ) == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_differential_full_query(self, seed):
        scenario = random_fd_instance(8, 4, 3, seed=seed)
        q = cq([X, Y], [atom("R", X, Y)], name="full")
        expected = consistent_answers(
            scenario.db, scenario.constraints, q
        )
        assert consistent_answers_fm(
            scenario.db, scenario.constraints, q
        ) == expected
        # The residue rewriting is also complete for this
        # quantifier-free query.
        assert consistent_answers_by_rewriting(
            scenario.db, scenario.constraints, q
        ) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_sql_differential(self, seed):
        scenario = random_fd_instance(10, 5, 3, seed=seed)
        q = cq([X, Y], [atom("R", X, Y)], name="full")
        rewritten = fuxman_miller_rewrite(
            q, scenario.constraints, scenario.db
        )
        in_memory = rewritten.answers(scenario.db)
        via_sql = answers_via_sql(scenario.db, rewritten)
        assert via_sql == in_memory


class TestApproximation:
    def setup_method(self):
        self.scenario = employee()
        self.q1 = self.scenario.queries["Q1"]
        self.q2 = self.scenario.queries["Q2"]

    def test_core_under_approximation(self):
        under = underapproximate_answers(
            self.scenario.db, self.scenario.constraints, self.q1
        )
        exact = consistent_answers(
            self.scenario.db, self.scenario.constraints, self.q1
        )
        assert under <= exact
        assert under == {("smith", "3K"), ("stowe", "7K")}

    def test_over_approximation_contains_exact(self):
        over = overapproximate_answers(
            self.scenario.db, self.scenario.constraints, self.q2,
            sample_size=1,
        )
        exact = consistent_answers(
            self.scenario.db, self.scenario.constraints, self.q2
        )
        assert exact <= over

    def test_gap_nonnegative(self):
        assert approximation_gap(
            self.scenario.db, self.scenario.constraints, self.q2
        ) >= 0

    def test_core_drops_conflicting(self):
        core = certain_core(
            self.scenario.db, self.scenario.constraints
        )
        assert len(core) == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_brackets_random(self, seed):
        scenario = random_fd_instance(9, 4, 3, seed=seed)
        q = cq([X], [atom("R", X, Y)])
        under = underapproximate_answers(
            scenario.db, scenario.constraints, q
        )
        exact = consistent_answers(scenario.db, scenario.constraints, q)
        over = overapproximate_answers(
            scenario.db, scenario.constraints, q, sample_size=2
        )
        assert under <= exact <= over


class TestSQLGeneration:
    def test_simple_cq_sql(self):
        scenario = supply_articles()
        q = scenario.queries["Q_rewritten"]
        sql, _ = query_to_sql(q, scenario.db.schema)
        assert sql.startswith("SELECT DISTINCT")
        assert answers_via_sql(scenario.db, q) == {("I1",), ("I2",)}

    def test_boolean_sql(self):
        scenario = rs_instance()
        q = scenario.queries["Q"]
        assert answers_via_sql(scenario.db, q) == {()}
        empty = boolean_query([atom("S", "zzz")])
        assert answers_via_sql(scenario.db, empty) == frozenset()

    def test_comparisons_null_safe(self):
        from repro.relational import NULL

        db = Database.from_dict({"R": [(1, NULL), (1, 2)]})
        q = cq([X, Y], [atom("R", X, Y)], [neq(X, Y)])
        assert answers_via_sql(db, q) == q.answers(db)

    def test_shadowed_existential_rejected(self):
        from repro.logic import And, Exists, Not, Query

        db = Database.from_dict({"R": [(1,)]})
        body = And((atom("R", X), Not(Exists((X,), atom("R", X)))))
        with pytest.raises(RewritingError):
            query_to_sql(Query((X,), body), db.schema)

    def test_residue_rewritten_sql(self):
        scenario = employee()
        rewritten = fo_rewrite(
            scenario.queries["Q1"],
            scenario.constraints,
            scenario.db,
        )
        got = answers_via_sql(scenario.db, rewritten)
        assert got == {("smith", "3K"), ("stowe", "7K")}


class TestAlternativeRepairSemantics:
    def test_crepair_semantics_can_differ(self):
        # Under C-repairs, answers certain in every *minimum* repair can
        # exceed the S-repair certain answers.
        from repro.constraints import DenialConstraint
        from repro.workloads import abcde_instance

        scenario = abcde_instance()
        (x,) = vars_("x")
        q = cq([X], [atom("B", X)], name="b_values")
        s_answers = consistent_answers(
            scenario.db, scenario.constraints, q, semantics="s"
        )
        c_answers = consistent_answers(
            scenario.db, scenario.constraints, q, semantics="c"
        )
        # B(a) survives in S-repairs {B,C} and {A,B,D} but not in
        # {C,D,E}/{E,D,A}: not S-certain and not C-certain either.
        assert s_answers == c_answers == frozenset()
        q_d = cq([X], [atom("D", X)], name="d_values")
        # D(a) is in every C-repair but not in the S-repair {B, C}.
        assert consistent_answers(
            scenario.db, scenario.constraints, q_d, semantics="c"
        ) == {("a",)}
        assert consistent_answers(
            scenario.db, scenario.constraints, q_d, semantics="s"
        ) == frozenset()

    def test_delete_only_semantics(self):
        from repro.workloads import supply_articles

        scenario = supply_articles()
        q = scenario.queries["Q"]
        # Delete-only repairs lose I3 in the single repair.
        assert consistent_answers(
            scenario.db, scenario.constraints, q,
            semantics="delete-only",
        ) == {("I1",), ("I2",)}
        from repro.cqa import is_consistently_true
        from repro.logic import boolean_query

        q_i3 = boolean_query([atom("Supply", X, Y, "I3")], name="i3")
        assert not is_consistently_true(
            scenario.db, scenario.constraints, q_i3,
            semantics="delete-only",
        )
        # Under general S-repairs the Supply tuple survives in the
        # insertion repair, but not in the deletion repair.
        assert not is_consistently_true(
            scenario.db, scenario.constraints, q_i3, semantics="s"
        )


class TestSQLGenerationShapes:
    def test_forall_compiles(self):
        from repro.logic import And, Forall, Not, Or, Query
        from repro.cqa import answers_via_sql

        db = Database.from_dict({
            "R": [(1,), (2,)],
            "S": [(1,), (2,), (3,)],
        })
        # x such that S(x) and forall y (R(y) -> S(y)) — the universal
        # clause is a condition, true here.
        body = And((
            atom("S", X),
            Forall((Y,), Or((Not(atom("R", Y)), atom("S", Y)))),
        ))
        q = Query((X,), body)
        assert answers_via_sql(db, q) == q.answers(db)
        assert len(q.answers(db)) == 3

    def test_isnull_compiles(self):
        from repro.logic import And, IsNull, Not, Query
        from repro.relational import NULL
        from repro.cqa import answers_via_sql

        db = Database.from_dict({"R": [(1, NULL), (2, 5)]})
        q = Query((X,), And((atom("R", X, Y), IsNull(Y))))
        assert answers_via_sql(db, q) == q.answers(db) == {(1,)}
        q2 = Query((X,), And((atom("R", X, Y), Not(IsNull(Y)))))
        assert answers_via_sql(db, q2) == q2.answers(db) == {(2,)}

    def test_or_condition_compiles(self):
        from repro.logic import And, Or, Query
        from repro.cqa import answers_via_sql

        db = Database.from_dict({
            "R": [(1,), (2,), (3,)],
            "Good": [(1,)],
            "Ok": [(3,)],
        })
        body = And((
            atom("R", X),
            Or((atom("Good", X), atom("Ok", X))),
        ))
        q = Query((X,), body)
        assert answers_via_sql(db, q) == q.answers(db) == {(1,), (3,)}

    def test_null_constant_never_matches(self):
        from repro.relational import NULL
        from repro.cqa import answers_via_sql

        db = Database.from_dict({"R": [(NULL,), (1,)]})
        q = boolean_query([atom("R", NULL)], name="nullq")
        assert answers_via_sql(db, q) == frozenset()
        assert not q.holds(db)
