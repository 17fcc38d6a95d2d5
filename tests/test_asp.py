"""Tests for the ASP engine: grounding, stable models, repair programs."""

import pytest

from repro.asp import (
    AspProgram,
    AspRule,
    RepairProgram,
    Solver,
    WeakConstraint,
    asp_fact,
    asp_rule,
    ground_program,
    primed,
    program,
    solve,
)
from repro.errors import GroundingError, SolverError
from repro.logic import Comparison, atom, cq, neq, vars_
from repro.relational import fact
from repro.repairs import c_repairs, s_repairs
from repro.workloads import (
    abcde_instance,
    employee,
    random_rs_instance,
    rs_instance,
    supply_articles,
)

X, Y, Z = vars_("x y z")


def _answer_atoms(answer_sets, predicate):
    return [
        {a.terms for a in s.with_predicate(predicate)} for s in answer_sets
    ]


class TestStableModelBasics:
    def test_facts_only(self):
        p = program([asp_fact(atom("p", 1)), asp_fact(atom("q", 2))])
        sets = solve(p)
        assert len(sets) == 1
        assert atom("p", 1) in sets[0]
        assert atom("q", 2) in sets[0]

    def test_positive_rule(self):
        p = program([
            asp_fact(atom("p", 1)),
            asp_rule([atom("q", X)], [atom("p", X)]),
        ])
        (s,) = solve(p)
        assert atom("q", 1) in s

    def test_even_loop_two_models(self):
        # a :- not b.  b :- not a.
        p = program([
            asp_fact(atom("seed")),
            asp_rule([atom("a")], [atom("seed")], [atom("b")]),
            asp_rule([atom("b")], [atom("seed")], [atom("a")]),
        ])
        sets = solve(p)
        assert len(sets) == 2
        truths = {frozenset({"a", "b"} & {a.predicate for a in s.atoms})
                  for s in sets}
        assert truths == {frozenset({"a"}), frozenset({"b"})}

    def test_odd_loop_no_model(self):
        # a :- not a.  (with a seed so 'a' is possible)
        p = program([
            asp_fact(atom("seed")),
            asp_rule([atom("a")], [atom("seed")], [atom("a")]),
        ])
        assert solve(p) == []

    def test_unsupported_atom_not_derived(self):
        # q is never derivable; "not q" is simplified to true.
        p = program([
            asp_fact(atom("p")),
            asp_rule([atom("r")], [atom("p")], [atom("q")]),
        ])
        (s,) = solve(p)
        assert atom("r") in s

    def test_disjunctive_minimality(self):
        # a | b.  — two stable models {a}, {b}, never {a, b}.
        p = program([
            asp_fact(atom("seed")),
            asp_rule([atom("a"), atom("b")], [atom("seed")]),
        ])
        sets = solve(p)
        names = sorted(
            sorted(x.predicate for x in s.atoms if x.predicate != "seed")
            for s in sets
        )
        assert names == [["a"], ["b"]]

    def test_disjunction_with_support(self):
        # a | b.  a :- b.  — {a} is the only stable model: {b} is not
        # a model of the reduct (a :- b forces a), {a,b} not minimal.
        p = program([
            asp_fact(atom("seed")),
            asp_rule([atom("a"), atom("b")], [atom("seed")]),
            asp_rule([atom("a")], [atom("b")]),
        ])
        sets = solve(p)
        assert len(sets) == 1
        assert atom("a") in sets[0]
        assert atom("b") not in sets[0]

    def test_hard_constraint(self):
        p = program([
            asp_fact(atom("seed")),
            asp_rule([atom("a"), atom("b")], [atom("seed")]),
            asp_rule([], [atom("a")]),  # :- a.
        ])
        sets = solve(p)
        assert len(sets) == 1
        assert atom("b") in sets[0]

    def test_builtin_comparison(self):
        p = program([
            asp_fact(atom("p", 1)),
            asp_fact(atom("p", 5)),
            asp_rule(
                [atom("big", X)], [atom("p", X)],
                builtins=[Comparison(">", X, 3)],
            ),
        ])
        (s,) = solve(p)
        assert s.with_predicate("big") == (atom("big", 5),)

    def test_recursion(self):
        p = program([
            asp_fact(atom("edge", 1, 2)),
            asp_fact(atom("edge", 2, 3)),
            asp_rule([atom("path", X, Y)], [atom("edge", X, Y)]),
            asp_rule(
                [atom("path", X, Z)],
                [atom("edge", X, Y), atom("path", Y, Z)],
            ),
        ])
        (s,) = solve(p)
        assert atom("path", 1, 3) in s

    def test_unsafe_rule_rejected(self):
        with pytest.raises(GroundingError):
            asp_rule([atom("p", X)], [atom("q", Y)])

    def test_unsafe_negation_rejected(self):
        with pytest.raises(GroundingError):
            asp_rule([atom("p", X)], [atom("q", X)], [atom("r", Y)])

    def test_stable_models_are_antichain(self):
        p = program([
            asp_fact(atom("seed")),
            asp_rule([atom("a"), atom("b")], [atom("seed")]),
            asp_rule([atom("c")], [atom("seed")], [atom("a")]),
        ])
        sets = solve(p)
        for s1 in sets:
            for s2 in sets:
                if s1 is not s2:
                    assert not (s1.atoms < s2.atoms)

    def test_weak_constraints_pick_minimum(self):
        p = AspProgram(
            (
                asp_fact(atom("seed")),
                asp_rule([atom("a"), atom("b")], [atom("seed")]),
                asp_rule([atom("b2")], [atom("b")]),
            ),
            (
                WeakConstraint((atom("b2"),)),
            ),
        )
        solver = Solver(p)
        assert len(solver.answer_sets()) == 2
        optimal = solver.optimal_answer_sets()
        assert len(optimal) == 1
        assert atom("a") in optimal[0]

    def test_weak_constraint_levels(self):
        p = AspProgram(
            (
                asp_fact(atom("seed")),
                asp_rule([atom("a"), atom("b")], [atom("seed")]),
            ),
            (
                # 'a' violates heavily at the low level; 'b' violates
                # lightly at the high level.  Levels dominate: pick 'a'.
                WeakConstraint((atom("a"),), weight=10, level=1),
                WeakConstraint((atom("b"),), weight=1, level=2),
            ),
        )
        optimal = Solver(p).optimal_answer_sets()
        assert len(optimal) == 1
        assert atom("a") in optimal[0]

    def test_brave_and_cautious(self):
        p = program([
            asp_fact(atom("seed")),
            asp_rule([atom("a"), atom("b")], [atom("seed")]),
            asp_rule([atom("c")], [atom("seed")]),
        ])
        solver = Solver(p)
        assert solver.brave(atom("a")) == {()}
        assert solver.cautious(atom("a")) == set()
        assert solver.cautious(atom("c")) == {()}


class TestRepairProgramExample35:
    """Example 3.5: the repair program for κ has three stable models."""

    def setup_method(self):
        self.scenario = rs_instance()
        self.rp = RepairProgram(self.scenario.db, self.scenario.constraints)

    def test_three_answer_sets(self):
        assert len(self.rp.answer_sets()) == 3

    def test_models_match_paper_repairs(self):
        repaired = {r.instance.facts() for r in self.rp.repairs()}
        d1 = frozenset({
            fact("R", "a4", "a3"), fact("R", "a2", "a1"),
            fact("R", "a3", "a3"), fact("S", "a4"), fact("S", "a2"),
        })
        d2 = frozenset({
            fact("R", "a2", "a1"), fact("S", "a4"), fact("S", "a2"),
            fact("S", "a3"),
        })
        d3 = frozenset({
            fact("R", "a4", "a3"), fact("R", "a2", "a1"),
            fact("S", "a2"), fact("S", "a3"),
        })
        assert repaired == {d1, d2, d3}

    def test_m1_annotations(self):
        # M1 keeps everything but S(ι6; a3), annotated d.
        sets = self.rp.answer_sets()
        m1 = next(
            s for s in sets
            if atom(primed("S"), "t6", "a3", "d") in s
        )
        assert atom(primed("R"), "t1", "a4", "a3", "s") in m1
        assert atom(primed("S"), "t4", "a4", "s") in m1

    def test_agrees_with_direct_enumeration(self):
        direct = {
            r.instance.facts()
            for r in s_repairs(self.scenario.db, self.scenario.constraints)
        }
        via_asp = {r.instance.facts() for r in self.rp.repairs()}
        assert via_asp == direct


class TestRepairProgramExample42:
    """Example 4.2: weak constraints select the C-repairs."""

    def test_c_repairs_via_weak_constraints(self):
        scenario = abcde_instance()
        rp = RepairProgram(
            scenario.db, scenario.constraints,
            include_weak_constraints=True,
        )
        assert len(rp.answer_sets()) == 4
        via_asp = {r.instance.facts() for r in rp.c_repairs()}
        direct = {
            r.instance.facts()
            for r in c_repairs(scenario.db, scenario.constraints)
        }
        assert via_asp == direct
        assert len(via_asp) == 3

    def test_c_repairs_requires_flag(self):
        scenario = abcde_instance()
        rp = RepairProgram(scenario.db, scenario.constraints)
        with pytest.raises(SolverError):
            rp.c_repairs()


class TestRepairProgramCQA:
    def test_cqa_on_employee(self):
        scenario = employee()
        rp = RepairProgram(scenario.db, scenario.constraints)
        q1 = scenario.queries["Q1"]
        assert rp.consistent_answers(q1) == {
            ("smith", "3K"), ("stowe", "7K"),
        }
        q2 = scenario.queries["Q2"]
        assert rp.consistent_answers(q2) == {
            ("smith",), ("stowe",), ("page",),
        }

    def test_brave_answers(self):
        scenario = employee()
        rp = RepairProgram(scenario.db, scenario.constraints)
        q1 = scenario.queries["Q1"]
        brave = rp.possible_answers(q1)
        assert ("page", "5K") in brave
        assert ("page", "8K") in brave

    def test_tgds_rejected(self):
        scenario = supply_articles()
        with pytest.raises(SolverError):
            RepairProgram(scenario.db, scenario.constraints)

    @pytest.mark.parametrize("seed", range(5))
    def test_differential_random_instances(self, seed):
        scenario = random_rs_instance(5, 4, 4, seed=seed)
        rp = RepairProgram(scenario.db, scenario.constraints)
        via_asp = {r.instance.facts() for r in rp.repairs()}
        direct = {
            r.instance.facts()
            for r in s_repairs(scenario.db, scenario.constraints)
        }
        assert via_asp == direct

    def test_fd_repair_program(self):
        scenario = employee()
        rp = RepairProgram(scenario.db, scenario.constraints)
        assert len(rp.answer_sets()) == 2


class TestRepairProgramNulls:
    """A NULL never satisfies a join or a comparison (Section 4): the
    repair program's violation rules guard their joined and compared
    variables against it, as the general repair program's do."""

    def test_a_null_right_hand_side_rivals_nothing(self):
        from repro.asp import GeneralRepairProgram
        from repro.constraints import FunctionalDependency
        from repro.cqa import consistent_answers
        from repro.logic.parser import parse_query
        from repro.relational import Database, RelationSchema, Schema
        from repro.relational.nulls import NULL

        db = Database.from_dict(
            {"R": [("a", 1), ("a", NULL)]},
            schema=Schema.of(RelationSchema("R", ("A", "B"))),
        )
        fd = FunctionalDependency("R", ("A",), ("B",))
        query = parse_query("Q(X, Y) :- R(X, Y)")
        both = {("a", 1), ("a", NULL)}
        assert RepairProgram(db, (fd,)).consistent_answers(query) == both
        assert consistent_answers(db, (fd,), query) == both
        general = GeneralRepairProgram(db, (fd,))
        assert general.consistent_answers(query) == both

    def test_a_null_key_joins_nothing(self):
        from repro.constraints import FunctionalDependency
        from repro.relational import Database, RelationSchema, Schema
        from repro.relational.nulls import NULL

        db = Database.from_dict(
            {"R": [(NULL, 1), (NULL, 2)]},
            schema=Schema.of(RelationSchema("R", ("A", "B"))),
        )
        fd = FunctionalDependency("R", ("A",), ("B",))
        assert len(RepairProgram(db, (fd,)).repairs()) == 1

    def test_a_null_joins_nothing_in_the_query_rule(self):
        """R(a, NULL) and S(NULL, c), each keyed and consistent: the
        join meets on NULL, so no repair answers it."""
        from repro.cqa import consistent_answers
        from repro.logic.parser import parse_fd, parse_query
        from repro.relational import Database, RelationSchema, Schema
        from repro.relational.nulls import NULL

        db = Database.from_dict(
            {"R": [("a", NULL)], "S": [(NULL, "c")]},
            schema=Schema.of(
                RelationSchema("R", ("A", "B")),
                RelationSchema("S", ("B", "C")),
            ),
        )
        keys = (parse_fd("R: A -> B"), parse_fd("S: B -> C"))
        query = parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)")
        assert consistent_answers(db, keys, query) == frozenset()
        for weak, semantics in ((False, "s"), (True, "c")):
            program = RepairProgram(db, keys, include_weak_constraints=weak)
            assert program.consistent_answers(query, semantics) == set()
            assert program.possible_answers(query) == set()


class TestConsExSlicing:
    """Magic-set-style relevance slicing (ConsEx [43])."""

    def _wide_scenario(self):
        from repro.constraints import FunctionalDependency
        from repro.relational import Database, RelationSchema, Schema

        schema = Schema.of(
            RelationSchema("Employee", ("Name", "Salary"), key=("Name",)),
            RelationSchema("Rooms", ("Room", "Floor"), key=("Room",)),
            RelationSchema("Log", ("Entry",)),
        )
        db = Database.from_dict(
            {
                "Employee": [("page", "5K"), ("page", "8K"),
                             ("smith", "3K")],
                "Rooms": [("r1", 1), ("r1", 2), ("r2", 1)],
                "Log": [("boot",), ("halt",)],
            },
            schema=schema,
        )
        constraints = (
            FunctionalDependency("Employee", ("Name",), ("Salary",),
                                 name="empKey"),
            FunctionalDependency("Rooms", ("Room",), ("Floor",),
                                 name="roomKey"),
        )
        return db, constraints

    def test_relevant_relations_closure(self):
        from repro.asp import relevant_relations
        from repro.logic import atom, cq, vars_

        db, constraints = self._wide_scenario()
        x, y = vars_("x y")
        q = cq([x], [atom("Employee", x, y)], name="names")
        assert relevant_relations(q, constraints, db) == {"Employee"}

    def test_sliced_answers_match_full(self):
        from repro.logic import atom, cq, vars_

        db, constraints = self._wide_scenario()
        x, y = vars_("x y")
        q = cq([x, y], [atom("Employee", x, y)], name="rows")
        rp = RepairProgram(db, constraints)
        full = rp.consistent_answers(q)
        sliced = rp.consistent_answers(q, optimize=True)
        assert sliced == full == {("smith", "3K")}

    def test_slice_is_smaller(self):
        from repro.logic import atom, cq, vars_

        db, constraints = self._wide_scenario()
        x, y = vars_("x y")
        q = cq([x], [atom("Employee", x, y)], name="names")
        rp = RepairProgram(db, constraints)
        sliced = rp.restricted_to_query(q)
        assert len(sliced.db) < len(db)
        assert len(sliced.constraints) == 1
        # Fewer stable models: the Rooms conflict no longer multiplies.
        assert len(sliced.answer_sets()) < len(rp.answer_sets())
