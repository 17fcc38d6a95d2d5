"""Tests for the ASP text syntax and solver internals."""

import pytest

from repro.asp import (
    RepairProgram,
    Solver,
    ground_program,
    is_stable,
    parse_asp_program,
    parse_asp_rule,
    program_clauses,
    reduct_clauses,
    solve,
)
from repro.errors import GroundingError
from repro.logic import Comparison, Var, atom


class TestParseRules:
    def test_fact(self):
        rule = parse_asp_rule("p(a, 1).")
        assert rule.is_fact
        assert rule.head == (atom("p", "a", 1),)

    def test_zero_arity(self):
        rule = parse_asp_rule("seed.")
        assert rule.head == (atom("seed"),)

    def test_rule_with_negation_and_builtin(self):
        rule = parse_asp_rule("p(X) :- q(X, Y), not r(Y), X != Y.")
        assert rule.head == (atom("p", Var("X")),)
        assert rule.positive == (atom("q", Var("X"), Var("Y")),)
        assert rule.negative == (atom("r", Var("Y")),)
        assert rule.builtins == (Comparison("!=", Var("X"), Var("Y")),)

    def test_disjunctive_head(self):
        rule = parse_asp_rule("p(X) | q(X) :- r(X).")
        assert len(rule.head) == 2

    def test_constraint(self):
        rule = parse_asp_rule(":- p(X), q(X).")
        assert rule.is_constraint

    def test_quoted_and_numeric_constants(self):
        rule = parse_asp_rule("p('I1', \"two\", 3, 4.5).")
        assert rule.head[0].terms == ("I1", "two", 3, 4.5)

    def test_unsafe_rule_rejected(self):
        with pytest.raises(GroundingError):
            parse_asp_rule("p(X) :- q(Y).")

    def test_weak_constraint_rejected_in_rule_parser(self):
        with pytest.raises(GroundingError):
            parse_asp_rule(":~ p(X). [1@1]")

    def test_garbage_rejected(self):
        with pytest.raises(GroundingError):
            parse_asp_rule("p(X) :- q(X) ???")


class TestParseProgram:
    def test_program_with_weak_constraints(self):
        p = parse_asp_program("""
            % two choices, penalize b at a higher level
            seed.
            a | b :- seed.
            :~ b. [2@3]
        """)
        assert len(p.rules) == 2
        assert len(p.weak_constraints) == 1
        wc = p.weak_constraints[0]
        assert (wc.weight, wc.level) == (2, 3)
        optimal = Solver(p).optimal_answer_sets()
        assert len(optimal) == 1
        assert atom("a") in optimal[0]

    def test_comments_stripped(self):
        p = parse_asp_program("p(a). % p(b).\nq(c).")
        assert len(p.rules) == 2

    def test_example35_written_as_text(self):
        # The paper's repair program, hand-written in text form.
        p = parse_asp_program("""
            r(t1, a4, a3).  r(t2, a2, a1).  r(t3, a3, a3).
            s(t4, a4).      s(t5, a2).      s(t6, a3).
            sp(T1, X, d) | rp(T2, X, Y, d) | sp(T3, Y, d) :-
                s(T1, X), r(T2, X, Y), s(T3, Y).
            sp(T, X, stays) :- s(T, X), not sp(T, X, d).
            rp(T, X, Y, stays) :- r(T, X, Y), not rp(T, X, Y, d).
        """)
        sets = solve(p)
        assert len(sets) == 3

    def test_matches_compiled_repair_program(self):
        from repro.workloads import rs_instance

        scenario = rs_instance()
        rp = RepairProgram(scenario.db, scenario.constraints)
        assert len(solve(rp.program)) == 3


class TestTokensAndErrors:
    def test_every_token_kind(self):
        program = parse_asp_program("""
            p('a b', "c", -3, -2.5).  % every kind of constant
            q | r :- p(X, Y, Z, W), X <> Y, Z < 0, W <= -2.5, Z >= -3,
                     Z > -4, Z = -3, X != Y, not s.
            :- q, r.
            :~ q. [2@3]
            :~ r. [4]
        """)
        fact, rule, constraint = program.rules
        assert fact.head[0].terms == ("a b", "c", -3, -2.5)
        assert rule.head == (atom("q"), atom("r"))
        assert rule.negative == (atom("s"),)
        assert [c.op for c in rule.builtins] == [
            "!=", "<", "<=", ">=", ">", "=", "!="
        ]
        assert constraint.is_constraint
        assert [
            (wc.positive, wc.weight, wc.level)
            for wc in program.weak_constraints
        ] == [((atom("q"),), 2, 3), ((atom("r"),), 4, 1)]

    @pytest.mark.parametrize("text, message", [
        ("p(a) :- q(a) ???", "cannot tokenize ' ???'"),
        ("p(a) :-", "unexpected end of input in 'p(a) :-'"),
        ("p(a) q(a).", "expected ':-', found 'q' in 'p(a) q(a).'"),
        ("5(a).", "bad predicate name '5'"),
        ("p :- 3 3.", "expected a comparison operator, found '3'"),
        ("p. q.", "trailing input after rule in 'p. q.'"),
        (":~ p. [1@1]", "use parse_asp_program for weak constraints"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(GroundingError) as raised:
            parse_asp_rule(text)
        assert str(raised.value) == message

    @pytest.mark.parametrize("text, message", [
        (":~ p. [a@1]", "expected an integer weight, found 'a' in "
         "':~ p. [a@1]'"),
        (":~ p. [1@b]", "expected an integer level, found 'b' in "
         "':~ p. [1@b]'"),
    ])
    def test_weak_constraint_weights_are_integers(self, text, message):
        """A weight or level that is not an integer is the syntax's
        error, not a bare ``ValueError`` from ``int()``."""
        with pytest.raises(GroundingError) as raised:
            parse_asp_program(text)
        assert str(raised.value) == message


class TestSolverInternals:
    def test_program_clauses_shape(self):
        p = parse_asp_program("seed. a | b :- seed, not c.")
        ground = ground_program(p)
        clauses = program_clauses(ground)
        # fact clause (unit) + rule clause with 3 or 4 literals
        # (c can never be derived, so 'not c' is simplified away).
        sizes = sorted(len(c) for c in clauses)
        assert sizes == [1, 3]

    def test_reduct_removes_blocked_rules(self):
        p = parse_asp_program("seed. a :- seed, not b. b :- seed, not a.")
        ground = ground_program(p)
        index = {a.predicate: i for i, a in enumerate(ground.atoms)}
        model = {index["a"], index["seed"]}
        reduct = reduct_clauses(ground, model)
        # The rule for b (blocked by a ∈ M) is gone; fact + a-rule stay.
        assert len(reduct) == 2

    def test_is_stable(self):
        p = parse_asp_program("seed. a :- seed, not b. b :- seed, not a.")
        ground = ground_program(p)
        index = {a.predicate: i for i, a in enumerate(ground.atoms)}
        assert is_stable(ground, {index["a"], index["seed"]})
        assert is_stable(ground, {index["b"], index["seed"]})
        assert not is_stable(
            ground, {index["a"], index["b"], index["seed"]}
        )
        assert not is_stable(ground, {index["seed"]})

    def test_empty_program(self):
        p = parse_asp_program("")
        assert len(solve(p)) == 1
        assert len(solve(p)[0]) == 0

    def test_contradictory_program_no_models(self):
        p = parse_asp_program("p. :- p.")
        assert solve(p) == []
