"""Tests for the text syntax of queries and constraints."""

import pytest

from repro.errors import QueryError
from repro.logic import Var, atom, neq
from repro.logic.parser import (
    parse_denial,
    parse_fd,
    parse_inclusion,
    parse_query,
)
from repro.workloads import employee, rs_instance, supply_articles


class TestParseQuery:
    def test_projection_query(self):
        q = parse_query("Q(Z) :- Supply(X, Y, Z)")
        assert q.head == (Var("Z"),)
        assert q.atoms == (atom("Supply", Var("X"), Var("Y"), Var("Z")),)
        assert q.name == "Q"

    def test_matches_scenario_query(self):
        scenario = supply_articles()
        q = parse_query("Q(Z) :- Supply(X, Y, Z)")
        assert q.answers(scenario.db) == {("I1",), ("I2",), ("I3",)}

    def test_comparisons(self):
        q = parse_query("Q(X, Y) :- R(X, Y), X != Y")
        assert q.conditions == (neq(Var("X"), Var("Y")),)
        q2 = parse_query("Q(X) :- R(X, Y), Y <> 3")
        assert q2.conditions[0].op == "!="

    def test_constants(self):
        q = parse_query("Q(X) :- Supply('C2', rcv, X)")
        assert q.atoms[0].terms == ("C2", "rcv", Var("X"))
        q2 = parse_query('Q(X) :- R(X, 5, 2.5, "lit")')
        assert q2.atoms[0].terms == (Var("X"), 5, 2.5, "lit")

    def test_boolean_query(self):
        q = parse_query("Q() :- S(X), R(X, Y), S(Y)")
        assert q.is_boolean
        scenario = rs_instance()
        assert q.holds(scenario.db)

    def test_head_must_use_variables(self):
        with pytest.raises(QueryError):
            parse_query("Q(5) :- R(X)")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(QueryError):
            parse_query("Q(X) :- R(X) extra")

    def test_tokenizer_error(self):
        with pytest.raises(QueryError):
            parse_query("Q(X) :- R(X) & S(X)")

    def test_missing_body(self):
        with pytest.raises(QueryError):
            parse_query("Q(X)")


class TestParseConstraints:
    def test_denial(self):
        dc = parse_denial(":- S(X), R(X, Y), S(Y)", name="kappa")
        scenario = rs_instance()
        assert not dc.is_satisfied(scenario.db)
        assert len(dc.violations(scenario.db)) == 2

    def test_denial_with_comparison(self):
        dc = parse_denial(":- R(X, Y), R(X, Z), Y != Z")
        from repro.relational import Database

        db = Database.from_dict({"R": [(1, 2), (1, 3)]})
        assert not dc.is_satisfied(db)

    def test_fd(self):
        fd = parse_fd("Employee: Name -> Salary")
        scenario = employee()
        assert not fd.is_satisfied(scenario.db)
        assert fd.lhs == ("Name",) and fd.rhs == ("Salary",)

    def test_fd_multiple_attributes(self):
        fd = parse_fd("Customer: CC, AC -> City, Zip")
        assert fd.lhs == ("CC", "AC")
        assert fd.rhs == ("City", "Zip")

    def test_inclusion(self):
        ind = parse_inclusion("Supply[Item] <= Articles[Item]")
        scenario = supply_articles()
        assert not ind.is_satisfied(scenario.db)

    def test_inclusion_multi_attr(self):
        ind = parse_inclusion("A[x, y] <= B[u, v]")
        assert ind.child_attrs == ("x", "y")
        assert ind.parent_attrs == ("u", "v")

    def test_fd_trailing_rejected(self):
        with pytest.raises(QueryError):
            parse_fd("R: a -> b -> c")

    def test_round_trip_with_cqa(self):
        from repro.cqa import consistent_answers

        scenario = employee()
        q = parse_query("Q(X) :- Employee(X, Y)")
        fd = parse_fd("Employee: Name -> Salary")
        assert consistent_answers(scenario.db, (fd,), q) == {
            ("smith",), ("stowe",), ("page",),
        }


class TestTokensAndErrors:
    def test_every_token_kind(self):
        q = parse_query(
            "Q(X) :- R(X, 'a b', \"c\", -3, -2.5, 7, 0.5, low), "
            "X >= 1, X <= 9, X < 10, X > -1, X = X, X <> 2, X != 3"
        )
        assert q.atoms[0].terms == (
            Var("X"), "a b", "c", -3, -2.5, 7, 0.5, "low"
        )
        assert [c.op for c in q.conditions] == [
            ">=", "<=", "<", ">", "=", "!=", "!="
        ]
        assert [c.right for c in q.conditions] == [1, 9, 10, -1, Var("X"), 2, 3]

    @pytest.mark.parametrize("parse, text, message", [
        (parse_query, "Q(X) :- R(X) & S(X)", "cannot tokenize ' & S(X)'"),
        (parse_query, "Q(X) :-", "unexpected end of input in 'Q(X) :-'"),
        (parse_query, "Q(X) R(X)",
         "expected ':-', found 'R' in 'Q(X) R(X)'"),
        (parse_query, "5(X) :- R(X)", "bad predicate name '5'"),
        (parse_query, "Q(X) :- R(X), 3 3",
         "expected a comparison operator, found '3'"),
        (parse_query, "Q(5) :- R(X)",
         "head argument 5 is not a variable in 'Q(5) :- R(X)'"),
        (parse_query, "Q(X) :- R(X) extra",
         "trailing input after body in 'Q(X) :- R(X) extra'"),
        (parse_denial, ":- R(X) S(X)", "trailing input in ':- R(X) S(X)'"),
        (parse_fd, "R: A -> B C", "trailing input in 'R: A -> B C'"),
        (parse_fd, "R A -> B", "expected ':', found 'A' in 'R A -> B'"),
        (parse_inclusion, "R[A] <= S[B] T",
         "trailing input in 'R[A] <= S[B] T'"),
        (parse_inclusion, "R[A] <= S[B",
         "unexpected end of input in 'R[A] <= S[B'"),
    ])
    def test_error_messages(self, parse, text, message):
        # /v1/cqa answers these as its 400 body, after "cannot parse
        # query: ".
        with pytest.raises(QueryError) as raised:
            parse(text)
        assert str(raised.value) == message
