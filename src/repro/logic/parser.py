"""A small text syntax for queries and constraints.

Lets examples and tests write the paper's artifacts the way the paper
does, without building ASTs by hand::

    parse_query("Q(Z) :- Supply(X, Y, Z)")
    parse_query("Q(X, Y) :- Employee(X, Y), X != Y")
    parse_denial(":- S(X), R(X, Y), S(Y)")
    parse_fd("Employee: Name -> Salary")
    parse_inclusion("Supply[Item] <= Articles[Item]")

Conventions: identifiers starting with an uppercase letter inside an
atom's argument list are variables only if they are single tokens that
start uppercase — following Datalog, ``X``/``Name1`` are variables, and
constants are numbers or quoted strings (``'I1'`` or ``"I1"``).
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from ..errors import QueryError
from .formulas import Atom, Comparison, Var
from .queries import ConjunctiveQuery

_TOKEN = re.compile(
    r"""
    \s*(
        :-                 |
        <=                 |
        !=|>=|<>|=|<|>     |
        ->                 |
        [(),\[\]:]         |
        '[^']*'            |
        "[^"]*"            |
        -?\d+\.\d+         |
        -?\d+              |
        [A-Za-z_][A-Za-z_0-9]*
    )
    """,
    re.VERBOSE,
)

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

_COMPARISON_OPS = {"=", "!=", "<>", "<", "<=", ">", ">="}


class TokenCursor:
    """A recursive-descent parser's place in *text*, cut into tokens by
    *pattern*, whose first group is the token; every syntax error is
    raised as *error*.  Both text syntaxes read through it: this
    module's, and the answer-set programs of :mod:`repro.asp.parser`,
    which keep their own tokens, error class and statement rules."""

    def __init__(
        self, text: str, pattern: re.Pattern = _TOKEN, error=QueryError
    ) -> None:
        self._text = text
        self._error = error
        self._tokens: List[str] = []
        self._index = 0
        position = 0
        while position < len(text):
            match = pattern.match(text, position)
            if match is None:
                if text[position:].strip():
                    raise error(
                        f"cannot tokenize {text[position:position + 20]!r}"
                    )
                break
            self._tokens.append(match.group(1))
            position = match.end()

    def peek(self) -> Optional[str]:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def take(self, expected: Optional[str] = None) -> str:
        token = self.peek()
        if token is None:
            raise self._error(
                f"unexpected end of input in {self._text!r}"
            )
        if expected is not None and token != expected:
            raise self._error(
                f"expected {expected!r}, found {token!r} in {self._text!r}"
            )
        self._index += 1
        return token

    def done(self) -> bool:
        return self._index >= len(self._tokens)

    def term(self) -> object:
        token = self.take()
        if token.startswith(("'", '"')):
            return token[1:-1]
        if re.fullmatch(r"-?\d+", token):
            return int(token)
        if re.fullmatch(r"-?\d+\.\d+", token):
            return float(token)
        if token[0].isupper() or token[0] == "_":
            return Var(token)
        # Bare lowercase identifiers are string constants (Datalog style).
        return token

    def predicate(self) -> str:
        name = self.take()
        if not _IDENTIFIER.fullmatch(name):
            raise self._error(f"bad predicate name {name!r}")
        return name

    def arguments(self) -> Tuple[object, ...]:
        """``(term, ...)``, possibly empty."""
        self.take("(")
        terms: List[object] = []
        if self.peek() != ")":
            terms.append(self.term())
            while self.peek() == ",":
                self.take(",")
                terms.append(self.term())
        self.take(")")
        return tuple(terms)

    def comparison(self) -> Comparison:
        """``term op term``, with ``<>`` read as ``!=``."""
        left = self.term()
        op = self.take()
        if op not in _COMPARISON_OPS:
            raise self._error(
                f"expected a comparison operator, found {op!r}"
            )
        if op == "<>":
            op = "!="
        return Comparison(op, left, self.term())

    def at_identifier(self, followers) -> bool:
        """Whether the next token is an identifier and the one after it
        is among *followers* (None: the end of input)."""
        token = self.peek()
        index = self._index + 1
        after = self._tokens[index] if index < len(self._tokens) else None
        return (
            token is not None
            and _IDENTIFIER.fullmatch(token) is not None
            and after in followers
        )


class _Parser(TokenCursor):
    def atom(self) -> Atom:
        return Atom(self.predicate(), self.arguments())

    def body(self) -> Tuple[Tuple[Atom, ...], Tuple[Comparison, ...]]:
        atoms: List[Atom] = []
        comparisons: List[Comparison] = []
        while True:
            # Lookahead: ``ident (`` is an atom, otherwise a comparison.
            if self.at_identifier(("(",)):
                atoms.append(self.atom())
            else:
                comparisons.append(self.comparison())
            if self.peek() != ",":
                break
            self.take(",")
        return tuple(atoms), tuple(comparisons)


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse ``Name(heads) :- atoms, comparisons`` into a CQ."""
    parser = _Parser(text)
    head_atom = parser.atom()
    for t in head_atom.terms:
        if not isinstance(t, Var):
            raise QueryError(
                f"head argument {t!r} is not a variable in {text!r}"
            )
    parser.take(":-")
    atoms, comparisons = parser.body()
    if not parser.done():
        raise QueryError(f"trailing input after body in {text!r}")
    return ConjunctiveQuery(
        tuple(head_atom.terms), atoms, comparisons, name=head_atom.predicate
    )


def parse_denial(text: str, name: str = "DC"):
    """Parse ``:- atoms, comparisons`` into a denial constraint."""
    from ..constraints.denial import DenialConstraint

    parser = _Parser(text)
    parser.take(":-")
    atoms, comparisons = parser.body()
    if not parser.done():
        raise QueryError(f"trailing input in {text!r}")
    return DenialConstraint(atoms, comparisons, name=name)


def parse_fd(text: str, name: Optional[str] = None):
    """Parse ``Relation: A, B -> C, D`` into a functional dependency."""
    from ..constraints.fd import FunctionalDependency

    parser = _Parser(text)
    relation = parser.take()
    parser.take(":")
    lhs = [parser.take()]
    while parser.peek() == ",":
        parser.take(",")
        lhs.append(parser.take())
    parser.take("->")
    rhs = [parser.take()]
    while parser.peek() == ",":
        parser.take(",")
        rhs.append(parser.take())
    if not parser.done():
        raise QueryError(f"trailing input in {text!r}")
    return FunctionalDependency(
        relation, tuple(lhs), tuple(rhs),
        name=name or f"FD[{relation}]",
    )


def parse_inclusion(text: str, name: Optional[str] = None):
    """Parse ``Child[A, B] <= Parent[C, D]`` into an inclusion dependency."""
    from ..constraints.inclusion import InclusionDependency

    parser = _Parser(text)

    def side() -> Tuple[str, Tuple[str, ...]]:
        relation = parser.take()
        parser.take("[")
        attrs = [parser.take()]
        while parser.peek() == ",":
            parser.take(",")
            attrs.append(parser.take())
        parser.take("]")
        return relation, tuple(attrs)

    child, child_attrs = side()
    parser.take("<=")
    parent, parent_attrs = side()
    if not parser.done():
        raise QueryError(f"trailing input in {text!r}")
    return InclusionDependency(
        child, child_attrs, parent, parent_attrs,
        name=name or f"IND[{child}->{parent}]",
    )
