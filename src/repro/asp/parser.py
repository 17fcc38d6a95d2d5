"""Text syntax for answer-set programs (DLV-style).

Lets the paper's repair programs be written the way Section 3.3 prints
them::

    program = parse_asp_program('''
        s(t4, a4).  s(t5, a2).  s(t6, a3).
        sp(T1, X, d) | sp(T3, Y, d) :- s(T1, X), s(T3, Y), X != Y.
        sp(T, X, keep) :- s(T, X), not sp(T, X, d).
        :- sp(T, X, d), sp(T, X, keep).
        :~ sp(T, X, d). [1@1]
    ''')

Conventions: identifiers starting uppercase (or ``_``) are variables;
lowercase identifiers, numbers, and quoted strings are constants; ``|``
separates head disjuncts; ``not`` marks default negation; ``:-`` with an
empty head is a hard constraint; ``:~ body. [w@l]`` is a weak constraint.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from ..errors import GroundingError
from ..logic.formulas import Atom, Comparison
from ..logic.parser import TokenCursor
from .syntax import AspProgram, AspRule, WeakConstraint

_TOKEN = re.compile(
    r"""
    \s*(
        :-|:~              |
        !=|>=|<=|<>|=|<|>  |
        [(),.\[\]|@]       |
        '[^']*'            |
        "[^"]*"            |
        -?\d+\.\d+         |
        -?\d+              |
        [A-Za-z_][A-Za-z_0-9]*
    )
    """,
    re.VERBOSE,
)


class _AspParser(TokenCursor):
    def __init__(self, text: str) -> None:
        # Strip % comments line by line.
        lines = [line.split("%", 1)[0] for line in text.splitlines()]
        super().__init__("\n".join(lines), _TOKEN, GroundingError)

    def atom(self) -> Atom:
        """An atom; a propositional one has no argument list."""
        name = self.predicate()
        return Atom(name, self.arguments() if self.peek() == "(" else ())

    def body(self) -> Tuple[Tuple[Atom, ...], Tuple[Atom, ...],
                            Tuple[Comparison, ...]]:
        positive: List[Atom] = []
        negative: List[Atom] = []
        builtins: List[Comparison] = []
        while True:
            if self.peek() == "not":
                self.take("not")
                negative.append(self.atom())
            elif self.at_identifier(("(", ",", ".", None)):
                positive.append(self.atom())
            else:
                builtins.append(self.comparison())
            if self.peek() == ",":
                self.take(",")
                continue
            break
        return tuple(positive), tuple(negative), tuple(builtins)

    def integer(self, what: str) -> int:
        """A weak constraint's integer *what* (its weight or level)."""
        token = self.take()
        if not re.fullmatch(r"-?\d+", token):
            raise self._error(
                f"expected an integer {what}, found {token!r} in "
                f"{self._text!r}"
            )
        return int(token)

    def statement(self) -> object:
        if self.peek() == ":~":
            self.take(":~")
            positive, negative, builtins = self.body()
            self.take(".")
            weight, level = 1, 1
            if self.peek() == "[":
                self.take("[")
                weight = self.integer("weight")
                if self.peek() == "@":
                    self.take("@")
                    level = self.integer("level")
                self.take("]")
            return WeakConstraint(
                positive, negative, builtins, weight=weight, level=level
            )
        if self.peek() == ":-":
            self.take(":-")
            positive, negative, builtins = self.body()
            self.take(".")
            return AspRule((), positive, negative, builtins)
        # Rule with a (possibly disjunctive) head.
        head = [self.atom()]
        while self.peek() == "|":
            self.take("|")
            head.append(self.atom())
        if self.peek() == ".":
            self.take(".")
            return AspRule(tuple(head))
        self.take(":-")
        positive, negative, builtins = self.body()
        self.take(".")
        return AspRule(tuple(head), positive, negative, builtins)


def parse_asp_program(text: str) -> AspProgram:
    """Parse a whole program (rules, constraints, weak constraints)."""
    parser = _AspParser(text)
    rules: List[AspRule] = []
    weak: List[WeakConstraint] = []
    while not parser.done():
        statement = parser.statement()
        if isinstance(statement, WeakConstraint):
            weak.append(statement)
        else:
            rules.append(statement)
    return AspProgram(tuple(rules), tuple(weak))


def parse_asp_rule(text: str) -> AspRule:
    """Parse a single rule or constraint."""
    parser = _AspParser(text)
    statement = parser.statement()
    if not parser.done():
        raise GroundingError(f"trailing input after rule in {text!r}")
    if isinstance(statement, WeakConstraint):
        raise GroundingError(
            "use parse_asp_program for weak constraints"
        )
    return statement
