"""The SQL-style NULL marker.

The paper (Sections 4.2, 4.3) repairs databases by inserting tuples with
NULL values or by overwriting attribute values with NULL, and relies on the
SQL semantics of the single null: NULL cannot be used to satisfy a join, a
comparison, or an equality — not even with another NULL.  This module
provides the singleton marker; the *semantics* live in the query evaluator
(:mod:`repro.logic.evaluation`) and the constraint checker, which both refuse
to unify NULL with anything.

:func:`json_stable` is the one home of the value rule under which equal
answer sets hold the same values: the pool worker and the server both
apply it before they let an answer set stand for an equal one.
"""

from __future__ import annotations

from typing import Iterable


class NullType:
    """Singleton type for the SQL null marker.

    Identity-based equality is intentional: two occurrences of NULL are the
    same Python object, so NULL can live in tuples, sets, and dict keys,
    while the evaluator separately enforces that NULL never satisfies a
    join or comparison.
    """

    _instance = None

    def __new__(cls) -> "NullType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __hash__(self) -> int:
        return hash("repro.NULL")

    def __reduce__(self):
        return (NullType, ())

    def __lt__(self, other) -> bool:  # allows deterministic sorting
        return True

    def __gt__(self, other) -> bool:
        return False


NULL = NullType()


def is_null(value: object) -> bool:
    """Return True when *value* is the SQL null marker."""
    return isinstance(value, NullType)


def json_stable(rows: Iterable[tuple]) -> bool:
    """Whether equal row sets of these values are always the same values:
    every value is a string, None or the NULL marker, so a set equal to
    one of them holds the same types and renders alike.  Numbers are
    not, since ``1 == 1.0 == True`` and ``0.0 == -0.0`` but each is its
    own type and encodes its own way."""
    return all(
        value is None or isinstance(value, (str, NullType))
        for row in rows
        for value in row
    )


class LabeledNull:
    """A labeled (marked) null, as used by LAV inverse rules and tgd chases.

    Unlike :data:`NULL`, two labeled nulls with the same label are equal and
    *can* join with each other (naive-table semantics), which is what the
    certain-answer machinery for virtual data integration requires.  Answers
    containing labeled nulls are discarded when computing certain answers.
    """

    __slots__ = ("label",)

    def __init__(self, label: str) -> None:
        self.label = label

    def __repr__(self) -> str:
        return f"_:{self.label}"

    def __eq__(self, other) -> bool:
        return isinstance(other, LabeledNull) and other.label == self.label

    def __hash__(self) -> int:
        return hash(("repro.LabeledNull", self.label))

    def __lt__(self, other) -> bool:
        if isinstance(other, LabeledNull):
            return self.label < other.label
        return True

    def __gt__(self, other) -> bool:
        if isinstance(other, LabeledNull):
            return self.label > other.label
        return False


def is_labeled_null(value: object) -> bool:
    """Return True when *value* is a labeled null."""
    return isinstance(value, LabeledNull)


def has_nulls(values) -> bool:
    """Return True when any value in *values* is a NULL or labeled null."""
    return any(is_null(v) or is_labeled_null(v) for v in values)
