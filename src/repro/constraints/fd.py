"""Functional dependencies and key constraints.

Example 3.3's ``KC: Name → Salary`` is the canonical case.  FDs follow the
SQL null convention: tuples with NULL on a left-hand-side attribute never
conflict (NULL does not join), and a NULL versus non-NULL right-hand side
is not a conflict either.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Tuple

from ..errors import ConstraintError
from ..logic.formulas import Atom, Comparison, Var
from ..relational.database import Database, Fact, Row, row_sort_key
from ..relational.nulls import is_null
from .base import IntegrityConstraint, Violation
from .denial import DenialConstraint


@dataclass(frozen=True)
class FunctionalDependency(IntegrityConstraint):
    """``relation: lhs → rhs`` over attribute names."""

    relation: str
    lhs: Tuple[str, ...]
    rhs: Tuple[str, ...]
    name: str = "FD"

    is_denial_class = True

    def __post_init__(self) -> None:
        if not isinstance(self.lhs, tuple):
            object.__setattr__(self, "lhs", tuple(self.lhs))
        if not isinstance(self.rhs, tuple):
            object.__setattr__(self, "rhs", tuple(self.rhs))
        if not self.lhs or not self.rhs:
            raise ConstraintError("an FD needs non-empty lhs and rhs")
        overlap = set(self.lhs) & set(self.rhs)
        if overlap:
            raise ConstraintError(
                f"attributes {sorted(overlap)} appear on both FD sides"
            )

    def _positions(self, db: Database) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        rel = db.schema.relation(self.relation)
        return rel.positions(self.lhs), rel.positions(self.rhs)

    def violations(self, db: Database) -> List[Violation]:
        """Pairs of facts agreeing on lhs but differing on some rhs value.

        Listed in :meth:`Database.relation` order, from one unsorted
        pass over the stored rows: only groups of two or more rows are
        sorted, and ordered by their smallest row, which is where the
        sorted scan meets each group first.
        """
        lhs_pos, rhs_pos = self._positions(db)
        key_of = itemgetter(*lhs_pos)
        first: Dict[object, Row] = {}
        shared: Dict[object, List[Row]] = {}
        for values in db.stored_rows(self.relation):
            key = key_of(values)
            seen = first.setdefault(key, values)
            if seen is not values:
                group = shared.get(key)
                if group is None:
                    shared[key] = [seen, values]
                else:
                    group.append(values)
        groups = sorted(
            (
                sorted(rows, key=row_sort_key)
                for rows in shared.values()
                # NULL never joins: no conflict through NULL keys
                if not any(is_null(rows[0][p]) for p in lhs_pos)
            ),
            key=lambda rows: row_sort_key(rows[0]),
        )
        out: List[Violation] = []
        for rows in groups:
            facts = [Fact(self.relation, values) for values in rows]
            for f1, f2 in itertools.combinations(facts, 2):
                if self._conflicting(f1, f2, rhs_pos):
                    out.append(Violation(self.name, frozenset((f1, f2))))
        return out

    @staticmethod
    def _conflicting(f1: Fact, f2: Fact, rhs_pos: Tuple[int, ...]) -> bool:
        for p in rhs_pos:
            v1, v2 = f1.values[p], f2.values[p]
            if is_null(v1) or is_null(v2):
                continue
            if v1 != v2:
                return True
        return False

    def to_denial_constraints(self, db: Database) -> List[DenialConstraint]:
        """One denial constraint per rhs attribute.

        ``lhs → A`` becomes ``¬∃(R(..x̄..y..) ∧ R(..x̄..z..) ∧ y ≠ z)``.
        """
        rel = db.schema.relation(self.relation)
        lhs_pos = set(rel.positions(self.lhs))
        out = []
        for attr in self.rhs:
            target = rel.position(attr)
            terms1: List[object] = []
            terms2: List[object] = []
            for i, a in enumerate(rel.attributes):
                if i in lhs_pos:
                    shared = Var(f"x{i}")
                    terms1.append(shared)
                    terms2.append(shared)
                elif i == target:
                    terms1.append(Var("y_cmp"))
                    terms2.append(Var("z_cmp"))
                else:
                    terms1.append(Var(f"u{i}"))
                    terms2.append(Var(f"v{i}"))
            dc = DenialConstraint(
                (
                    Atom(self.relation, tuple(terms1)),
                    Atom(self.relation, tuple(terms2)),
                ),
                (Comparison("!=", Var("y_cmp"), Var("z_cmp")),),
                name=f"{self.name}[{attr}]",
            )
            out.append(dc)
        return out

    def __repr__(self) -> str:
        return (
            f"{self.name}: {self.relation}: "
            f"{','.join(self.lhs)} -> {','.join(self.rhs)}"
        )


def key_constraint(
    db_or_schema, relation: str, key: Tuple[str, ...] = None, name: str = None
) -> FunctionalDependency:
    """A key constraint as the FD ``key → all other attributes``.

    *db_or_schema* may be a :class:`Database` or a :class:`Schema`.  When
    *key* is omitted, the relation schema's declared primary key is used.
    """
    schema = getattr(db_or_schema, "schema", db_or_schema)
    rel = schema.relation(relation)
    if key is None:
        if rel.key is None:
            raise ConstraintError(
                f"relation {relation!r} declares no primary key"
            )
        key = rel.key
    rest = tuple(a for a in rel.attributes if a not in key)
    if not rest:
        raise ConstraintError(
            f"key {key} covers all attributes of {relation!r}; "
            "the constraint would be vacuous"
        )
    return FunctionalDependency(
        relation, tuple(key), rest, name=name or f"Key[{relation}]"
    )
