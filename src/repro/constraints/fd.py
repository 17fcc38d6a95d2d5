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
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ConstraintError, SplitDeclinedError
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

    @staticmethod
    def _grouped(
        rows: Iterable[Row], lhs_pos: Tuple[int, ...]
    ) -> Tuple[Dict[object, Row], Dict[object, List[Row]]]:
        """One pass: each lhs value's first row, and the rows of each
        value held by two or more (a NaN groups by identity)."""
        key_of = itemgetter(*lhs_pos)
        first: Dict[object, Row] = {}
        shared: Dict[object, List[Row]] = {}
        for values in rows:
            key = key_of(values)
            seen = first.setdefault(key, values)
            if seen is not values:
                group = shared.get(key)
                if group is None:
                    shared[key] = [seen, values]
                else:
                    group.append(values)
        return first, shared

    def violations(self, db: Database) -> List[Violation]:
        """Pairs of facts agreeing on lhs but differing on some rhs value.

        Listed in :meth:`Database.relation` order, from one unsorted
        pass over the stored rows: only groups of two or more rows are
        sorted, and ordered by their smallest row, which is where the
        sorted scan meets each group first.
        """
        lhs_pos, rhs_pos = self._positions(db)
        _, shared = self._grouped(db.stored_rows(self.relation), lhs_pos)
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

    def split(
        self, db: Database
    ) -> Tuple[List[Row], Dict[Row, List[List[Row]]]]:
        """The rows every S-repair keeps, and per other lhs value (a
        tuple) the alternatives each S-repair keeps one of, all in
        :meth:`Database.relation` order, so sums over them do not
        depend on the order the facts came in.

        A row with NULL in its lhs, or an all-NULL rhs, conflicts with
        nothing.  The other rows of an lhs value form classes by rhs (a
        NaN row alone) that conflict exactly when they differ.  Where a
        NULL beside a value in a wide rhs meets two such classes, the
        classes are those of "does not conflict" instead; where that
        relation is not transitive, a row agreeing with two rows that
        conflict, :class:`SplitDeclinedError` names the NULL's row.
        """
        lhs_pos, rhs_pos = self._positions(db)
        first, shared = self._grouped(db.relation(self.relation), lhs_pos)
        kept, groups = [], {}
        for key, row in first.items():
            rows = shared.get(key, (row,))
            lhs = key if len(lhs_pos) > 1 else (key,)
            if any(map(is_null, lhs)):
                kept += rows
                continue
            classes: Dict[object, List[Row]] = {}
            partial, rivals = None, []
            for values in rows:
                rhs = tuple(values[p] for p in rhs_pos)
                nulls = sum(map(is_null, rhs))
                if nulls == len(rhs):
                    kept.append(values)
                    continue
                partial = values if nulls else partial
                rivals.append(values)
                label = rhs if all(v == v for v in rhs) else id(values)
                classes.setdefault(label, []).append(values)
            alternatives = list(classes.values()) or [[]]  # all-NULL rhs
            if partial is not None and len(classes) > 1:
                alternatives = self._agreeing(rivals, rhs_pos)
                if alternatives is None:
                    raise SplitDeclinedError(
                        f"{self!r}: {partial!r} holds a NULL beside a "
                        f"value, and the conflicts of group {lhs!r} form "
                        "no alternatives"
                    )
            groups[lhs] = alternatives
        return kept, groups

    def _agreeing(
        self, rows: List[Row], rhs_pos: Tuple[int, ...]
    ) -> Optional[List[List[Row]]]:
        """The classes of one lhs value's *rows* under "does not
        conflict", in order, or None where that relation is not
        transitive: then the sets of rows that two rows agree with
        overlap without being equal."""
        facts = [Fact(self.relation, values) for values in rows]
        classes = dict.fromkeys(
            tuple(
                g.values for g in facts
                if g is f or not self._conflicting(f, g, rhs_pos)
            )
            for f in facts
        )
        if sum(map(len, classes)) != len(rows):
            return None
        return [list(members) for members in classes]

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
