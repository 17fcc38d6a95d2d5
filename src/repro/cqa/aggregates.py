"""Consistent answers to aggregate queries (Section 3.2, after [5]).

Arenas, Bertossi, Chomicki, He, Raghavan & Spinrad studied scalar
aggregation over inconsistent databases under FDs.  A single certain
value rarely exists — different repairs aggregate differently — so the
semantics is the *range* of the aggregate over the repair class:
``[glb, lub]``, the greatest lower and least upper bounds.

``range_consistent_answer`` computes the exact range by enumeration
(matching the paper's definition); for ``MIN``/``MAX``/``COUNT(*)``
under one FD there are polynomial shortcuts (``fd_range_*``), mirroring
the tractable cases identified in [5], and cross-checked against the
enumeration in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..constraints.base import IntegrityConstraint
from ..constraints.fd import FunctionalDependency
from ..errors import QueryError
from ..relational.database import Database
from ..relational.nulls import is_null
from ..repairs.srepairs import s_repairs

AGGREGATES = ("count", "sum", "min", "max", "avg")


@dataclass(frozen=True)
class AggregateQuery:
    """``SELECT agg(attribute) FROM relation`` (attribute None = COUNT(*))."""

    relation: str
    function: str
    attribute: Optional[str] = None

    def __post_init__(self) -> None:
        if self.function not in AGGREGATES:
            raise QueryError(
                f"unknown aggregate {self.function!r}; "
                f"choose from {AGGREGATES}"
            )
        if self.function != "count" and self.attribute is None:
            raise QueryError(
                f"{self.function} needs an attribute to aggregate"
            )

    def evaluate(self, db: Database) -> Optional[float]:
        """The aggregate value on one (consistent) instance."""
        rows = db.relation(self.relation)
        if self.attribute is None:
            return float(len(rows))
        position = db.schema.relation(self.relation).position(self.attribute)
        values = [
            row[position] for row in rows if not is_null(row[position])
        ]
        if self.function == "count":
            return float(len(values))
        if not values:
            return None
        if self.function == "sum":
            return float(sum(values))
        if self.function == "min":
            return float(min(values))
        if self.function == "max":
            return float(max(values))
        return float(sum(values)) / len(values)  # avg

    def __repr__(self) -> str:
        inner = self.attribute if self.attribute is not None else "*"
        return f"{self.function}({self.relation}.{inner})"


@dataclass(frozen=True)
class AggregateRange:
    """The range-consistent answer ``[glb, lub]``."""

    glb: Optional[float]
    lub: Optional[float]

    @property
    def is_point(self) -> bool:
        """True when every repair agrees on the value."""
        return self.glb == self.lub

    def __contains__(self, value: float) -> bool:
        if self.glb is None or self.lub is None:
            return False
        return self.glb <= value <= self.lub

    def __repr__(self) -> str:
        return f"[{self.glb}, {self.lub}]"


def range_consistent_answer(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    query: AggregateQuery,
    max_steps: Optional[int] = None,
) -> AggregateRange:
    """The exact aggregate range over all S-repairs (enumeration)."""
    repairs = s_repairs(db, constraints, max_steps=max_steps)
    values = [query.evaluate(r.instance) for r in repairs]
    concrete = [v for v in values if v is not None]
    if not concrete:
        return AggregateRange(None, None)
    return AggregateRange(min(concrete), max(concrete))


# ----------------------------------------------------------------------
# Polynomial shortcuts for one FD (the tractable cases of [5])
# ----------------------------------------------------------------------


def _fd_groups(
    db: Database, fd: FunctionalDependency, attribute: Optional[str],
    sign: float = 1.0,
) -> List[List[List[float]]]:
    """The aggregated column, times *sign*, split by repair choice
    (:meth:`~repro.constraints.fd.FunctionalDependency.split`): per
    group, the values of each alternative, one of which every S-repair
    keeps.  The first group is the rows every repair keeps, as one
    alternative; ``attribute=None`` gives a 1 per row.
    :class:`~repro.errors.SplitDeclinedError` where the split declines.
    """
    kept, split = fd.split(db)
    rel = db.schema.relation(fd.relation)
    at = None if attribute is None else rel.position(attribute)

    def values(rows) -> List[float]:
        if at is None:
            return [1.0] * len(rows)
        return [sign * float(r[at]) for r in rows if not is_null(r[at])]

    fixed = values(kept)
    groups = [[fixed]]
    for alternatives in split.values():
        if len(alternatives) == 1:
            fixed += values(alternatives[0])
        else:
            groups.append([values(rows) for rows in alternatives])
    return groups


def _sum_bounds(
    groups: List[List[List[float]]],
) -> Tuple[Optional[float], Optional[float]]:
    """SUM's (glb, lub) over the repairs that keep a value: groups
    choose independently, so a bound adds up their extreme choices,
    and where those keep no value (no SUM, as in the enumeration) it
    moves the group that costs it least onto an alternative with one."""
    sums = [[sum(c) for c in choices] for choices in groups]

    def bound(pick) -> Optional[float]:
        moves = [
            pick(s for s, c in zip(group, choices) if c) - pick(group)
            for group, choices in zip(sums, groups)
            if any(choices)
        ]
        if not moves:
            return None
        return float(sums[0][0] + sum(map(pick, sums[1:])) + pick(moves))

    return bound(min), bound(max)


def fd_range_count_star(
    db: Database, fd: FunctionalDependency
) -> AggregateRange:
    """COUNT(*) range under one FD, in polynomial time: SUM's over a
    1 per row, and 0 on an empty relation."""
    glb, lub = _sum_bounds(_fd_groups(db, fd, None))
    return AggregateRange(glb or 0.0, lub or 0.0)


def fd_range_sum(
    db: Database, fd: FunctionalDependency, attribute: str
) -> AggregateRange:
    """SUM(attribute) range under one FD, in polynomial time."""
    return AggregateRange(*_sum_bounds(_fd_groups(db, fd, attribute)))


def _min_bounds(
    groups: List[List[List[float]]],
) -> Tuple[Optional[float], Optional[float]]:
    """MIN's (glb, lub) over the repairs that keep a value: glb is the
    least value kept anywhere; lub takes per group the alternative with
    the largest minimum, or one with no value, which MIN skips, and
    failing all else the group whose best such minimum is largest."""
    glb, lub, skippable = [], [], []
    for choices in groups:
        mins = [min(c) for c in choices if c]
        if mins:
            glb.append(min(mins))
            full = len(mins) == len(choices)
            (lub if full else skippable).append(max(mins))
    if not glb:
        return None, None
    return float(min(glb)), float(min(lub) if lub else max(skippable))


def fd_range_min(
    db: Database, fd: FunctionalDependency, attribute: str
) -> AggregateRange:
    """MIN(attribute) range under one FD, in polynomial time."""
    return AggregateRange(*_min_bounds(_fd_groups(db, fd, attribute)))


def fd_range_max(
    db: Database, fd: FunctionalDependency, attribute: str
) -> AggregateRange:
    """MAX(attribute) range under one FD: MIN's over the negated
    column, negated."""
    glb, lub = _min_bounds(_fd_groups(db, fd, attribute, -1.0))
    if glb is None:
        return AggregateRange(None, None)
    return AggregateRange(-lub, -glb)
