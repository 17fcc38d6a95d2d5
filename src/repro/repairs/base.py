"""Repair objects and shared helpers.

A repair (Section 3.1) is a consistent instance over the same schema whose
symmetric difference with the original is minimal — under set inclusion
for S-repairs, under cardinality for C-repairs.  :class:`Repair` is that
difference: the tids of the original it deletes and the facts it inserts
(a tgd repair's null-padded witnesses, Section 4.2).  The repaired
instance is built from them only when a caller reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import FrozenSet, Iterable, List, Sequence, Tuple

from ..constraints.base import IntegrityConstraint, all_satisfied
from ..relational.database import Database, Fact


@dataclass(frozen=True)
class Repair:
    """A repair of *original* as its difference from it: the tids it
    deletes and the facts, none of them in *original*, it inserts."""

    original: Database
    deleted_tids: FrozenSet[str]
    inserted: FrozenSet[Fact] = frozenset()

    @cached_property
    def instance(self) -> Database:
        """The repaired instance, built the first time it is read and
        then kept (inserted facts take fresh tids in ``repr`` order)."""
        return self.original.delete_tids(self.deleted_tids).insert(
            sorted(self.inserted, key=repr)
        )

    @property
    def deleted(self) -> FrozenSet[Fact]:
        """Facts of the original missing from the repair."""
        return frozenset(map(self.original.fact_by_tid, self.deleted_tids))

    @property
    def diff(self) -> FrozenSet[Fact]:
        """The symmetric difference ``D Δ D'``."""
        return self.deleted | self.inserted

    @property
    def size(self) -> int:
        """``|D Δ D'|`` — the quantity C-repairs minimize."""
        return len(self.deleted_tids) + len(self.inserted)

    @cached_property
    def sort_key(self) -> Tuple[int, List[str]]:
        """The size, then the sorted ``repr``s of the difference: the
        order :func:`sort_repairs` lists repairs in.  Computed once; a
        producer that sorts reads it as it builds each repair, inside
        its budget."""
        fact_by_tid = self.original.fact_by_tid
        return (self.size, sorted(
            [repr(fact_by_tid(tid)) for tid in self.deleted_tids]
            + [repr(f) for f in self.inserted]
        ))

    def is_consistent_under(
        self, constraints: Sequence[IntegrityConstraint]
    ) -> bool:
        """Does the repaired instance satisfy the constraints?"""
        return all_satisfied(self.instance, constraints)

    def __repr__(self) -> str:
        return (
            f"Repair(-{sorted(map(repr, self.deleted))}, "
            f"+{sorted(map(repr, self.inserted))})"
        )


def minimal_repairs(repairs: Iterable[Repair]) -> List[Repair]:
    """Filter to repairs whose diffs are inclusion-minimal."""
    by_diff = {}
    for r in repairs:
        by_diff.setdefault(r.diff, r)
    diffs = sorted(by_diff, key=len)
    kept: List[FrozenSet[Fact]] = []
    out: List[Repair] = []
    for d in diffs:
        if not any(k <= d for k in kept):
            kept.append(d)
            out.append(by_diff[d])
    return out


def cardinality_minimal(repairs: Sequence[Repair]) -> List[Repair]:
    """Filter to repairs of minimum ``|D Δ D'|``."""
    if not repairs:
        return []
    best = min(r.size for r in repairs)
    return [r for r in repairs if r.size == best]


def sort_repairs(repairs: Iterable[Repair]) -> List[Repair]:
    """Deterministic ordering (by size, then by rendered diff): each
    repair's :attr:`~Repair.sort_key`."""
    return sorted(repairs, key=attrgetter("sort_key"))
