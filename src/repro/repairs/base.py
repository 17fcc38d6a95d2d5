"""Repair objects and shared helpers.

A repair (Section 3.1) is a consistent instance over the same schema whose
symmetric difference with the original is minimal — under set inclusion
for S-repairs, under cardinality for C-repairs.  :class:`Repair` keeps the
original alongside the repaired instance so the difference is always
available.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Iterable, List, Sequence

from ..constraints.base import IntegrityConstraint, all_satisfied
from ..relational.database import Database, Fact


@dataclass(frozen=True)
class Repair:
    """A repaired instance together with its difference from the original."""

    original: Database
    instance: Database

    @property
    def deleted(self) -> FrozenSet[Fact]:
        """Facts of the original missing from the repair."""
        return frozenset(f for f in self.diff if f in self.original)

    @property
    def inserted(self) -> FrozenSet[Fact]:
        """Facts of the repair missing from the original."""
        return frozenset(f for f in self.diff if f not in self.original)

    @cached_property
    def diff(self) -> FrozenSet[Fact]:
        """The symmetric difference ``D Δ D'``, computed once: sorting,
        sizing and rendering a repair all read it."""
        return self.original.symmetric_difference(self.instance)

    @property
    def size(self) -> int:
        """``|D Δ D'|`` — the quantity C-repairs minimize."""
        return len(self.diff)

    @property
    def deleted_tids(self) -> FrozenSet[str]:
        """Tids (in the original) of the deleted facts."""
        return frozenset(self.original.tid_of(f) for f in self.deleted)

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
    """Deterministic ordering (by size, then by rendered diff)."""
    return sorted(
        repairs, key=lambda r: (r.size, sorted(map(repr, r.diff)))
    )
