"""Repair-based degrees of database inconsistency (Section 8, [16, 17]).

"The problem we first started thinking about in those early days, that of
measuring the degree of inconsistency of a database": repairs give a
natural basis.  The cardinality-repair measure normalizes the C-repair
distance; the g3-style measure looks at maximum consistent subinstances;
the violation ratio simply counts tuples in conflicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..constraints.base import IntegrityConstraint, denial_class_only
from ..constraints.conflicts import ConflictHypergraph
from ..relational.database import Database
from ..repairs.crepairs import repair_distance
from ..repairs.srepairs import delete_only_repairs


def cardinality_repair_measure(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
) -> float:
    """``incons_C(D, Σ) = min_{repair D'} |D Δ D'| / |D|`` — in [0, 1]
    for deletion-repairable constraints, 0 iff consistent."""
    if len(db) == 0:
        return 0.0
    return repair_distance(db, constraints) / len(db)


def g3_measure(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
) -> float:
    """``1 - max{|D'| : D' ⊆ D consistent} / |D|`` (Kivinen–Mannila g3).

    For denial-class constraints this equals the cardinality-repair
    measure up to rounding: the largest consistent subinstance keeps
    all but the C-repair distance of the facts.
    """
    if len(db) == 0:
        return 0.0
    if denial_class_only(constraints):
        best = len(db) - repair_distance(db, constraints)
    else:
        repairs = delete_only_repairs(db, constraints)
        best = max(len(r.instance) for r in repairs)
    return 1.0 - best / len(db)


def violation_ratio(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
) -> float:
    """Fraction of tuples participating in at least one violation."""
    if len(db) == 0:
        return 0.0
    graph = ConflictHypergraph.of(db, constraints)
    return len(graph.conflicting_tids()) / len(db)


def more_consistent_than(
    db1: Database,
    db2: Database,
    constraints: Sequence[IntegrityConstraint],
    measure=cardinality_repair_measure,
) -> bool:
    """Is *db1* strictly more consistent than *db2* (same schema, same Σ)?

    The question the paper's authors first stared at on the blank board
    (Section 2) — answered here with the repair-based measures they
    eventually reached: smaller measure means more consistent.
    """
    return measure(db1, constraints) < measure(db2, constraints)


@dataclass(frozen=True)
class InconsistencyReport:
    """All measures side by side, plus the raw ingredients."""

    size: int
    repair_distance: int
    cardinality_measure: float
    g3: float
    violation_ratio: float
    per_constraint: Tuple[Tuple[str, int], ...]

    @staticmethod
    def of(
        db: Database,
        constraints: Sequence[IntegrityConstraint],
    ) -> "InconsistencyReport":
        """The measures of *db*: under denial-class constraints from one
        C-repair distance, with tgds each from its own repairs."""
        from ..constraints.base import ViolationSummary

        summary = ViolationSummary.of(db, constraints)
        size = len(db)
        distance = repair_distance(db, constraints)
        if denial_class_only(constraints):
            cardinality = distance / size if size else 0.0
            g3 = 1.0 - (size - distance) / size if size else 0.0
            ratio = violation_ratio(db, constraints)
        else:
            cardinality = cardinality_repair_measure(db, constraints)
            g3, ratio = g3_measure(db, constraints), float("nan")
        return InconsistencyReport(
            size, distance, cardinality, g3, ratio, summary.per_constraint
        )

    def render(self) -> str:
        lines = [
            f"instance size:        {self.size}",
            f"C-repair distance:    {self.repair_distance}",
            f"cardinality measure:  {self.cardinality_measure:.4f}",
            f"g3 measure:           {self.g3:.4f}",
            f"violation ratio:      {self.violation_ratio:.4f}",
        ]
        for name, count in self.per_constraint:
            lines.append(f"  violations of {name}: {count}")
        return "\n".join(lines)
