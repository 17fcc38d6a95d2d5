"""Attribute-level null-based repairs (Section 4.3, Example 4.4).

Repairs change individual attribute values to NULL so that, under SQL
null semantics, the offending joins of a denial constraint can no longer
be satisfied.  A repair is characterized by its *change set* — positions
``tid[pos]`` set to NULL — minimal under set inclusion (Example 4.4's
``{ι6[1]}`` and ``{ι1[2], ι3[2]}``).

For a violation of a DC, the candidate positions are those whose nulling
falsifies the instantiated body: positions matched against a constant of
the constraint, against a variable occurring in more than one position,
or against a variable used in a comparison.  Positions holding a variable
that occurs once and is never compared are irrelevant — the null row
still matches the pattern.  Minimal change sets are then exactly the
minimal hitting sets of the violations' candidate-position sets; setting
values to NULL never *creates* a DC violation, so hitting every current
violation suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from ..constraints.base import IntegrityConstraint, all_satisfied
from ..constraints.conflicts import ConflictHypergraph
from ..constraints.denial import DenialConstraint
from ..errors import RepairError
from ..logic.evaluation import witnesses
from ..relational.database import Database
from ..relational.nulls import NULL
from ..runtime import Budget, Partial, resolve_budget, use_budget

Position = Tuple[str, int]  # (tid, attribute position)


@dataclass(frozen=True)
class AttributeRepair:
    """An attribute-level repair: the change set and the repaired instance."""

    original: Database
    changes: FrozenSet[Position]
    instance: Database

    @property
    def size(self) -> int:
        """Number of values changed to NULL."""
        return len(self.changes)

    def change_labels(self) -> Tuple[str, ...]:
        """Changes rendered in the paper's notation, e.g. ``t6[1]``.

        Positions are reported 1-based, as in the paper ("the tids use
        position 0").
        """
        return tuple(
            f"{tid}[{pos + 1}]" for tid, pos in sorted(self.changes)
        )

    def __repr__(self) -> str:
        return f"AttributeRepair({{{', '.join(self.change_labels())}}})"


def attribute_repairs(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    limit: Optional[int] = None,
) -> List[AttributeRepair]:
    """All minimal attribute-level null repairs under denial constraints.

    Note: the paper's Example 4.4 displays two representative repairs of
    this instance; under the literal definition (change sets minimal under
    set inclusion) there are additional incomparable minimal change sets,
    all of which this function returns.  EXPERIMENTS.md records the
    comparison.

    ``limit`` is enforced during the hitting-set search (the historical
    implementation over-enumerated ``4 * limit`` candidates, then
    sliced).  Budget exhaustion raises
    :class:`~repro.errors.BudgetExceededError`; use
    :func:`attribute_repairs_partial` for the anytime prefix.
    """
    partial = attribute_repairs_partial(db, constraints, limit=limit)
    return partial.unwrap(strict=partial.hit_resource_limit)


def attribute_repairs_partial(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    limit: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> "Partial[List[AttributeRepair]]":
    """Anytime attribute-repair enumeration: a sound prefix.

    Every change set is a minimal hitting set of the full violation
    family, and each repair is built as the search finds its set, so
    truncation never leaks a non-minimal repair.
    """

    def repair(changes: FrozenSet[Position]) -> AttributeRepair:
        instance = _apply_changes(db, changes)
        # Nulling is monotone for DCs, so this holds by construction;
        # assert defensively because downstream causality relies on it.
        if not all_satisfied(instance, constraints):
            raise RepairError(
                f"internal error: change set {sorted(changes)} did not "
                "restore consistency"
            )
        return AttributeRepair(db, frozenset(changes), instance)

    budget = resolve_budget(budget)
    with use_budget(budget):
        candidates = _violation_candidates(db, constraints)
        if candidates is None:
            return Partial.done([], budget)
        partial = candidates._built(repair, limit, budget)
    return partial.map(
        lambda out: sorted(out, key=lambda r: (r.size, r.change_labels()))
    )


def c_attribute_repairs(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
) -> List[AttributeRepair]:
    """Attribute repairs with minimum-cardinality change sets."""
    repairs = attribute_repairs(db, constraints)
    if not repairs:
        return []
    best = min(r.size for r in repairs)
    return [r for r in repairs if r.size == best]


# ----------------------------------------------------------------------


def _violation_candidates(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
) -> Optional[ConflictHypergraph]:
    """The hypergraph over positions whose edges are the violations'
    candidate-position sets (one per fact set, however many bindings
    reach it); None when some violation has no candidate (no attribute
    repair exists)."""
    candidate_sets: Set[FrozenSet[Position]] = set()
    for ic in constraints:
        if not isinstance(ic, DenialConstraint):
            raise RepairError(
                "attribute-level null repairs are defined for denial "
                f"constraints; got {type(ic).__name__}"
            )
        relevant = ic.join_positions()
        for _, facts in witnesses(db, ic.atoms, ic.conditions):
            positions: Set[Position] = set()
            for atom_index, fact in enumerate(facts):
                tid = db.tid_of(fact)
                for _, pos in (
                    p for p in relevant if p[0] == atom_index
                ):
                    positions.add((tid, pos))
            if not positions:
                return None
            candidate_sets.add(frozenset(positions))
    return ConflictHypergraph(
        frozenset().union(*candidate_sets), frozenset(candidate_sets)
    )


def _apply_changes(db: Database, changes) -> Database:
    instance = db
    for tid, pos in sorted(changes):
        instance = instance.update_value(tid, pos, NULL)
    return instance
