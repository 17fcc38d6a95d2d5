"""Cardinality repairs — C-repairs (Section 4.1).

C-repairs are the S-repairs that additionally minimize ``|D Δ D'|``.
In Example 4.1 the S-repair {B(a), C(a)} deletes three tuples while the
other three S-repairs delete two, so only the latter are C-repairs.

For denial-class constraints the C-repairs are the product, over the
conflict components, of each component's *minimum* hitting-set
complements (:mod:`repro.repairs.product`), each computed by the
minimal-hitting-set search under a bound, the best size found so far —
typically far cheaper than enumerating all S-repairs first (the ablation
pair of benchmark B3).
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence

from ..constraints.base import IntegrityConstraint, denial_class_only
from ..errors import BudgetExceededError
from ..observability import add, annotate, span
from ..relational.database import Database
from ..runtime import (
    Budget,
    BudgetExhaustion,
    Partial,
    resolve_budget,
    use_budget,
)
from .base import Repair, cardinality_minimal, sort_repairs
from .product import ComponentProduct
from .srepairs import s_repairs_partial


def c_repairs(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    max_steps: Optional[int] = None,
    engine: str = "auto",
) -> List[Repair]:
    """All C-repairs of *db* under *constraints*.

    ``engine="auto"`` takes the product of the conflict components'
    minimum kept sets for denial-class constraints and falls back to
    filtering S-repairs otherwise; ``engine="filter"`` forces the
    filtering baseline.

    Deadline/step exhaustion of an active execution budget raises
    :class:`~repro.errors.BudgetExceededError`; use
    :func:`c_repairs_partial` for the anytime best-so-far result.
    """
    partial = c_repairs_partial(
        db, constraints, max_steps=max_steps, engine=engine
    )
    return partial.unwrap(strict=partial.hit_resource_limit)


def c_repairs_partial(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    max_steps: Optional[int] = None,
    engine: str = "auto",
    budget: Optional[Budget] = None,
    limit: Optional[int] = None,
) -> "Partial[List[Repair]]":
    """Anytime C-repair computation, at most *limit* repairs.

    ``engine="auto"`` solves every conflict component first, then builds
    the repairs of the :class:`ComponentProduct` one at a time.  A run
    cut short returns the certified C-repairs it has built or, with
    none, one S-repair whose unsolved components keep their greedy kept
    sets: best-so-far, of size ``detail["distance_bound"]``, an upper
    bound on the C-repair distance.  A result truncated only by *limit*
    (``exhausted`` is ``count``) holds certified C-repairs.
    """
    if engine not in ("auto", "filter"):
        raise ValueError(f"unknown engine {engine!r}")
    budget = resolve_budget(budget)
    by_product = engine == "auto" and denial_class_only(constraints)
    name = "branch-and-bound" if by_product else "filter"
    with span("repairs.c_repairs", engine=name):
        if by_product:
            product, repairs, exhausted = None, [], None
            with use_budget(budget):
                try:
                    product = ComponentProduct(db, constraints, "c")
                    for repair in itertools.islice(product.repairs(), limit):
                        repair.sort_key  # keyed now, inside the budget
                        repairs.append(repair)
                    if limit is not None and product.count() > limit:
                        exhausted = BudgetExhaustion.COUNT
                except BudgetExceededError as exc:
                    if budget is not None and budget.strict:
                        raise
                    exhausted = BudgetExhaustion(exc.reason)
                    if not repairs and product is not None:
                        repairs.append(product.best_so_far())
            repairs = sort_repairs(repairs)
        else:
            all_s = s_repairs_partial(
                db, constraints, max_steps=max_steps, budget=budget
            )
            repairs = sort_repairs(cardinality_minimal(all_s.value))
            exhausted = all_s.exhausted
            if limit is not None and len(repairs) > limit:
                del repairs[limit:]
                exhausted = exhausted or BudgetExhaustion.COUNT
        add("repairs.c_emitted", len(repairs))
        if exhausted is None:
            return Partial.done(repairs, budget)
        add("repairs.c_truncated")
        annotate(truncated=exhausted.value)
        bound = min((r.size for r in repairs), default=None)
        return Partial.truncated(
            repairs, exhausted, budget, distance_bound=bound
        )


def repair_distance(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
) -> int:
    """``min |D Δ D'|`` over repairs D' — the C-repair distance: under
    denial-class constraints the sum of the per-component minima.

    This is the quantity the repair-based inconsistency measures of
    Section 8 (refs [16, 17]) normalize.
    """
    if denial_class_only(constraints):
        return ComponentProduct(db, constraints, "c").distance()
    repairs = c_repairs(db, constraints)
    if not repairs:
        return 0
    return repairs[0].size
