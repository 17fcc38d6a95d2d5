"""Computing one repair without enumerating all of them.

Livshits, Kimelfeld & Roy [85] study computing a single optimal repair;
the paper lists "computing a particular repair" among the core algorithmic
problems (Section 3.2).  For denial-class constraints one S-repair is
computable in polynomial time: one greedy pass per conflict component
keeps each tuple that completes no conflict
(:meth:`~repro.repairs.product.ComponentProduct.greedy_kept`).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional, Sequence

from ..constraints.base import IntegrityConstraint, denial_class_only
from ..errors import RepairError
from ..relational.database import Database
from .base import Repair
from .product import ComponentProduct
from .srepairs import s_repairs


def one_s_repair(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    max_steps: Optional[int] = None,
) -> Repair:
    """Compute a single S-repair.

    Polynomial for denial-class constraints (the greedy kept sets of the
    conflict components); falls back to taking the first enumerated
    repair otherwise.
    """
    if denial_class_only(constraints):
        return ComponentProduct(db, constraints).greedy_repair()
    repairs = s_repairs(db, constraints, limit=1, max_steps=max_steps)
    if not repairs:
        raise RepairError("no repair found within the search bound")
    return repairs[0]


def one_c_repair(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    max_steps: Optional[int] = None,
) -> Repair:
    """Compute a single C-repair: for denial ICs, the first of the
    component product's minimum kept sets, built alone."""
    if denial_class_only(constraints):
        return next(ComponentProduct(db, constraints, "c").repairs())
    repairs = s_repairs(db, constraints, max_steps=max_steps)
    if not repairs:
        raise RepairError("no repair found within the search bound")
    return min(repairs, key=attrgetter("sort_key"))
