"""Counting repairs (Maslowski & Wijsen [90], Livshits & Kimelfeld [84]).

Counting S-repairs is #P-hard in general, but for a single functional
dependency the count has a closed form: conflicts partition the relation
into independent groups and the repair count is the product of per-group
counts.  Under other denial-class constraints the count is the product
of the conflict components' counts of minimal hitting sets
(:meth:`~repro.repairs.product.ComponentProduct.count`), exponential in
the largest component, not in the number of components.  With tgds the
count enumerates; benchmark B1 contrasts closed form and enumeration.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from ..constraints.base import IntegrityConstraint, denial_class_only
from ..constraints.fd import FunctionalDependency
from ..errors import SplitDeclinedError
from ..observability import add, span
from ..relational.database import Database
from .product import ComponentProduct
from .srepairs import s_repairs


def count_s_repairs(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    max_steps: Optional[int] = None,
) -> int:
    """The number of S-repairs of *db* under *constraints*.

    Uses the closed form when the constraint set is a single FD, the
    component product for other denial-class constraints, and full
    enumeration for tgds.
    """
    if len(constraints) == 1 and isinstance(
        constraints[0], FunctionalDependency
    ):
        return count_fd_repairs(db, constraints[0])
    if denial_class_only(constraints):
        with span("repairs.count", method="hypergraph"):
            count = ComponentProduct(db, constraints).count()
            add("repairs.counted", count)
            return count
    with span("repairs.count", method="enumerate"):
        count = len(s_repairs(db, constraints, max_steps=max_steps))
        add("repairs.counted", count)
        return count


def count_fd_repairs(db: Database, fd: FunctionalDependency) -> int:
    """Closed-form S-repair count for one FD: the product over lhs
    groups of their alternatives (``fd.split``), or where the split
    declines, the component product's count."""
    with span("repairs.count", method="closed-form"):
        try:
            count = math.prod(map(len, fd.split(db)[1].values()))
        except SplitDeclinedError:
            count = ComponentProduct(db, (fd,)).count()
        add("repairs.counted", count)
        return count


def count_repairs_per_group(
    db: Database, fd: FunctionalDependency
) -> List[Tuple[Tuple, int]]:
    """Per-lhs-group repair choice counts (diagnostic view of the
    above); :class:`~repro.errors.SplitDeclinedError` where the split
    declines."""
    groups = fd.split(db)[1]
    return sorted(
        ((key, len(alternatives)) for key, alternatives in groups.items()),
        key=lambda item: repr(item[0]),
    )
