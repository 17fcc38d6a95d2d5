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

from typing import Dict, List, Optional, Sequence, Tuple

from ..constraints.base import IntegrityConstraint, denial_class_only
from ..constraints.fd import FunctionalDependency
from ..observability import add, span
from ..relational.database import Database
from ..relational.nulls import is_null
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
    """Closed-form S-repair count for one FD ``lhs → rhs``.

    Tuples sharing an lhs value split into classes by their rhs value;
    an S-repair keeps exactly one rhs class per lhs group (tuples that
    agree on lhs *and* rhs never conflict).  The repair count is the
    product over lhs groups of the number of distinct rhs classes.
    """
    with span("repairs.count", method="closed-form"):
        rel = db.schema.relation(fd.relation)
        lhs_pos = rel.positions(fd.lhs)
        rhs_pos = rel.positions(fd.rhs)
        groups: Dict[Tuple, set] = {}
        for values in db.relation(fd.relation):
            key = tuple(values[p] for p in lhs_pos)
            if any(is_null(v) for v in key):
                continue
            rhs = tuple(values[p] for p in rhs_pos)
            if any(is_null(v) for v in rhs):
                # With NULLs on the right-hand side the conflict relation
                # is no longer an equivalence on rhs classes; fall back to
                # the component product, which handles SQL null
                # semantics exactly.
                count = ComponentProduct(db, (fd,)).count()
                add("repairs.counted", count)
                return count
            groups.setdefault(key, set()).add(rhs)
        count = 1
        for rhs_classes in groups.values():
            count *= max(1, len(rhs_classes))
        add("repairs.counted", count)
        return count


def count_repairs_per_group(
    db: Database, fd: FunctionalDependency
) -> List[Tuple[Tuple, int]]:
    """Per-lhs-group repair choice counts (diagnostic view of the above)."""
    rel = db.schema.relation(fd.relation)
    lhs_pos = rel.positions(fd.lhs)
    rhs_pos = rel.positions(fd.rhs)
    groups: Dict[Tuple, set] = {}
    for values in db.relation(fd.relation):
        key = tuple(values[p] for p in lhs_pos)
        if any(is_null(v) for v in key):
            continue
        groups.setdefault(key, set()).add(
            tuple(values[p] for p in rhs_pos)
        )
    return sorted(
        ((key, len(classes)) for key, classes in groups.items()),
        key=lambda item: repr(item[0]),
    )
