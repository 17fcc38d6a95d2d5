"""Tractable approximations of consistent answers (Section 3.2, [65, 69-71]).

Exact CQA is coNP-hard (or worse) in general, so the paper highlights
approximation as "a promising line of research".  Two polynomial
approximations are provided:

* a sound **under-approximation**: evaluate a monotone query on the
  *certain core* — the sub-instance of tuples involved in no conflict.
  Every core answer holds in every repair (the core is contained in each
  one), so core answers ⊆ Cons(Q, D, Σ);
* a complete **over-approximation**: intersect answers over a bounded
  sample of repairs, each built from greedy kept sets of the conflict
  components.  Certain answers survive every intersection, so
  Cons(Q, D, Σ) ⊆ the sampled intersection.

The gap between the two brackets the exact answer set, and benchmark B2
measures how tight the brackets are on random workloads.
"""

from __future__ import annotations

from typing import FrozenSet, Sequence

from ..constraints.base import IntegrityConstraint, denial_class_only
from ..constraints.conflicts import ConflictHypergraph
from ..errors import ConstraintError, RepairError
from ..observability import add
from ..relational.database import Database, Row
from ..repairs.product import ComponentProduct
from .certain import intersect_answers


def certain_core(
    db: Database, constraints: Sequence[IntegrityConstraint]
) -> Database:
    """The sub-instance of tuples participating in no violation."""
    if not denial_class_only(constraints):
        raise ConstraintError(
            "the certain core is defined for denial-class constraints"
        )
    graph = ConflictHypergraph.of(db, constraints)
    return db.restricted_to(graph.conflict_free_tids())


def underapproximate_answers(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    query,
) -> FrozenSet[Row]:
    """Sound under-approximation: the query on the certain core.

    Only valid for monotone queries (CQs/UCQs): the core is a subset of
    every repair, so every core answer is a certain answer.
    """
    return frozenset(query.answers(certain_core(db, constraints)))


def overapproximate_answers(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    query,
    sample_size: int = 8,
) -> FrozenSet[Row]:
    """Complete over-approximation: intersect over *sample_size*
    S-repairs, the *i*-th keeping each conflict component's greedy kept
    set from its *i*-th tid (no search)."""
    if sample_size < 1:
        raise RepairError("no repairs to sample")
    product = ComponentProduct(db, constraints)
    sample = [product.greedy_repair(i) for i in range(sample_size)]
    add("repairs.s_emitted", len(sample))
    return intersect_answers(query, sample)


def approximation_gap(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    query,
    sample_size: int = 8,
) -> int:
    """``|over| - |under|``: how tightly the brackets pin the answer."""
    lower = underapproximate_answers(db, constraints, query)
    upper = overapproximate_answers(
        db, constraints, query, sample_size=sample_size
    )
    return len(upper) - len(lower)
