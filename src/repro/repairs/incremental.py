"""Incremental repairs under updates (Section 4.1, after [87]).

"The investigation of repairs and CQA under updates has received little
attention; [87] just started to scratch the surface."  This module keeps
a conflict hypergraph up to date across tuple insertions and deletions.
Each update derives the next immutable instance, whose graph
:meth:`ConflictHypergraph.of` advances from the previous one's:

* deleting tuples only removes hyperedges (denial constraints are
  monotone under deletion);
* inserting tuples can only create violations *involving* a new tuple,
  so only bindings anchored at a new fact are evaluated.

Repairs of the updated instance are then read from the maintained graph
without recomputing old conflicts — benchmark B8 measures the gap.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..constraints.base import IntegrityConstraint, denial_class_only
from ..constraints.conflicts import ConflictHypergraph
from ..errors import RepairError
from ..relational.database import Database, Fact
from .base import Repair, sort_repairs
from .product import ComponentProduct


class IncrementalRepairer:
    """Maintains instance + conflict hypergraph across updates."""

    def __init__(
        self,
        db: Database,
        constraints: Sequence[IntegrityConstraint],
    ) -> None:
        if not denial_class_only(constraints):
            raise RepairError(
                "incremental repair maintenance needs denial-class "
                "constraints (monotone under deletion)"
            )
        self._db = db
        self._constraints = tuple(constraints)
        self._graph = ConflictHypergraph.of(db, self._constraints)

    # ------------------------------------------------------------------

    @property
    def database(self) -> Database:
        """The current instance."""
        return self._db

    @property
    def graph(self) -> ConflictHypergraph:
        """The current conflict hypergraph."""
        return self._graph

    def delete(self, facts: Iterable[Fact]) -> None:
        """Apply deletions; conflicts touching them disappear."""
        self._db = self._db.delete(facts)
        self._graph = ConflictHypergraph.of(self._db, self._constraints)

    def insert(self, facts: Iterable[Fact]) -> None:
        """Apply insertions; only conflicts anchored at them are found."""
        self._db = self._db.insert(facts)
        self._graph = ConflictHypergraph.of(self._db, self._constraints)

    # ------------------------------------------------------------------

    def s_repairs(self, limit: Optional[int] = None) -> List[Repair]:
        """S-repairs of the current instance from the maintained graph."""
        return sort_repairs(
            Repair(self._db, hitting)
            for hitting in self._graph.minimal_hitting_sets(limit=limit)
        )

    def c_repairs(self) -> List[Repair]:
        """C-repairs of the current instance: the component product of
        the maintained graph."""
        return sort_repairs(
            ComponentProduct(self._db, self._constraints, "c").repairs()
        )

    def is_consistent(self) -> bool:
        """True when the maintained graph has no edges."""
        return not self._graph.edges
