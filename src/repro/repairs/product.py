"""Repairs as a product over conflict components (Section 4.1).

Under denial-class constraints no conflict crosses a connected component
of the conflict hypergraph (Example 4.1, Figure 1), so a repair chooses
its tuples in each component on its own: an S-repair keeps the
conflict-free tuples plus a maximal independent set (a *kept set*) per
component, a C-repair a maximum one per component.  So the C-repair
distance is the sum of the per-component minima, and the repair count
the product of the per-component counts.  :class:`ComponentProduct` is
that product for one call; every repair consumer reads it instead of
searching the whole graph.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Sequence,
    Set,
    Tuple,
)

from ..constraints.base import IntegrityConstraint
from ..constraints.conflicts import ConflictHypergraph, hitting_sets
from ..relational.database import Database
from ..runtime import check_deadline
from ..runtime import checkpoint as budget_checkpoint
from .base import Repair


class ComponentProduct:
    """The repairs of *db* under denial-class *constraints* as kept sets
    per component of the version's conflict graph, each component solved
    when a consumer first asks and remembered for the call; nothing is
    kept on the instance.

    Under ``"s"`` and ``"delete-only"`` (the same repairs under denial
    constraints) the kept sets are the complements of the minimal
    hitting sets, under ``"c"`` of the minimum ones.  Components come in
    smallest-tid order and kept sets in the search's sorted order, so a
    walk of the product never depends on ``PYTHONHASHSEED``.
    """

    def __init__(
        self,
        db: Database,
        constraints: Sequence[IntegrityConstraint],
        semantics: str = "s",
    ) -> None:
        if semantics not in ("s", "c", "delete-only"):
            raise ValueError(f"unknown repair semantics {semantics!r}")
        self.db = db
        self.semantics = semantics
        graph = ConflictHypergraph.of(db, constraints)
        self.members = graph.components()
        self.component_of: Dict[str, int] = {
            tid: index
            for index, members in enumerate(self.members)
            for tid in members
        }
        self._edges: List[List[FrozenSet[str]]] = [[] for _ in self.members]
        for edge in graph.edges:
            self._edges[self.component_of[next(iter(edge))]].append(edge)
        self._kept: Dict[int, Tuple[FrozenSet[str], ...]] = {}

    def __len__(self) -> int:
        return len(self.members)

    @property
    def solved(self) -> int:
        """How many components have been solved."""
        return len(self._kept)

    def kept_sets(self, index: int) -> Tuple[FrozenSet[str], ...]:
        """The tids component *index* keeps, one set per repair of it:
        exact, so budget exhaustion raises and leaves it unsolved."""
        kept = self._kept.get(index)
        if kept is None:
            component = ConflictHypergraph(
                self.members[index], frozenset(self._edges[index])
            )
            if self.semantics == "c":
                hitting = minimum_hitting_sets_branch_and_bound(component)
            else:
                hitting = component.minimal_hitting_sets_partial().unwrap(
                    strict=True
                )
            kept = self._kept[index] = tuple(
                component.nodes - deleted for deleted in hitting
            )
        return kept

    def greedy_kept(self, index: int, start: int = 0) -> FrozenSet[str]:
        """A maximal kept set of component *index* in one pass, no
        search: visit its tids in sorted order from the *start*-th
        (cyclically), keeping each one that completes no edge.  A tid
        turned away completes an edge with tids that stay kept, so the
        set is maximal."""
        tids = sorted(self.members[index])
        start %= len(tids)
        edges_of: Dict[str, List[FrozenSet[str]]] = {}
        for edge in self._edges[index]:
            for tid in edge:
                edges_of.setdefault(tid, []).append(edge)
        kept: Set[str] = set()
        for tid in tids[start:] + tids[:start]:
            kept.add(tid)
            if any(edge <= kept for edge in edges_of[tid]):
                kept.remove(tid)
        return frozenset(kept)

    def count(self) -> int:
        """The number of repairs (1 for a consistent instance)."""
        return math.prod(len(self.kept_sets(i)) for i in range(len(self)))

    def distance(self) -> int:
        """The C-repair distance ``min |D Δ D'|``."""
        return sum(
            len(members) - max(map(len, self.kept_sets(index)))
            for index, members in enumerate(self.members)
        )

    def repair(self, kept: Iterable[FrozenSet[str]]) -> Repair:
        """The repair keeping the *i*-th kept set of component *i* and
        every conflict-free tuple: it deletes the rest of each
        component."""
        return Repair(self.db, frozenset().union(*(
            members - chosen for members, chosen in zip(self.members, kept)
        )))

    def repairs(self) -> Iterator[Repair]:
        """Every repair, in product order, each built only when asked
        for, after one budget checkpoint and one read of the deadline
        (:func:`~repro.runtime.check_deadline`); every component is
        solved before the first."""
        choices = [self.kept_sets(i) for i in range(len(self))]
        for kept in itertools.product(*choices):
            budget_checkpoint()
            check_deadline()
            yield self.repair(kept)

    def greedy_repair(self, start: int = 0) -> Repair:
        """The S-repair of each component's greedy kept set from its
        *start*-th tid."""
        return self.repair(
            self.greedy_kept(i, start) for i in range(len(self))
        )

    def best_so_far(self) -> Repair:
        """One S-repair from what is solved: each solved component
        keeps its first kept set, each other its greedy one."""
        return self.repair(
            self._kept[i][0] if i in self._kept else self.greedy_kept(i)
            for i in range(len(self))
        )


def minimum_hitting_sets_branch_and_bound(
    graph: ConflictHypergraph,
) -> List[frozenset]:
    """All minimum-cardinality hitting sets of the hypergraph's edges,
    in sorted order: the minimal-hitting-set search
    (:func:`~repro.constraints.conflicts.hitting_sets`) under a size
    bound that a greedy pass seeds and each set found lowers.  Budget
    exhaustion raises :class:`~repro.errors.BudgetExceededError`.
    """
    edges = sorted(graph.edges, key=lambda e: (len(e), sorted(e)))
    if not edges:
        return [frozenset()]
    found = list(hitting_sets(edges, bound=_greedy_hitting_size(edges)))
    return sorted((s for s in found if len(s) == len(found[-1])), key=sorted)


def _greedy_hitting_size(edges: List[frozenset]) -> int:
    """Size of a greedy (max-degree) hitting set: an upper bound.

    Each step takes the vertex on the most uncovered edges, the least
    such in sorted order.  Degrees only fall, so a heap of ``(-degree,
    vertex)`` entries finds it: an entry whose degree is out of date is
    skipped.  Each edge is covered once and costs a heap push per
    vertex, where a recount per step passed over every uncovered edge:
    quadratic in the number of disjoint conflicts."""
    edges_of: Dict[str, List[int]] = {}
    for index, edge in enumerate(edges):
        for vertex in edge:
            edges_of.setdefault(vertex, []).append(index)
    degree = {vertex: len(ix) for vertex, ix in edges_of.items()}
    heap = [(-d, vertex) for vertex, d in degree.items()]
    heapq.heapify(heap)
    covered = [False] * len(edges)
    size = 0
    while heap:
        d, vertex = heapq.heappop(heap)
        if -d != degree[vertex]:
            continue
        size += 1
        for index in edges_of[vertex]:
            if covered[index]:
                continue
            covered[index] = True
            for other in edges[index]:
                degree[other] -= 1
                if degree[other]:
                    heapq.heappush(heap, (-degree[other], other))
    return size
