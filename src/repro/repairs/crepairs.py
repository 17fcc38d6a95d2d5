"""Cardinality repairs — C-repairs (Section 4.1).

C-repairs are the S-repairs that additionally minimize ``|D Δ D'|``.
In Example 4.1 the S-repair {B(a), C(a)} deletes three tuples while the
other three S-repairs delete two, so only the latter are C-repairs.

For denial-class constraints the C-repairs are the complements of the
*minimum* hitting sets of the conflict hypergraph, computed here with a
dedicated branch-and-bound that prunes on the best size found so far —
typically far cheaper than enumerating all S-repairs first (the ablation
pair of benchmark B3).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..constraints.base import IntegrityConstraint, denial_class_only
from ..constraints.conflicts import ConflictHypergraph, hitting_set_search
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
from ..runtime import checkpoint as budget_checkpoint
from .base import Repair, cardinality_minimal, sort_repairs
from .srepairs import s_repairs_partial


def c_repairs(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    max_steps: Optional[int] = None,
    engine: str = "auto",
) -> List[Repair]:
    """All C-repairs of *db* under *constraints*.

    ``engine="auto"`` uses branch-and-bound over the conflict hypergraph
    for denial-class constraints and falls back to filtering S-repairs
    otherwise; ``engine="filter"`` forces the filtering baseline.

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
    """Anytime C-repair computation.

    Unlike the S-repair prefix, a truncated C-repair result is only
    *best-so-far*: the returned repairs are genuine S-repairs of
    cardinality ``detail["distance_bound"]``, an upper bound on the true
    C-repair distance that a longer run might still undercut.  Only
    ``complete=True`` results are certified minimum.

    *limit* bounds the repairs returned.  The branch-and-bound keeps at
    most that many, the first it finds, and still runs to the end, so a
    result truncated only by it (``exhausted`` is ``count``) holds
    certified C-repairs.
    """
    if engine not in ("auto", "filter"):
        raise ValueError(f"unknown engine {engine!r}")
    budget = resolve_budget(budget)
    if engine == "auto" and denial_class_only(constraints):
        with span("repairs.c_repairs", engine="branch-and-bound"):
            with use_budget(budget):
                try:
                    graph = ConflictHypergraph.build(db, constraints)
                    hitting_sets, more = _branch_and_bound(graph, limit)
                    exhausted = BudgetExhaustion.COUNT if more else None
                except BudgetExceededError as exc:
                    if budget is not None and budget.strict:
                        raise
                    exhausted = BudgetExhaustion(exc.reason)
                    hitting_sets = getattr(exc, "best_so_far", [])
            repairs = sort_repairs(
                Repair(db, db.delete_tids(h)) for h in hitting_sets
            )
            add("repairs.c_emitted", len(repairs))
            if exhausted is None:
                return Partial.done(repairs, budget)
            add("repairs.c_truncated")
            annotate(truncated=exhausted.value)
            bound = min((r.size for r in repairs), default=None)
            return Partial.truncated(
                repairs, exhausted, budget, distance_bound=bound
            )
    with span("repairs.c_repairs", engine="filter"):
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
        bound = min((r.size for r in repairs), default=None)
        return Partial.truncated(
            repairs, exhausted, budget, distance_bound=bound
        )


def repair_distance(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
) -> int:
    """``min |D Δ D'|`` over repairs D' — the C-repair distance.

    This is the quantity the repair-based inconsistency measures of
    Section 8 (refs [16, 17]) normalize.
    """
    repairs = c_repairs(db, constraints)
    if not repairs:
        return 0
    return repairs[0].size


def minimum_hitting_sets_branch_and_bound(
    graph: ConflictHypergraph,
) -> List[frozenset]:
    """All minimum-cardinality hitting sets of the hypergraph's edges.

    Depth-first branch-and-bound: branch on the vertices of an uncovered
    edge, prune branches whose size reaches the best complete solution
    found so far.  A greedy pass seeds the initial bound.
    """
    return _branch_and_bound(graph, None)[0]


def _branch_and_bound(
    graph: ConflictHypergraph, limit: Optional[int]
) -> Tuple[List[frozenset], bool]:
    """The minimum hitting sets, at most *limit* of them (the first
    found), and whether there were more."""
    edges = sorted(graph.edges, key=lambda e: (len(e), sorted(e)))
    if not edges:
        return [frozenset()], False

    best_size = _greedy_hitting_size(edges)
    solutions: Set[frozenset] = set()
    more = False
    chosen: Set[str] = set()

    def branch(remaining: List[frozenset]) -> Optional[list]:
        """Enter a branch: record *chosen* if it covers *remaining*, or
        prune it, else return the frame that tries each vertex of its
        smallest uncovered edge: ``[uncovered, vertices, next]``."""
        nonlocal best_size, more
        add("repairs.bb_branches")
        budget_checkpoint()
        uncovered = [e for e in remaining if not (e & chosen)]
        if not uncovered:
            size = len(chosen)
            if size < best_size:
                best_size = size
                solutions.clear()
                more = False
            if size == best_size:
                hitting = frozenset(chosen)
                if limit is None or len(solutions) < limit:
                    solutions.add(hitting)
                elif hitting not in solutions:
                    more = True
            return None
        if len(chosen) + 1 > best_size:
            add("repairs.bb_pruned")
            return None
        return [uncovered, sorted(min(uncovered, key=len)), 0]

    try:
        hitting_set_search(branch, edges, chosen)
    except BudgetExceededError as exc:
        # Anytime hand-off: the solutions found so far (all of size
        # ``best_size``, an upper bound on the optimum) ride along on
        # the exception for c_repairs_partial to salvage, unsorted:
        # it orders the repairs, and a strict budget wants none.
        exc.best_so_far = list(solutions)
        raise
    return sorted(solutions, key=sorted), more


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
