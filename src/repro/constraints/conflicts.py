"""Conflict hypergraphs (Example 4.1, Figure 1).

For denial-class constraints, the tuples of an inconsistent instance form
a hypergraph: nodes are the database tuples, and each violation is a
hyperedge connecting the tuples that jointly violate a constraint.
S-repairs are exactly the maximal independent sets of this hypergraph
(equivalently, complements of minimal hitting sets of the edge set), and
C-repairs are the complements of minimum hitting sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set

from ..errors import BudgetExceededError, ConstraintError
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
from .base import IntegrityConstraint, all_violations, denial_class_only


class _LimitReached(Exception):
    """Internal: the requested number of minimal sets was found."""


@dataclass(frozen=True)
class ConflictHypergraph:
    """Nodes are tids; hyperedges are frozensets of tids."""

    nodes: FrozenSet[str]
    edges: FrozenSet[FrozenSet[str]]

    @staticmethod
    def build(
        db: Database, constraints: Sequence[IntegrityConstraint]
    ) -> "ConflictHypergraph":
        """Build the conflict hypergraph of *db* under denial-class ICs."""
        if not denial_class_only(constraints):
            raise ConstraintError(
                "conflict hypergraphs require denial-class constraints "
                "(keys, FDs, DCs, CFDs); tgds admit insertions"
            )
        with span("conflicts.build"):
            edges: Set[FrozenSet[str]] = set()
            for violation in all_violations(db, constraints):
                budget_checkpoint()
                edges.add(frozenset(db.tid_of(f) for f in violation.facts))
            add("conflicts.nodes", len(db))
            add("conflicts.edges", len(edges))
            return ConflictHypergraph(
                frozenset(db.tids()), frozenset(edges)
            )

    @staticmethod
    def of(
        db: Database, constraints: Sequence[IntegrityConstraint]
    ) -> "ConflictHypergraph":
        """The conflict hypergraph of *db* under *constraints*, built
        by :meth:`build` at most once per instance and kept on it.

        The graph lives exactly as long as the instance: a derived
        instance starts without it and a pickle leaves it behind
        (:class:`~repro.relational.database.Database`).  The build runs
        under the caller's budget; one cut short publishes nothing.  No
        lock: the result is published with one ``setdefault``, so two
        threads may both build, but they build equal graphs.
        """
        key = tuple(constraints)
        graph = db._graphs.get(key)
        if graph is None:
            # Looked up on the class at call time, so a wrapped build
            # (servebench's ``dispatch.shape`` span) sees every build.
            graph = db._graphs.setdefault(
                key, ConflictHypergraph.build(db, key)
            )
        return graph

    def is_independent(self, tids: Iterable[str]) -> bool:
        """True when *tids* contains no complete hyperedge."""
        chosen = set(tids)
        return not any(edge <= chosen for edge in self.edges)

    def conflicting_tids(self) -> FrozenSet[str]:
        """Tids participating in at least one conflict."""
        out: Set[str] = set()
        for edge in self.edges:
            out |= edge
        return frozenset(out)

    def conflict_free_tids(self) -> FrozenSet[str]:
        """Tids in no conflict: the 'certain core' of the instance."""
        return self.nodes - self.conflicting_tids()

    def components(self) -> List[FrozenSet[str]]:
        """The connected components of the conflicting tids.

        Two tids are adjacent when some edge holds both.  No edge
        crosses components, so a repair chooses its kept tuples in each
        component independently of the others (Example 4.1;
        :mod:`repro.cqa.local`).  Ordered by smallest tid, so the order
        never depends on set iteration order (``PYTHONHASHSEED``).
        """
        parent: dict = {}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for edge in self.edges:
            members = list(edge)
            for tid in members:
                parent.setdefault(tid, tid)
            root = find(members[0])
            for tid in members[1:]:
                parent[find(tid)] = root
        groups: dict = {}
        for tid in parent:
            groups.setdefault(find(tid), []).append(tid)
        return sorted(
            (frozenset(members) for members in groups.values()), key=min
        )

    def shape_stats(self) -> dict:
        """Structural statistics of the conflict graph.

        These are the shape parameters that govern CQA tractability
        (component size bounds repair enumeration; the degree bound
        controls hitting-set branching), recorded per request by the
        live telemetry plane and the flight recorder so engine
        selection can later key on them.
        Keys: ``nodes``, ``conflicting_nodes``, ``edges``,
        ``max_edge_arity``, ``max_degree``, ``components``,
        ``max_component_size`` (see :meth:`components`).

        Memoized on the instance: the dataclass is frozen and the node/
        edge sets immutable, so the union-find pass runs once per graph
        no matter how many requests consult it (invalidation is moot).
        Callers receive a fresh copy each time.
        """
        cached = getattr(self, "_shape_stats_cache", None)
        if cached is not None:
            return dict(cached)
        degree: dict = {}
        for edge in self.edges:
            for tid in edge:
                degree[tid] = degree.get(tid, 0) + 1
        sizes = [len(members) for members in self.components()]
        stats = {
            "nodes": len(self.nodes),
            "conflicting_nodes": len(degree),
            "edges": len(self.edges),
            "max_edge_arity": max((len(e) for e in self.edges), default=0),
            "max_degree": max(degree.values(), default=0),
            "components": len(sizes),
            "max_component_size": max(sizes, default=0),
        }
        # frozen=True blocks plain attribute writes; the cache is not
        # part of the value (equality/hash ignore it), so bypassing the
        # freeze here is sound.
        object.__setattr__(self, "_shape_stats_cache", stats)
        return dict(stats)

    # ------------------------------------------------------------------
    # Hitting sets / independent sets
    # ------------------------------------------------------------------

    def minimal_hitting_sets(
        self, limit: Optional[int] = None
    ) -> List[FrozenSet[str]]:
        """All inclusion-minimal hitting sets of the hyperedges.

        These are exactly the deletion sets of S-repairs.  *limit*
        bounds the number of sets returned — and, unlike the historical
        post-hoc slice, stops the search as soon as that many minimal
        sets are verified, so bounded calls do bounded work.  Deadline
        or step exhaustion of an ambient budget raises
        :class:`~repro.errors.BudgetExceededError`; use
        :meth:`minimal_hitting_sets_partial` for the anytime prefix.
        """
        partial = self.minimal_hitting_sets_partial(limit=limit)
        return partial.unwrap(strict=partial.hit_resource_limit)

    def minimal_hitting_sets_partial(
        self,
        limit: Optional[int] = None,
        budget: Optional[Budget] = None,
    ) -> "Partial[List[FrozenSet[str]]]":
        """Anytime enumeration of the inclusion-minimal hitting sets.

        Enumeration branches on the vertices of an uncovered edge.
        Every emitted set passes an exact local minimality check (each
        vertex has a private uncovered edge), so the prefix returned on
        budget exhaustion is *sound*: each element is a true minimal
        hitting set of the full edge set, never a superset that a
        deeper branch would have shrunk.
        """
        edges = sorted(self.edges, key=lambda e: (len(e), sorted(e)))
        budget = resolve_budget(budget)
        if not edges:
            return Partial.done([frozenset()], budget)
        # ``candidates`` keeps every completed hitting set (minimal or
        # not) for superset pruning; ``found`` holds the verified
        # minimal ones, in discovery order.
        candidates: Set[FrozenSet[str]] = set()
        found: List[FrozenSet[str]] = []

        def branch(chosen: Set[str], remaining: List[FrozenSet[str]]) -> None:
            add("conflicts.hitting_set_branches")
            budget_checkpoint()
            uncovered = [e for e in remaining if not (e & chosen)]
            if not uncovered:
                hitting = frozenset(chosen)
                if hitting not in candidates:
                    candidates.add(hitting)
                    if _is_minimal_hitting_set(hitting, edges):
                        if budget is not None:
                            budget.count_result()
                        found.append(hitting)
                        if limit is not None and len(found) >= limit:
                            raise _LimitReached
                return
            edge = min(uncovered, key=len)
            for vertex in sorted(edge):
                # Skip branches provably yielding supersets of an existing
                # candidate.
                chosen.add(vertex)
                if not any(c <= chosen for c in candidates):
                    branch(chosen, uncovered)
                else:
                    add("conflicts.superset_pruned")
                chosen.remove(vertex)

        exhausted: Optional[BudgetExhaustion] = None
        with span("conflicts.minimal_hitting_sets"):
            with use_budget(budget):
                try:
                    branch(set(), edges)
                except _LimitReached:
                    exhausted = BudgetExhaustion.COUNT
                except BudgetExceededError as exc:
                    if budget is not None and budget.strict:
                        raise
                    exhausted = BudgetExhaustion(exc.reason)
            minimal = sorted(found, key=lambda s: (len(s), sorted(s)))
            add("conflicts.minimal_hitting_sets", len(minimal))
            annotate(edges=len(edges), hitting_sets=len(minimal))
            if exhausted is None:
                return Partial.done(minimal, budget)
            add("conflicts.hitting_sets_truncated")
            annotate(truncated=exhausted.value)
            return Partial.truncated(minimal, exhausted, budget)

    def minimum_hitting_sets(self) -> List[FrozenSet[str]]:
        """All hitting sets of minimum cardinality (C-repair deletions)."""
        minimal = self.minimal_hitting_sets()
        if not minimal:
            return []
        best = min(len(s) for s in minimal)
        return [s for s in minimal if len(s) == best]

    def maximal_independent_sets(
        self, limit: Optional[int] = None
    ) -> List[FrozenSet[str]]:
        """All maximal independent sets = S-repairs (as tid sets)."""
        return [
            self.nodes - hitting
            for hitting in self.minimal_hitting_sets(limit=limit)
        ]

    # ------------------------------------------------------------------
    # Export / rendering
    # ------------------------------------------------------------------

    def to_networkx(self):
        """A bipartite networkx graph (tids vs. edge markers) for analysis."""
        import networkx as nx

        g = nx.Graph()
        for node in sorted(self.nodes):
            g.add_node(node, kind="tuple")
        for i, edge in enumerate(sorted(self.edges, key=sorted)):
            marker = f"e{i}"
            g.add_node(marker, kind="conflict")
            for node in edge:
                g.add_edge(marker, node)
        return g

    def render_ascii(self, db: Optional[Database] = None) -> str:
        """Text rendering of the hypergraph (regenerates Figure 1)."""
        lines = ["Conflict hypergraph"]
        label = (
            (lambda tid: f"{tid}={db.fact_by_tid(tid)!r}")
            if db is not None
            else (lambda tid: tid)
        )
        for i, edge in enumerate(
            sorted(self.edges, key=lambda e: (len(e), sorted(e)))
        ):
            members = ", ".join(label(t) for t in sorted(edge))
            lines.append(f"  edge e{i}: {{{members}}}")
        isolated = sorted(self.conflict_free_tids())
        if isolated:
            lines.append(
                "  conflict-free: " + ", ".join(label(t) for t in isolated)
            )
        return "\n".join(lines)


def _is_minimal_hitting_set(
    hitting: FrozenSet[str], edges: Sequence[FrozenSet[str]]
) -> bool:
    """Exact local minimality: every vertex owns a private edge.

    *hitting* is assumed to cover every edge.  It is inclusion-minimal
    iff each of its vertices is the sole cover of some edge — a check
    that needs no knowledge of the other hitting sets, which is what
    makes budget-truncated prefixes sound.
    """
    needed = {v: False for v in hitting}
    for edge in edges:
        covering = edge & hitting
        if len(covering) == 1:
            needed[next(iter(covering))] = True
    return all(needed.values())


def _inclusion_minimal(sets: Iterable[FrozenSet[str]]) -> List[FrozenSet[str]]:
    """Filter a family of sets to its inclusion-minimal members."""
    by_size = sorted(set(sets), key=len)
    minimal: List[FrozenSet[str]] = []
    for s in by_size:
        if not any(m <= s for m in minimal):
            minimal.append(s)
    return minimal
