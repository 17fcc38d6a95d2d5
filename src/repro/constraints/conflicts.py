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
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import BudgetExceededError, ConstraintError
from ..logic.evaluation import Evaluator
from ..logic.formulas import And
from ..observability import add, annotate, span
from ..relational.database import Database, Fact, Lineage
from ..runtime import (
    Budget,
    BudgetExhaustion,
    Partial,
    resolve_budget,
    use_budget,
)
from ..runtime import checkpoint as budget_checkpoint
from .base import IntegrityConstraint, all_violations, denial_class_only
from .cfd import ConditionalFunctionalDependency
from .denial import DenialConstraint
from .fd import FunctionalDependency


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
        """The conflict hypergraph of *db* under *constraints*, made at
        most once per instance and kept on it.

        A derived instance advances the graph of its nearest ancestor
        that anyone read by the delta between them (its
        :class:`~repro.relational.database.Lineage`, see
        :meth:`_advanced`); any other instance, or one whose delta no
        rule covers, calls :meth:`build`.  The graph lives exactly as
        long as the instance, and a pickle leaves it behind.  The work
        runs under the caller's budget; work cut short publishes
        nothing.  No lock: the result is published with one
        ``setdefault``, so two threads may both make it, but they make
        equal graphs.
        """
        key = tuple(constraints)
        graph = db._graphs.get(key)
        if graph is None:
            lineage = db._lineage
            base = None if lineage is None else lineage.graphs.get(key)
            if base is not None:
                graph = base._advanced(db, key, lineage)
            if graph is None:
                # Looked up on the class at call time, so a wrapped
                # build (servebench's ``dispatch.shape`` span) sees
                # every build.
                graph = ConflictHypergraph.build(db, key)
            graph = db._graphs.setdefault(key, graph)
            # tuple() copies the ancestor's keys in C: another thread
            # may be publishing a graph there, and hashing a key runs
            # Python code, between whose lines the dict may grow.
            if lineage is not None and all(
                k in db._graphs for k in tuple(lineage.graphs)
            ):
                db._lineage = None  # nothing left to advance from it
        return graph

    @staticmethod
    def kept(
        db: Database, constraints: Sequence[IntegrityConstraint]
    ) -> "Optional[ConflictHypergraph]":
        """The graph :meth:`of` keeps on *db* for *constraints*, or
        None if no reader has made it yet."""
        return db._graphs.get(tuple(constraints))

    def _advanced(
        self,
        db: Database,
        constraints: Tuple[IntegrityConstraint, ...],
        lineage: Lineage,
    ) -> "Optional[ConflictHypergraph]":
        """This graph, of an ancestor of *db* under *constraints*,
        advanced by the delta in *lineage*: equal to ``build(db,
        constraints)``, or None where no rule covers the delta.

        Denial-class constraints are monotone under deletion and each
        violation is a set of facts, so the new edges are the old ones
        that hold no removed tid, plus the violations that hold an
        added one.  Per constraint:

        * one that mentions no touched relation keeps its edges;
        * a key or FD finds an added fact's rivals in its left-hand
          side group (:meth:`Database.rows_where`, which, like
          :meth:`FunctionalDependency.violations`, groups no NULL);
        * any other denial constraint evaluates its body anchored at
          each atom an added fact matches;
        * anything else (a CFD gaining facts) has no rule.
        """
        removed, added, touched = (
            lineage.removed, lineage.added, lineage.touched
        )
        nodes = self.nodes - removed if removed else self.nodes
        nodes = nodes | added if added else nodes
        stale = []
        for ic in constraints:
            mentioned = _relations(ic)
            if mentioned is None:
                return None
            if not touched.isdisjoint(mentioned):
                stale.append((ic, mentioned))
        if not stale:
            graph = ConflictHypergraph(nodes, self.edges)
            stats = getattr(self, "_shape_stats_cache", None)
            if stats is not None:
                object.__setattr__(
                    graph, "_shape_stats_cache",
                    dict(stats, nodes=len(nodes)),
                )
            return graph
        edges = {e for e in self.edges if removed.isdisjoint(e)}
        facts = [(tid, db.fact_by_tid(tid)) for tid in sorted(added)]
        for ic, mentioned in stale:
            new = [(tid, f) for tid, f in facts if f.relation in mentioned]
            if not new:
                continue
            if isinstance(ic, FunctionalDependency):
                found = _fd_edges(ic, db, new)
            elif isinstance(ic, DenialConstraint):
                found = _dc_edges(ic, db, new)
            else:
                return None
            if found is None:
                return None
            edges |= found
        return ConflictHypergraph(nodes, frozenset(edges))

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
        :mod:`repro.repairs.product`).  Ordered by smallest tid, so the order
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
        bounds the number of sets returned and stops the search as soon
        as that many are found, so bounded calls do bounded work.  Deadline
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
        """Anytime enumeration of the inclusion-minimal hitting sets,
        sorted by ``(size, sorted members)``: :meth:`_built` of the
        sets themselves."""
        partial = self._built(lambda hitting: hitting, limit, budget)
        return partial.map(
            lambda found: sorted(found, key=lambda s: (len(s), sorted(s)))
        )

    def _built(
        self,
        build: Callable[[FrozenSet[str]], object],
        limit: Optional[int] = None,
        budget: Optional[Budget] = None,
    ) -> "Partial[list]":
        """*build* of each minimal hitting set as :func:`hitting_sets`
        finds it, under *budget*: when it runs out, a sound prefix of
        what was built by then (a repair costs more to build than its
        set to find); the first *limit* when one is given."""
        edges = sorted(self.edges, key=lambda e: (len(e), sorted(e)))
        budget = resolve_budget(budget)
        if not edges:
            return Partial.done([build(frozenset())], budget)
        found: list = []
        exhausted: Optional[BudgetExhaustion] = None
        with span("conflicts.minimal_hitting_sets"):
            with use_budget(budget):
                try:
                    for hitting in hitting_sets(edges):
                        if budget is not None:
                            budget.count_result()
                        found.append(build(hitting))
                        if limit is not None and len(found) >= limit:
                            exhausted = BudgetExhaustion.COUNT
                            break
                except BudgetExceededError as exc:
                    if budget is not None and budget.strict:
                        raise
                    exhausted = BudgetExhaustion(exc.reason)
            add("conflicts.minimal_hitting_sets", len(found))
            annotate(edges=len(edges), hitting_sets=len(found))
            if exhausted is None:
                return Partial.done(found, budget)
            add("conflicts.hitting_sets_truncated")
            annotate(truncated=exhausted.value)
            return Partial.truncated(found, exhausted, budget)

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


def hitting_sets(
    edges: Sequence[FrozenSet[str]], bound: Optional[int] = None
) -> Iterator[FrozenSet[str]]:
    """Each minimal hitting set of *edges* (sorted by ``(size, sorted
    members)``) once, depth first over an explicit stack.  A node
    (``conflicts.hitting_set_branches``) branches on the vertices of its
    first, so smallest, uncovered edge in sorted order, the *i*-th
    branch excluding the earlier ones from its subtree; it is pruned
    once a chosen vertex has no private edge (one only it covers),
    which more vertices never give back, so every leaf is minimal.

    Under a *bound*, nodes count in ``repairs.bb_branches``, a node
    whose sets would be larger is pruned (``repairs.bb_pruned``), and
    each set found lowers the bound to its size: the sets never grow,
    and those of the last size are the minimum hitting sets.
    """
    edges_of: Dict[str, List[int]] = {}
    for index, edge in enumerate(edges):
        for vertex in edge:
            edges_of.setdefault(vertex, []).append(index)
    hits = [0] * len(edges)
    private: Dict[str, int] = {}  # chosen vertex -> edges only it hits
    excluded: Set[str] = set()
    branches = "conflicts.hitting_set_branches" if bound is None else (
        "repairs.bb_branches"
    )

    def choose(vertex: str) -> bool:
        """Choose *vertex*: False once a chosen vertex has none left."""
        own, alive = 0, True
        for index in edges_of[vertex]:
            hits[index] += 1
            if hits[index] == 1:
                own += 1
            elif hits[index] == 2:
                other = next(u for u in edges[index] if u in private)
                private[other] -= 1
                alive = alive and private[other] > 0
        private[vertex] = own
        return alive

    def unchoose(vertex: str) -> None:
        del private[vertex]
        for index in edges_of[vertex]:
            hits[index] -= 1
            if hits[index] == 1:
                private[next(u for u in edges[index] if u in private)] += 1

    stack: List[list] = []  # frames [first uncovered, vertices, next]
    start = 0
    while True:
        add(branches)  # enter the node of ``private``
        budget_checkpoint()
        while start < len(edges) and hits[start]:
            start += 1
        if start == len(edges):
            yield frozenset(private)
            if bound is not None:
                bound = len(private)
        elif bound is not None and len(private) >= bound:
            add("repairs.bb_pruned")
        else:
            stack.append([start, sorted(edges[start] - excluded), 0])
        while stack:
            frame = stack[-1]
            start, vertices, i = frame
            if i:
                unchoose(vertices[i - 1])
                excluded.add(vertices[i - 1])
            if i == len(vertices):
                excluded.difference_update(vertices)
                stack.pop()
            else:
                frame[2] = i + 1
                if choose(vertices[i]):
                    break
        else:
            return


def _relations(ic: IntegrityConstraint) -> Optional[FrozenSet[str]]:
    """The relations whose facts *ic*'s violations hold, or None for a
    constraint kind this module cannot name them for."""
    if isinstance(ic, DenialConstraint):
        return frozenset(ic.predicates())
    if isinstance(ic, (FunctionalDependency, ConditionalFunctionalDependency)):
        return frozenset((ic.relation,))
    return None


def _fd_edges(
    fd: FunctionalDependency, db: Database, new: Sequence[Tuple[str, Fact]]
) -> Optional[Set[FrozenSet[str]]]:
    """The conflicts of *fd* in *db* that hold one of the *new* facts:
    each with a rival in its left-hand-side group.  None when a new
    fact's left-hand side holds a value unequal to itself (a NaN):
    :meth:`FunctionalDependency.violations` groups such a value by
    identity, the row index never."""
    lhs, rhs = fd._positions(db)
    out: Set[FrozenSet[str]] = set()
    for tid, f in new:
        key = tuple(f.values[p] for p in lhs)
        if any(v != v for v in key):
            return None
        for row in db.rows_where(fd.relation, lhs, key):
            rival = Fact(fd.relation, row)
            if rival != f and fd._conflicting(rival, f, rhs):
                out.add(frozenset((tid, db.tid_of_row(fd.relation, row))))
    return out


def _dc_edges(
    dc: DenialConstraint, db: Database, new: Sequence[Tuple[str, Fact]]
) -> Set[FrozenSet[str]]:
    """The violations of *dc* in *db* that hold one of the *new* facts:
    the body evaluated with one atom bound to a new fact, for every
    atom the fact matches.  The atom is matched by evaluating it over
    an instance of the new facts alone; each binding then names the
    rows the other atoms matched, as
    :func:`~repro.logic.evaluation.witnesses` does."""
    evaluator = Evaluator(db)
    anchors = Evaluator(Database.from_facts([f for _, f in new], db.schema))
    out: Set[FrozenSet[str]] = set()
    for index, anchor in enumerate(dc.atoms):
        rest = dc.atoms[:index] + dc.atoms[index + 1:]
        body = And(rest + dc.conditions)
        for binding, (row,) in anchors.matches(anchor):
            tid = db.tid_of_row(anchor.predicate, row)
            for _, rows in evaluator.matches(body, binding):
                budget_checkpoint()
                edge = {tid}
                for a, matched in zip(rest, rows):
                    edge.add(db.tid_of_row(a.predicate, matched))
                out.add(frozenset(edge))
    return out


def _is_minimal_hitting_set(
    hitting: FrozenSet[str], edges: Sequence[FrozenSet[str]]
) -> bool:
    """Is *hitting*, which covers every edge, inclusion-minimal: is
    each of its vertices the sole cover of some edge?  The property
    tests check the search's leaves, minimal by construction, with it.
    """
    needed = {v: False for v in hitting}
    for edge in edges:
        covering = edge & hitting
        if len(covering) == 1:
            needed[next(iter(covering))] = True
    return all(needed.values())
