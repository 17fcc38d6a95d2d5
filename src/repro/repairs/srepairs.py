"""S-repair enumeration (Section 3.1).

Two engines:

* **Conflict-hypergraph engine** — when every constraint is denial-class,
  S-repairs are exactly the maximal independent sets of the conflict
  hypergraph (Example 4.1), obtained as complements of minimal hitting
  sets of the violation hyperedges.  Deletion-only, polynomially checkable,
  and much faster than state search.

* **State-search engine** — for constraint sets including tgds/inclusion
  dependencies, where repairs may insert tuples (Example 3.1's repair D2
  inserts Articles(I3)).  Explores the update space best-first by
  ``|D Δ D'|``, fixing one violation per step by deleting a witnessing
  fact or inserting the missing head facts (with NULL at existential
  positions, Section 4.2); because states pop in nondecreasing distance
  order, a consistent state is an S-repair exactly when no
  already-emitted repair's diff is a subset of its diff, so repairs
  stream out sound-as-found.  Terminates for weakly-acyclic tgds; a step
  bound guards cyclic inputs.

Both engines are **anytime**: :func:`s_repairs_partial` returns a
:class:`~repro.runtime.Partial` whose value is a sound prefix of the
repair set when the execution budget (deadline / steps / result count)
runs out, and ``limit`` is enforced *during* the search, not by slicing
a fully enumerated list.
"""

from __future__ import annotations

import heapq
from typing import FrozenSet, List, Optional, Sequence, Set

from ..constraints.base import (
    IntegrityConstraint,
    all_violations,
    denial_class_only,
)
from ..constraints.conflicts import ConflictHypergraph
from ..errors import BudgetExceededError, RepairError
from ..observability import add, annotate, span
from ..runtime import (
    Budget,
    BudgetExhaustion,
    Partial,
    check_deadline,
    resolve_budget,
    use_budget,
)
from ..runtime import checkpoint as budget_checkpoint
from ..relational.database import Database
from .base import Repair, sort_repairs


def s_repairs(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    limit: Optional[int] = None,
    max_steps: Optional[int] = None,
    allow_insertions: bool = True,
    engine: str = "auto",
) -> List[Repair]:
    """All S-repairs of *db* under *constraints*.

    ``engine`` selects the implementation: ``"auto"`` uses the conflict
    hypergraph when possible, ``"hypergraph"`` forces it (raising for
    non-denial constraints), ``"search"`` forces the state search (the
    ablation baseline of DESIGN.md).  ``allow_insertions=False`` restricts
    to the deletion-only semantics of Chomicki & Marcinkowski [48].

    Under an active execution budget, deadline or step exhaustion raises
    :class:`~repro.errors.BudgetExceededError` (a plain list cannot
    express partiality); use :func:`s_repairs_partial` for the anytime
    sound prefix.
    """
    partial = s_repairs_partial(
        db,
        constraints,
        limit=limit,
        max_steps=max_steps,
        allow_insertions=allow_insertions,
        engine=engine,
    )
    return partial.unwrap(strict=partial.hit_resource_limit)


def s_repairs_partial(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    limit: Optional[int] = None,
    max_steps: Optional[int] = None,
    allow_insertions: bool = True,
    engine: str = "auto",
    budget: Optional[Budget] = None,
) -> "Partial[List[Repair]]":
    """Anytime S-repair enumeration: a :class:`Partial` sound prefix.

    ``complete=True`` results are identical to :func:`s_repairs`.  On
    budget exhaustion the value holds the repairs found so far — each a
    genuine S-repair of the full instance — with the exhaustion reason.
    """
    if engine not in ("auto", "hypergraph", "search"):
        raise ValueError(f"unknown engine {engine!r}")
    use_hypergraph = (
        engine == "hypergraph"
        or (engine == "auto" and denial_class_only(constraints))
    )
    chosen = "hypergraph" if use_hypergraph else "search"
    budget = resolve_budget(budget)
    with span("repairs.s_repairs", engine=chosen, facts=len(db)):
        with use_budget(budget):
            if use_hypergraph:
                partial = _hypergraph_repairs(db, constraints, limit, budget)
            else:
                partial = _search_repairs(
                    db, constraints, limit, max_steps, allow_insertions,
                    budget,
                )
        add("repairs.s_emitted", len(partial.value))
        if not partial.complete:
            add("repairs.s_truncated")
            annotate(truncated=partial.exhausted.value)
        return partial


def delete_only_repairs(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    limit: Optional[int] = None,
    max_steps: Optional[int] = None,
) -> List[Repair]:
    """Subset-repairs: only tuple deletions are admissible ([48])."""
    return s_repairs(
        db, constraints, limit=limit, max_steps=max_steps,
        allow_insertions=False,
    )


def delete_only_repairs_partial(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    limit: Optional[int] = None,
    max_steps: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> "Partial[List[Repair]]":
    """Anytime subset-repair enumeration ([48])."""
    return s_repairs_partial(
        db, constraints, limit=limit, max_steps=max_steps,
        allow_insertions=False, budget=budget,
    )


# ----------------------------------------------------------------------
# Conflict-hypergraph engine
# ----------------------------------------------------------------------


def _hypergraph_repairs(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    limit: Optional[int],
    budget: Optional[Budget],
) -> "Partial[List[Repair]]":
    def repair(deletion: FrozenSet[str]) -> Repair:
        budget_checkpoint()
        check_deadline()
        built = Repair(db, deletion)
        built.sort_key  # keyed now, inside the budget
        return built

    try:
        # Unbudgeted, reuse the graph a reader kept on the version.
        # Otherwise build one and keep nothing: a step budget then buys
        # the same prefix whatever was read before, and a ladder rung
        # spends its slice as it did.
        graph = None if budget is not None else (
            ConflictHypergraph.kept(db, constraints)
        )
        if graph is None:
            graph = ConflictHypergraph.build(db, constraints)
        partial = graph._built(repair, limit, budget)
    except BudgetExceededError as exc:
        if budget is not None and budget.strict:
            raise
        # Exhausted before any hitting set existed: empty sound prefix.
        return Partial.truncated([], BudgetExhaustion(exc.reason), budget)
    return partial.map(sort_repairs)


# ----------------------------------------------------------------------
# State-search engine
# ----------------------------------------------------------------------


def _search_repairs(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    limit: Optional[int],
    max_steps: Optional[int],
    allow_insertions: bool,
    budget: Optional[Budget],
) -> "Partial[List[Repair]]":
    if max_steps is None:
        max_steps = 2 * len(db) + 10
    start = db.facts()
    visited: Set[frozenset] = {start}
    # Best-first by |D Δ D'| (repr as tiebreak for determinism): states
    # pop in nondecreasing distance, so a consistent state is an
    # S-repair iff no earlier-emitted repair's diff is contained in its
    # diff — which makes every emitted repair final and the stream sound
    # under truncation.
    counter = 0
    frontier: List = [(0, counter, db)]
    emitted: List[Repair] = []
    exhausted: Optional[BudgetExhaustion] = None
    exhausted_bound = False
    try:
        while frontier:
            _, _, current = heapq.heappop(frontier)
            add("repairs.states_explored")
            budget_checkpoint()
            violations = all_violations(current, constraints)
            if not violations:
                diff = current.symmetric_difference(db)
                if not any(r.diff <= diff for r in emitted):
                    if budget is not None:
                        budget.count_result()
                    repair = Repair(
                        db,
                        frozenset(db.tid_of(f) for f in diff if f in db),
                        frozenset(f for f in diff if f not in db),
                    )
                    repair.sort_key  # keyed now, inside the budget
                    emitted.append(repair)
                    if limit is not None and len(emitted) >= limit:
                        exhausted = (
                            BudgetExhaustion.COUNT if frontier else None
                        )
                        break
                continue
            if len(current.symmetric_difference(db)) >= max_steps:
                exhausted_bound = True
                continue
            violation = min(
                violations, key=lambda v: sorted(map(repr, v.facts))
            )
            successors: List[Database] = []
            for f in sorted(violation.facts, key=repr):
                successors.append(current.delete([f]))
            if allow_insertions and violation.missing:
                successors.append(current.insert(violation.missing))
            for nxt in successors:
                key = nxt.facts()
                if key not in visited:
                    visited.add(key)
                    counter += 1
                    heapq.heappush(
                        frontier,
                        (
                            len(nxt.symmetric_difference(db)),
                            counter,
                            nxt,
                        ),
                    )
    except BudgetExceededError as exc:
        if budget is not None and budget.strict:
            raise
        exhausted = BudgetExhaustion(exc.reason)
    if not emitted and exhausted is None and exhausted_bound:
        raise RepairError(
            "repair search exhausted its step bound without finding a "
            "consistent instance; the tgd set may be cyclic — raise "
            "max_steps or restrict to deletions"
        )
    repairs = sort_repairs(emitted)
    if exhausted is None:
        return Partial.done(repairs, budget)
    return Partial.truncated(repairs, exhausted, budget)
