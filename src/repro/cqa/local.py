"""Component-local consistent query answering (Sections 3.3 and 4.1).

Under denial-class constraints the repairs are a product of
per-component choices (:mod:`repro.repairs.product`): an S-repair keeps
the conflict-free tuples plus one maximal independent set per conflict
component, and a C-repair one *maximum* independent set per component.

A monotone query's candidate answer ā ∈ Q(D) holds in a repair exactly
when the repair keeps one of ā's witnesses whole.  Whether ā is certain
therefore depends only on the components its witnesses touch:
:func:`consistent_answers_local` searches the product of those
components' kept sets, one candidate at a time, and stops at the first
choice that keeps no witness whole — a counterexample repair.  The cost
follows the structure of the conflict graph, not |D| (Hankala et al.
parameterise CQA by that structure).

Components, candidates and kept sets are visited in an order fixed by
tids and by the evaluator's sorted row order, never by set iteration order,
so the sequence of budget checkpoints replays identically in another
process (``obs replay``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

from ..constraints.base import IntegrityConstraint
from ..logic.evaluation import Evaluator
from ..logic.queries import UnionQuery
from ..observability import annotate, span
from ..relational.database import Database, Row
from ..repairs.product import ComponentProduct
from ..runtime import checkpoint as budget_checkpoint

#: A witness in the search: its conflicting tids keyed by the search
#: position of their component, and the last such position.
_Witness = Tuple[Dict[int, FrozenSet[str]], int]

_NONE: FrozenSet[str] = frozenset()


def consistent_answers_local(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    query,
    semantics: str = "s",
) -> FrozenSet[Row]:
    """``Cons(Q, D, Σ)`` for a CQ or UCQ under denial-class constraints.

    *semantics* is ``"s"`` or ``"delete-only"`` (the same repairs under
    denial constraints) or ``"c"``.  Exact: budget exhaustion raises
    :class:`~repro.errors.BudgetExceededError` rather than returning a
    partial set.
    """
    with span("cqa.local", semantics=semantics):
        product = ComponentProduct(db, constraints, semantics)
        candidates = _candidates(db, query, product.component_of)
        answers = set()
        for row, parts in candidates.items():
            if _NONE in parts or _certain(parts, product):
                answers.add(row)
        annotate(
            candidates=len(candidates),
            certain=len(answers),
            components_searched=product.solved,
        )
        return frozenset(answers)


def _candidates(
    db: Database, query, component_of: Dict[str, int]
) -> Dict[Row, List[FrozenSet[str]]]:
    """Q(D)'s answers, each with the conflicting tids of its witnesses
    (in discovery order, without repeats).

    The evaluator's bindings are consumed lazily, one checkpoint each,
    so a large join stays cancellable inside its rung's budget.
    """
    disjuncts = (
        query.disjuncts if isinstance(query, UnionQuery) else (query,)
    )
    evaluator = Evaluator(db)
    found: Dict[Row, Dict[FrozenSet[str], None]] = {}
    for disjunct in disjuncts:
        for binding, rows in evaluator.matches(disjunct.body()):
            budget_checkpoint()
            row = tuple(binding[v] for v in disjunct.head)
            tids = (
                db.tid_of_row(a.predicate, matched)
                for a, matched in zip(disjunct.atoms, rows)
            )
            part = frozenset(tid for tid in tids if tid in component_of)
            found.setdefault(row, {})[part] = None
    return {row: list(parts) for row, parts in found.items()}


def _certain(parts: List[FrozenSet[str]], product: ComponentProduct) -> bool:
    """Does every choice of kept sets over the touched components keep
    some witness's conflicting tids whole?

    A depth-first search over the components in a fixed order.  Each
    step (one checkpoint) fixes one component's kept set and drops the
    witnesses it breaks.  A branch closes as soon as some witness has
    all its components fixed and is still whole: every completion of
    it keeps that witness.  A branch with no witness left is a
    counterexample, and the candidate is not certain.
    """
    component_of = product.component_of
    # Witnesses touching fewest components first name the search
    # order, so a candidate with a witness inside one component closes
    # every branch at the first step.
    ordered = sorted(
        parts, key=lambda part: len({component_of[t] for t in part})
    )
    position: Dict[int, int] = {}
    for part in ordered:
        for tid in sorted(part):
            position.setdefault(component_of[tid], len(position))
    alive: List[List[_Witness]] = [[]]
    for part in parts:
        by_position: Dict[int, set] = {}
        for tid in part:
            by_position.setdefault(
                position[component_of[tid]], set()
            ).add(tid)
        alive[0].append((
            {p: frozenset(t) for p, t in by_position.items()},
            max(by_position),
        ))
    order = list(position)
    options: List[Tuple[FrozenSet[str], ...]] = []
    choice = [-1] * len(order)
    depth = 0
    while depth >= 0:
        if depth == len(options):
            options.append(product.kept_sets(order[depth]))
        choice[depth] += 1
        if choice[depth] == len(options[depth]):
            choice[depth] = -1
            depth -= 1
            continue
        budget_checkpoint()
        kept = options[depth][choice[depth]]
        survivors = [
            witness
            for witness in alive[depth]
            if witness[0].get(depth, _NONE) <= kept
        ]
        if not survivors:
            return False
        if any(last == depth for _, last in survivors):
            continue
        del alive[depth + 1:]
        alive.append(survivors)
        depth += 1
    return True
