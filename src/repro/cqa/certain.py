"""Model-theoretic consistent query answering (Section 3.1).

``Cons(Q, D, Σ)`` is the set of answers obtained from *every* repair of D
wrt Σ — a form of certain answering over the possible-world class of
repairs.  This module is the semantics-defining baseline: it enumerates
repairs and intersects answer sets.  The rewriting modules are validated
against it, and benchmark B2 contrasts their costs.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Sequence, Tuple

from ..constraints.base import IntegrityConstraint, denial_class_only
from ..errors import BudgetExceededError, RepairError
from ..observability import add, annotate, span
from ..relational.database import Database, Row
from ..repairs.base import Repair
from ..repairs.crepairs import c_repairs, c_repairs_partial
from ..repairs.srepairs import (
    delete_only_repairs,
    delete_only_repairs_partial,
    s_repairs,
    s_repairs_partial,
)
from ..runtime import (
    Budget,
    BudgetExhaustion,
    Partial,
    current_budget,
    resolve_budget,
    suspend_budget,
    use_budget,
)
from ..runtime import checkpoint as budget_checkpoint

SEMANTICS = ("s", "c", "delete-only")


def repairs_for_semantics(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    semantics: str = "s",
    max_steps: Optional[int] = None,
) -> Sequence[Repair]:
    """The repair class underlying a CQA semantics."""
    if semantics == "s":
        return s_repairs(db, constraints, max_steps=max_steps)
    if semantics == "c":
        return c_repairs(db, constraints, max_steps=max_steps)
    if semantics == "delete-only":
        return delete_only_repairs(db, constraints, max_steps=max_steps)
    raise ValueError(
        f"unknown repair semantics {semantics!r}; choose from {SEMANTICS}"
    )


def repairs_for_semantics_partial(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    semantics: str = "s",
    max_steps: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> "Partial[Sequence[Repair]]":
    """Anytime variant of :func:`repairs_for_semantics`."""
    if semantics == "s":
        return s_repairs_partial(
            db, constraints, max_steps=max_steps, budget=budget
        )
    if semantics == "c":
        return c_repairs_partial(
            db, constraints, max_steps=max_steps, budget=budget
        )
    if semantics == "delete-only":
        return delete_only_repairs_partial(
            db, constraints, max_steps=max_steps, budget=budget
        )
    raise ValueError(
        f"unknown repair semantics {semantics!r}; choose from {SEMANTICS}"
    )


def consistent_answers(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    query,
    semantics: str = "s",
    max_steps: Optional[int] = None,
) -> FrozenSet[Row]:
    """``Cons(Q, D, Σ)``: answers true in every repair of *db*.

    *query* is anything with ``answers(db)`` (Query, ConjunctiveQuery,
    UnionQuery).  *semantics* selects the repair class: ``"s"`` for
    S-repairs, ``"c"`` for C-repairs, ``"delete-only"`` for subset
    repairs ([48]).

    Under an active execution budget, exhaustion raises
    :class:`~repro.errors.BudgetExceededError` — an exact answer set
    cannot be produced from a repair prefix, so none of the prefix's
    brackets is built.  Use :func:`consistent_answers_partial` for the
    anytime under-approximation.
    """
    with span("cqa.enumerate", semantics=semantics):
        answers, exhausted, _ = _enumerated(
            db, constraints, query, semantics, max_steps, current_budget()
        )
    if exhausted is not None:
        raise BudgetExceededError(
            exhausted,
            f"repair enumeration was cut short ({exhausted}): an exact "
            "answer needs every repair",
        )
    return answers


def consistent_answers_partial(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    query,
    semantics: str = "s",
    max_steps: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> "Partial[FrozenSet[Row]]":
    """Anytime ``Cons(Q, D, Σ)``: certain answers or a sound subset.

    ``complete=True`` results equal :func:`consistent_answers`.  On
    budget exhaustion the value degrades to the *certain-core*
    under-approximation (the query over the conflict-free sub-instance
    — contained in every repair, hence sound for monotone queries); for
    non-denial constraint sets, where no core exists, the fallback is
    the empty set.  For the "s" and "delete-only" semantics the detail
    carries ``upper_bound``: the intersection over the repairs seen
    before exhaustion, a complete over-approximation that brackets the
    exact answer set from above.
    """
    budget = resolve_budget(budget)
    with span("cqa.enumerate", semantics=semantics):
        answers, exhausted, prefix = _enumerated(
            db, constraints, query, semantics, max_steps, budget
        )
        if exhausted is None:
            return Partial.done(answers, budget)
        # Graceful degradation: the intersection over a repair *prefix*
        # over-approximates the certain answers, so it cannot be
        # returned as the value.  Fall back to the sound certain-core
        # under-approximation, computed with the exhausted budget
        # masked (it would re-raise on every checkpoint).
        add("cqa.partial_fallbacks")
        annotate(truncated=exhausted.value, repairs_seen=len(prefix))
        with suspend_budget():
            detail = {"repairs_seen": len(prefix)}
            if semantics != "c" and prefix:
                # Prefix intersection: an over-approximation bracket.
                # (Not valid for "c": certified C-repairs may lie
                # outside a best-so-far prefix.)
                detail["upper_bound"] = intersect_answers(query, prefix)
            if denial_class_only(constraints):
                from .approximation import underapproximate_answers

                value = underapproximate_answers(db, constraints, query)
                detail["fallback"] = "certain-core"
            else:
                value = frozenset()
                detail["fallback"] = "empty"
            return Partial.truncated(value, exhausted, budget, **detail)


def _enumerated(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    query,
    semantics: str,
    max_steps: Optional[int],
    budget: Optional[Budget],
) -> Tuple[
    Optional[FrozenSet[Row]], Optional[BudgetExhaustion], Sequence[Repair]
]:
    """``(Cons, None, ())`` over the repairs enumerated under *budget*;
    when the budget cuts the run short, ``(None, reason, prefix)`` with
    the repairs built before it, which only a caller that brackets
    reads."""
    with use_budget(budget):
        try:
            repairs = repairs_for_semantics_partial(
                db, constraints, semantics, max_steps, budget=budget
            )
            if repairs.complete and not repairs.value:
                raise RepairError(
                    "no repairs found: cannot intersect over an "
                    "empty repair class"
                )
            add("cqa.repairs_intersected", len(repairs.value))
            if repairs.complete:
                return intersect_answers(query, repairs.value), None, ()
            return None, repairs.exhausted, repairs.value
        except BudgetExceededError as exc:
            if budget is not None and budget.strict:
                raise
            return None, BudgetExhaustion(exc.reason), ()


def intersect_answers(query, repairs: Iterable[Repair]) -> FrozenSet[Row]:
    """The answers of *query* in every repair of *repairs* (none when
    there is none), one budget checkpoint per repair, stopping once no
    answer is left."""
    result: Optional[FrozenSet[Row]] = None
    for repair in repairs:
        budget_checkpoint()
        answers = frozenset(query.answers(repair.instance))
        result = answers if result is None else result & answers
        if not result:
            break
    return result if result is not None else frozenset()


def is_consistently_true(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    query,
    semantics: str = "s",
    max_steps: Optional[int] = None,
) -> bool:
    """Is a Boolean query true in every repair (certain truth)?"""
    repairs = repairs_for_semantics(db, constraints, semantics, max_steps)
    if not repairs:
        raise RepairError("no repairs found")
    return all(query.holds(r.instance) for r in repairs)


def is_possibly_true(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    query,
    semantics: str = "s",
    max_steps: Optional[int] = None,
) -> bool:
    """Is a Boolean query true in some repair (brave/possible truth)?"""
    repairs = repairs_for_semantics(db, constraints, semantics, max_steps)
    return any(query.holds(r.instance) for r in repairs)


def answer_frequencies(
    db: Database,
    constraints: Sequence[IntegrityConstraint],
    query,
    semantics: str = "s",
    max_steps: Optional[int] = None,
) -> Tuple[Tuple[Row, float], ...]:
    """Fraction of repairs supporting each answer.

    The paper's data-cleaning section suggests weakening certain answers
    to "true in most repairs"; this gives the per-answer support, from
    which any threshold semantics follows.
    """
    repairs = repairs_for_semantics(db, constraints, semantics, max_steps)
    if not repairs:
        raise RepairError("no repairs found")
    counts: dict = {}
    for repair in repairs:
        for row in query.answers(repair.instance):
            counts[row] = counts.get(row, 0) + 1
    total = len(repairs)
    return tuple(
        sorted(
            ((row, count / total) for row, count in counts.items()),
            key=lambda item: (-item[1], repr(item[0])),
        )
    )
