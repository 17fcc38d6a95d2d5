"""The engines behind the resilient CQA dispatcher, as ladder rungs.

The paper's central dichotomy — CERTAIN(Q) is FO-rewritable for some
query/constraint classes (polynomial; the ConQuer/Fuxman–Miller path)
and coNP-complete in general (the repair-enumeration/ASP path) — means
no single engine is both fast and universal.  Each engine here wraps
one evaluation strategy behind a uniform interface:

* :meth:`Engine.check` — a cheap *applicability* test raising the typed
  :class:`~repro.errors.NotRewritableError` (rewriting engines) or
  :class:`EngineInapplicableError` (everything else) when the request
  falls outside the engine's sound-and-complete class;
* :meth:`Engine.run` — the actual evaluation, returning an
  :class:`EngineAnswer` whose ``complete`` flag states whether the
  answer set equals ``Cons(Q, D, Σ)`` exactly.

The default ladder, fastest-and-narrowest first::

    fm-sql  >  fo-mem  >  local  >  enumerate  >  certain-core

``asp`` (the repair program of Section 3.3) stays registered off the
default ladder: a policy or ``--engine asp`` can still name it, and
recorded envelopes whose ladder holds it replay through it.

Every *exact* rung either returns a complete answer or fails; only the
final ``certain-core`` rung returns a sound under-approximation
(bracketed from above by a sample of greedy S-repairs), which is why
a dispatcher that exhausts the ladder degrades to INCOMPLETE instead of
ever returning a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, NamedTuple, Optional, Tuple

from ..constraints.base import IntegrityConstraint, denial_class_only
from ..cqa.approximation import (
    overapproximate_answers,
    underapproximate_answers,
)
from ..cqa.certain import consistent_answers
from ..cqa.fuxman_miller import fuxman_miller_rewrite
from ..cqa.local import consistent_answers_local
from ..cqa.rewriting import Clause, constraint_clauses, fo_rewrite
from ..cqa.sqlgen import answers_via_sql
from ..errors import (
    BudgetExceededError,
    NotRewritableError,
    ReproError,
    UnstorableValueError,
)
from ..logic.queries import ConjunctiveQuery, UnionQuery
from ..logic.substitution import apply_to_term, unify_atoms
from ..relational.database import Database, Fact, Row
from ..runtime import suspend_budget

__all__ = [
    "CQARequest",
    "InstanceKey",
    "Step",
    "EngineAnswer",
    "Engine",
    "EngineInapplicableError",
    "DEFAULT_LADDER",
    "ENGINES",
    "get_engine",
    "applicable_engines",
]

SEMANTICS = ("s", "c", "delete-only")


class EngineInapplicableError(ReproError):
    """A non-rewriting engine cannot serve this (query, constraints).

    The counterpart of :class:`~repro.errors.NotRewritableError` for the
    non-rewriting rungs; the dispatcher treats both as a clean
    fall-through to the next rung, never as an engine failure.
    """


#: One registry write of a mutation: ``(base version, deleted facts,
#: inserted facts)``, the facts in the order the mutate payload named
#: them.  Deleting then inserting them turns the base version's
#: instance into the next version's.
Step = Tuple[int, Tuple[Fact, ...], Tuple[Fact, ...]]


class InstanceKey(NamedTuple):
    """A registered database's version, with the mutation steps that
    led to it (oldest first; the registry keeps the last few)."""

    name: str
    version: int
    steps: Tuple[Step, ...] = ()

    def steps_since(
        self, version: Optional[int], limit: int
    ) -> Optional[Tuple[Step, ...]]:
        """The steps from *version* to this one, when *version* is the
        base of one of them and they name fewer than *limit* facts;
        else None."""
        for index, (base, _, _) in enumerate(self.steps):
            if base == version:
                tail = self.steps[index:]
                size = sum(
                    len(deleted) + len(inserted)
                    for _, deleted, inserted in tail
                )
                return tail if size < limit else None
        return None


@dataclass(frozen=True)
class CQARequest:
    """One CQA request: instance, constraints, query, repair semantics.

    ``instance_key`` names the instance (an :class:`InstanceKey`) when
    it is a registered database's current version (None for inline
    instances).  It is transport, not content: the worker pool uses it
    to send a warm worker the key, or the steps since the version the
    worker holds, instead of the instance, and requests compare and
    hash without it.
    """

    db: Database
    constraints: Tuple[IntegrityConstraint, ...]
    query: object
    semantics: str = "s"
    instance_key: Optional[InstanceKey] = field(
        default=None, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "constraints", tuple(self.constraints)
        )
        if self.semantics not in SEMANTICS:
            raise ValueError(
                f"unknown repair semantics {self.semantics!r}; "
                f"choose from {SEMANTICS}"
            )


@dataclass(frozen=True)
class EngineAnswer:
    """An engine's verdict: the answer set plus a completeness claim.

    ``complete=True`` means the set equals ``Cons(Q, D, Σ)`` exactly;
    ``complete=False`` means it is a sound under-approximation, with
    ``detail`` possibly carrying an ``upper_bound`` over-approximation.
    """

    answers: FrozenSet[Row]
    complete: bool
    detail: Dict[str, object] = field(default_factory=dict)


class Engine:
    """One evaluation strategy; subclasses fill in check/run."""

    #: ladder name, stable across releases (used by breakers/counters)
    name: str = ""
    #: can this engine wedge non-cooperatively (C extension, grounding
    #: blow-up), so that process-level isolation is worth its cost?
    isolatable: bool = False
    #: does a successful run yield the exact consistent answers?
    exact: bool = True

    def check(self, request: CQARequest) -> None:
        """Raise a typed applicability error if the request is outside
        this engine's sound-and-complete class; return None otherwise."""
        raise NotImplementedError

    def run(self, request: CQARequest) -> EngineAnswer:
        """Evaluate the request (caller guarantees check() passed)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<engine {self.name}>"


def _require_cq(request: CQARequest, engine: str) -> ConjunctiveQuery:
    if not isinstance(request.query, ConjunctiveQuery):
        raise EngineInapplicableError(
            f"engine {engine} handles conjunctive queries only; got "
            f"{type(request.query).__name__}"
        )
    return request.query


class FuxmanMillerSqlEngine(Engine):
    """Rung 1: the Fuxman–Miller rewriting compiled to SQL on SQLite.

    Applicable to C_forest conjunctive queries under primary-key
    constraints.  For key constraints every S-repair keeps exactly one
    tuple per key group, so all S-repairs share one cardinality and the
    "s", "c", and "delete-only" semantics coincide — the rewriting is
    complete for all three.  SQLite materialization can fail transiently
    or wedge inside the C extension, hence ``isolatable``.  An instance
    holding a value SQLite cannot store makes it inapplicable.
    """

    name = "fm-sql"
    isolatable = True

    def check(self, request: CQARequest) -> None:
        query = _require_cq(request, self.name)
        # Raises NotRewritableError on non-key constraints or a query
        # outside C_forest; the rewriting itself is polynomial and small.
        fuxman_miller_rewrite(query, request.constraints, request.db)

    def run(self, request: CQARequest) -> EngineAnswer:
        rewritten = fuxman_miller_rewrite(
            request.query, request.constraints, request.db
        )
        try:
            answers = answers_via_sql(request.db, rewritten)
        except UnstorableValueError as exc:
            raise EngineInapplicableError(str(exc)) from exc
        return EngineAnswer(answers, True)


class FORewriteMemEngine(Engine):
    """Rung 2: generic FO rewriting evaluated by the in-memory engine.

    Two sub-classes of requests are served, both without touching the
    SQLite backend:

    * the Fuxman–Miller class again — the rewritten query is plain FO,
      so when rung 1 died of backend failure (not applicability) this
      rung recovers the same exact answers in memory;
    * the residue-rewriting class of the original PODS'99 method —
      quantifier-free queries under universal binary constraints,
      evaluated under S-repair semantics (equivalently "delete-only"
      when the constraints are denial-class).  Every clause must pass
      :func:`_residue_scope`; requests outside it fall through.
    """

    name = "fo-mem"

    def _plan(self, request: CQARequest) -> str:
        query = _require_cq(request, self.name)
        try:
            fuxman_miller_rewrite(query, request.constraints, request.db)
            return "fuxman-miller"
        except NotRewritableError:
            pass
        if request.semantics == "c" or (
            request.semantics == "delete-only"
            and not denial_class_only(request.constraints)
        ):
            raise NotRewritableError(
                "residue rewriting is complete for S-repair semantics "
                f"only; cannot serve {request.semantics!r} here"
            )
        if query.existential_variables():
            raise NotRewritableError(
                "residue rewriting is complete for quantifier-free "
                "queries only; the query has existential variables"
            )
        for ic in request.constraints:
            # constraint_clauses may raise NotRewritableError itself.
            for clause in constraint_clauses(ic, request.db):
                _residue_scope(clause)
        return "residue"

    def check(self, request: CQARequest) -> None:
        self._plan(request)

    def run(self, request: CQARequest) -> EngineAnswer:
        if self._plan(request) == "fuxman-miller":
            rewritten = fuxman_miller_rewrite(
                request.query, request.constraints, request.db
            )
        else:
            rewritten = fo_rewrite(
                request.query, request.constraints, request.db
            )
        return EngineAnswer(
            frozenset(rewritten.answers(request.db)), True
        )


_ORDER_OPS = frozenset(("<", "<=", ">", ">="))


def _residue_scope(clause: Clause) -> None:
    """Raise :class:`NotRewritableError` unless the residue rewriting
    is exact for *clause*.

    * At most two database literals: with three, each leftover literal
      is quantified on its own, ``¬∃W S(Y,W) ∨ ¬∃W R(W,X)`` where
      ``¬∃W (S(Y,W) ∧ R(W,X))`` is meant.
    * No single tuple violates a denial clause on its own.  Such a
      tuple is in no repair, yet the residues still count it as a
      rival of the tuples it conflicts with.  When the clause's atoms
      unify, one of its ``=`` literals (a negated ``!=`` condition, as
      an FD's ``y = z``) must then compare a term with itself.
    * No order comparison in a denial clause: on values that do not
      compare (``'b' < 2``) the comparison and its negation are both
      false.
    """
    literals = clause.positive + clause.negative
    if len(literals) > 2:
        raise NotRewritableError(
            "residue rewriting is exact for binary clauses only; "
            f"{clause!r} has {len(literals)} database literals"
        )
    if clause.positive:
        return
    if any(c.op in _ORDER_OPS for c in clause.comparisons):
        raise NotRewritableError(
            "residue rewriting is not exact under order comparisons "
            f"in a denial constraint ({clause!r})"
        )
    mgu = unify_atoms(*literals) if len(literals) == 2 else {}
    if mgu is not None and not any(
        c.op == "="
        and apply_to_term(c.left, mgu) == apply_to_term(c.right, mgu)
        for c in clause.comparisons
    ):
        raise NotRewritableError(
            "residue rewriting is not exact when a single tuple can "
            f"violate a denial constraint ({clause!r})"
        )


class LocalEngine(Engine):
    """Rung 3: the component-local search (Section 4.1, Example 4.1).

    Applicable to CQs and UCQs under denial-class constraints, for all
    three semantics: each candidate answer is decided over the repairs
    of the conflict components its witnesses touch
    (:mod:`repro.cqa.local`).  Cooperative pure Python, so not
    ``isolatable``: the rung budget cancels it at a checkpoint, and the
    rung then fails as enumerate does.
    """

    name = "local"

    def check(self, request: CQARequest) -> None:
        # O(1) in the instance: the dispatcher checks every rung on
        # every request.
        if not isinstance(request.query, (ConjunctiveQuery, UnionQuery)):
            raise EngineInapplicableError(
                "the component-local search handles CQs and UCQs only; "
                f"got {type(request.query).__name__}"
            )
        if not denial_class_only(request.constraints):
            raise EngineInapplicableError(
                "the component-local search needs denial-class "
                "constraints (denial constraints, FDs, keys, CFDs)"
            )

    def run(self, request: CQARequest) -> EngineAnswer:
        return EngineAnswer(
            consistent_answers_local(
                request.db,
                request.constraints,
                request.query,
                request.semantics,
            ),
            True,
        )


class AspEngine(Engine):
    """The repair program (Section 3.3), cautious reasoning.

    Off the default ladder since ``local`` took rung 3; a policy ladder
    or ``--engine asp`` still selects it.  Applicable to conjunctive
    queries under denial-class constraints; "c" semantics adds the weak
    constraints of Example 4.2 and answers cautiously over the
    *optimal* stable models.  Grounding is worst-case exponential in
    constraint arity, hence ``isolatable``.
    """

    name = "asp"
    isolatable = True

    def check(self, request: CQARequest) -> None:
        _require_cq(request, self.name)
        if not denial_class_only(request.constraints):
            raise EngineInapplicableError(
                "repair programs need denial-class constraints "
                "(denial constraints, FDs, keys, CFDs)"
            )

    def run(self, request: CQARequest) -> EngineAnswer:
        from ..asp.repair_programs import RepairProgram

        semantics = (
            "s" if request.semantics == "delete-only"
            else request.semantics
        )
        program = RepairProgram(
            request.db,
            request.constraints,
            include_weak_constraints=(semantics == "c"),
        )
        answers = program.consistent_answers(
            request.query, semantics=semantics, optimize=True
        )
        return EngineAnswer(frozenset(answers), True)


class EnumerateEngine(Engine):
    """Rung 4: budgeted repair enumeration (the semantics baseline).

    Always applicable — this is the definition of ``Cons(Q, D, Σ)``.
    Runs under the ambient (per-rung) budget; if the enumeration cannot
    finish inside it, the rung *fails* with the budget error, building
    no bracket from the repairs it saw, and leaves the sound-bracket
    duty to the final rung.
    """

    name = "enumerate"

    def check(self, request: CQARequest) -> None:
        if not hasattr(request.query, "answers"):
            raise EngineInapplicableError(
                "enumeration needs a query with .answers(db)"
            )

    def run(self, request: CQARequest) -> EngineAnswer:
        try:
            answers = consistent_answers(
                request.db,
                request.constraints,
                request.query,
                semantics=request.semantics,
            )
        except BudgetExceededError as exc:
            raise BudgetExceededError(
                exc.reason,
                "repair enumeration did not finish inside the rung "
                f"budget ({exc.reason})",
                budget=exc.budget,
            ) from None
        return EngineAnswer(frozenset(answers), True)


class CertainCoreEngine(Engine):
    """Rung 5: the anytime certain-core bracket (Section 3.2).

    A sound under-approximation for monotone queries: the core (tuples
    in no conflict) is contained in every repair, so its answers are
    certain under all three semantics.  Under "s" and "delete-only" the
    answer also carries an ``upper_bound`` over-approximation from a
    sample of greedy S-repairs, bracketing the exact set.  Never
    complete.
    """

    name = "certain-core"
    exact = False

    #: repairs sampled for the over-approximation bracket (0 disables)
    sample_size = 4

    def check(self, request: CQARequest) -> None:
        if not denial_class_only(request.constraints):
            raise EngineInapplicableError(
                "the certain core is defined for denial-class "
                "constraints only"
            )
        if not isinstance(
            request.query, (ConjunctiveQuery, UnionQuery)
        ):
            raise EngineInapplicableError(
                "the certain core is sound for monotone (CQ/UCQ) "
                "queries only"
            )

    def run(self, request: CQARequest) -> EngineAnswer:
        # The salvage rung typically runs after the request budget is
        # spent; mask it so the core and the sample, both polynomial,
        # cannot be re-cancelled on every checkpoint.
        with suspend_budget():
            lower = underapproximate_answers(
                request.db, request.constraints, request.query
            )
            detail: Dict[str, object] = {"fallback": "certain-core"}
            # The sample holds S-repairs, and an S-repair need not be a
            # C-repair: under "c" their intersection bounds nothing.
            if self.sample_size and request.semantics != "c":
                detail["upper_bound"] = overapproximate_answers(
                    request.db,
                    request.constraints,
                    request.query,
                    sample_size=self.sample_size,
                )
            return EngineAnswer(lower, False, detail)


DEFAULT_LADDER: Tuple[str, ...] = (
    "fm-sql",
    "fo-mem",
    "local",
    "enumerate",
    "certain-core",
)

ENGINES: Dict[str, Engine] = {
    engine.name: engine
    for engine in (
        FuxmanMillerSqlEngine(),
        FORewriteMemEngine(),
        LocalEngine(),
        AspEngine(),
        EnumerateEngine(),
        CertainCoreEngine(),
    )
}


def get_engine(name: str) -> Engine:
    """Look an engine up by ladder name."""
    try:
        return ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; known: {', '.join(ENGINES)}"
        ) from None


def applicable_engines(
    request: CQARequest, ladder: Optional[Tuple[str, ...]] = None
) -> Tuple[str, ...]:
    """The subset of the ladder whose applicability check passes."""
    names = DEFAULT_LADDER if ladder is None else ladder
    out = []
    for name in names:
        try:
            get_engine(name).check(request)
        except (NotRewritableError, EngineInapplicableError):
            continue
        out.append(name)
    return tuple(out)
