"""Repair programs for interacting ICs: deletions *and* insertions.

Section 3.3 notes that when ICs interact — repair actions for one
affecting another, as with inclusion dependencies repaired by insertion —
the repair program "needs a couple of extra annotations to capture a
transition process" (Barceló & Bertossi [10, 11], the TPLP'03 programs).
This module implements that construction for denial-class constraints
combined with (possibly existential) inclusion dependencies under the
null-insertion semantics of Section 4.2:

* ``P__orig`` holds the given facts; ``P__del`` / ``P__ins`` are the
  repair actions; ``P__fin`` (the t**-style annotation) is the
  transition's outcome: original-and-not-deleted, or inserted;
* denial constraints fire on final atoms and offer deletions
  disjunctively;
* an inclusion dependency fires when its body survives and no *original
  surviving* head matches (``P__has``), offering to delete the body fact
  or insert the null-padded head — insertions feed other constraints
  through ``P__fin``, which is exactly the interaction the annotations
  exist to capture;
* hard constraints forbid deleting non-original or inserted facts.

Stable models correspond to the repairs of the deletion+null-insertion
semantics; the read-off applies a final ⊆-minimality filter (asserted to
be a no-op on all tested inputs, mirroring the classical one-to-one
theorem).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from ..constraints.base import IntegrityConstraint
from ..constraints.denial import DenialConstraint
from ..constraints.fd import FunctionalDependency
from ..constraints.inclusion import (
    InclusionDependency,
    TupleGeneratingDependency,
)
from ..errors import SolverError
from ..logic.formulas import Atom, Comparison, Var, is_var
from ..logic.queries import ConjunctiveQuery
from ..relational.database import Database, Fact
from ..relational.nulls import NULL
from ..repairs.base import Repair, minimal_repairs, sort_repairs
from .reasoning import AnswerSet, Solver
from .repair_programs import null_guards
from .syntax import AspProgram, AspRule, WeakConstraint, asp_fact


def _orig(p: str) -> str:
    return f"{p}__orig"


def _del(p: str) -> str:
    return f"{p}__del"


def _ins(p: str) -> str:
    return f"{p}__ins"


def _fin(p: str) -> str:
    return f"{p}__fin"


def _cand(p: str) -> str:
    return f"{p}__cand"


def _has(p: str, index: int) -> str:
    return f"{p}__has{index}"


@dataclass
class GeneralRepairProgram:
    """The annotated transition program for interacting ICs."""

    db: Database
    constraints: Tuple[IntegrityConstraint, ...]
    include_weak_constraints: bool = False

    def __post_init__(self) -> None:
        self.constraints = tuple(self.constraints)
        self._dcs: List[DenialConstraint] = []
        self._inds: List[TupleGeneratingDependency] = []
        for ic in self.constraints:
            if isinstance(ic, DenialConstraint):
                self._dcs.append(ic)
            elif isinstance(ic, FunctionalDependency):
                self._dcs.extend(ic.to_denial_constraints(self.db))
            elif isinstance(ic, InclusionDependency):
                self._inds.append(ic.to_tgd(self.db))
            elif isinstance(ic, TupleGeneratingDependency):
                self._validate_tgd(ic)
                self._inds.append(ic)
            else:
                raise SolverError(
                    f"unsupported constraint {type(ic).__name__} for the "
                    "general repair program"
                )
        self._program = self._compile()
        self._solver: Optional[Solver] = None

    @staticmethod
    def _validate_tgd(tgd: TupleGeneratingDependency) -> None:
        if len(tgd.body) != 1 or len(tgd.head) != 1:
            raise SolverError(
                "the general repair program supports inclusion-style tgds "
                "(one body atom, one head atom)"
            )
        existentials = tgd.existential_variables()
        seen = set()
        for t in tgd.head[0].terms:
            if is_var(t) and t in existentials:
                if t in seen:
                    raise SolverError(
                        "repeated existential head variables cannot be "
                        "satisfied by NULL insertion"
                    )
                seen.add(t)

    # ------------------------------------------------------------------

    def _compile(self) -> AspProgram:
        rules: List[AspRule] = []
        relations = self.db.schema.names()
        for relation in relations:
            arity = self.db.schema.relation(relation).arity
            values = tuple(Var(f"x{i}_") for i in range(arity))
            orig = Atom(_orig(relation), values)
            deleted = Atom(_del(relation), values)
            inserted = Atom(_ins(relation), values)
            final = Atom(_fin(relation), values)
            candidate = Atom(_cand(relation), values)
            # The t*-style annotation: original or inserted — the state
            # constraint bodies fire on, so that a deletion chosen by a
            # rule keeps supporting that very rule (stability).
            rules.append(AspRule((candidate,), (orig,)))
            rules.append(AspRule((candidate,), (inserted,)))
            # Transition outcome (t**): survive deletion, or be inserted.
            rules.append(AspRule((final,), (orig,), (deleted,)))
            rules.append(AspRule((final,), (inserted,)))
            # Only original facts are deletable; never delete insertions.
            rules.append(AspRule((), (deleted,), (orig,)))
            rules.append(AspRule((), (deleted, inserted)))
        for fact in sorted(self.db.facts(), key=repr):
            rules.append(
                asp_fact(Atom(_orig(fact.relation), fact.values))
            )
        for dc in self._dcs:
            rules.append(self._dc_rule(dc))
        for index, ind in enumerate(self._inds):
            rules.extend(self._ind_rules(ind, index))
        weak: List[WeakConstraint] = []
        if self.include_weak_constraints:
            # Example 4.2 generalized: penalize every repair action —
            # deletions and insertions alike — so the optimal stable
            # models are the C-repairs of the insertion semantics.
            for relation in relations:
                arity = self.db.schema.relation(relation).arity
                values = tuple(Var(f"x{i}_") for i in range(arity))
                weak.append(
                    WeakConstraint((Atom(_del(relation), values),))
                )
                weak.append(
                    WeakConstraint((Atom(_ins(relation), values),))
                )
        return AspProgram(tuple(rules), tuple(weak))

    def _dc_rule(self, dc: DenialConstraint) -> AspRule:
        body = tuple(
            Atom(_cand(a.predicate), a.terms) for a in dc.atoms
        )
        head = tuple(
            Atom(_del(a.predicate), a.terms) for a in dc.atoms
        )
        # A NULL, e.g. in a null-padded inserted tuple, fires nothing.
        guards = null_guards(dc)
        return AspRule(head, body, (), tuple(dc.conditions) + guards)

    def _ind_rules(
        self, ind: TupleGeneratingDependency, index: int
    ) -> List[AspRule]:
        (body_atom,) = ind.body
        (head_atom,) = ind.head
        frontier = sorted(
            ind.body_variables() & head_atom.free_variables(),
            key=lambda v: v.name,
        )
        has = Atom(_has(head_atom.predicate, index), tuple(frontier))
        # The head is already satisfied by a *surviving original* fact:
        # P__has(frontier) ← P__orig(head terms with fresh existentials),
        #                    not P__del(same).
        fresh = {
            v: Var(f"e{index}_{i}_")
            for i, v in enumerate(
                sorted(ind.existential_variables(), key=lambda w: w.name)
            )
        }
        head_terms = tuple(
            fresh.get(t, t) if is_var(t) else t for t in head_atom.terms
        )
        has_rule = AspRule(
            (has,),
            (Atom(_orig(head_atom.predicate), head_terms),),
            (Atom(_del(head_atom.predicate), head_terms),),
        )
        # Null-padded insertion candidate.
        insert_terms = tuple(
            (NULL if (is_var(t) and t in fresh) else t)
            for t in head_atom.terms
        )
        # Guard: a body tuple with NULL at a frontier position satisfies
        # the dependency vacuously (SQL convention).
        guards = tuple(
            Comparison("!=", v, NULL) for v in frontier
        )
        violation_rule = AspRule(
            (
                Atom(_del(body_atom.predicate), body_atom.terms),
                Atom(_ins(head_atom.predicate), insert_terms),
            ),
            (Atom(_cand(body_atom.predicate), body_atom.terms),),
            (has,),
            guards,
        )
        return [has_rule, violation_rule]

    # ------------------------------------------------------------------

    @property
    def program(self) -> AspProgram:
        """The compiled transition program."""
        return self._program

    @property
    def solver(self) -> Solver:
        """The (cached) solver for the transition program."""
        if self._solver is None:
            self._solver = Solver(self._program)
        return self._solver

    def answer_sets(self) -> List[AnswerSet]:
        """All stable models."""
        return self.solver.answer_sets()

    def repairs(self) -> List[Repair]:
        """Repairs read off the final atoms of the stable models.

        A ⊆-minimality filter guards against redundant models; on every
        validated input it is a no-op (see tests), matching the classical
        correspondence theorems.
        """
        return sort_repairs(
            minimal_repairs(self._read_repairs(self.answer_sets()))
        )

    def c_repairs(self) -> List[Repair]:
        """C-repairs from the weak-constraint-optimal stable models.

        Requires ``include_weak_constraints=True``; mirrors Example 4.2
        for the interacting-IC semantics (insertions count too).
        """
        if not self.include_weak_constraints:
            raise SolverError(
                "compile with include_weak_constraints=True to get "
                "C-repairs"
            )
        return sort_repairs(
            self._read_repairs(self.solver.optimal_answer_sets())
        )

    def _read_repairs(self, answer_sets: List[AnswerSet]) -> List[Repair]:
        """The repair of each stable model, once per difference: it
        deletes the original facts that are not final and inserts the
        final facts that are not original."""
        original = self.db.facts_with_tids()
        repairs = []
        for answer_set in answer_sets:
            final = {
                Fact(relation, tuple(a.terms))
                for relation in self.db.schema.names()
                for a in answer_set.with_predicate(_fin(relation))
            }
            repairs.append(Repair(
                self.db,
                frozenset(
                    tid for tid, f in original.items() if f not in final
                ),
                frozenset(f for f in final if f not in self.db),
            ))
        return list(dict.fromkeys(repairs))

    def stable_model_count(self) -> int:
        """Number of stable models (before the read-off minimal filter)."""
        return len(self.answer_sets())

    def consistent_answers(
        self, query: ConjunctiveQuery
    ) -> FrozenSet[Tuple]:
        """Certain answers over the repairs (cautious reasoning)."""
        result = None
        for repair in self.repairs():
            answers = frozenset(query.answers(repair.instance))
            result = answers if result is None else (result & answers)
            if not result:
                break
        if result is None:
            raise SolverError("the repair program has no stable models")
        return result
