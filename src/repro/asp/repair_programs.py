"""Repair programs: ICs compiled to answer-set programs (Section 3.3).

Following Example 3.5, a set of denial constraints over an instance with
tids becomes a disjunctive program whose stable models are exactly the
S-repairs:

* the instance's facts (with tids) are program facts;
* each denial constraint contributes one disjunctive rule whose body
  captures a violation and whose head offers the alternative deletions
  (annotation constant ``d``);
* inertia rules keep undeleted tuples (annotation ``s``).

Adding the weak constraints of Example 4.2 makes the *optimal* stable
models correspond to the C-repairs.  CQA is cautious reasoning over
query rules on the ``s``-annotated atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from ..constraints.base import IntegrityConstraint
from ..constraints.cfd import ConditionalFunctionalDependency
from ..constraints.denial import DenialConstraint
from ..constraints.fd import FunctionalDependency
from ..errors import SolverError
from ..logic.formulas import Atom, Comparison, Var, is_var
from ..logic.queries import ConjunctiveQuery
from ..relational.database import Database
from ..relational.nulls import NULL
from ..repairs.base import Repair
from .reasoning import AnswerSet, Solver
from .syntax import AspProgram, AspRule, WeakConstraint, asp_fact

DELETED = "d"
STAYS = "s"


def relevant_relations(
    query: ConjunctiveQuery,
    constraints: Sequence[IntegrityConstraint],
    db: Database,
) -> FrozenSet[str]:
    """Relations that can influence the consistent answers to *query*.

    ConsEx [43] uses magic sets to focus the repair program on the part
    of the database the query can see; this is the relation-level core of
    that idea: starting from the query's relations, close under
    constraints (a constraint mentioning a relevant relation drags in all
    its relations, since repairing it may touch them).  Relations outside
    the closure can neither change nor be changed by the relevant
    repairs.
    """
    constraint_relations = []
    for ic in constraints:
        for dc in denial_constraints_of((ic,), db):
            constraint_relations.append(frozenset(dc.predicates()))
    relevant = {a.predicate for a in query.atoms}
    changed = True
    while changed:
        changed = False
        for group in constraint_relations:
            if group & relevant and not group <= relevant:
                relevant |= group
                changed = True
    return frozenset(relevant)


def null_guards(
    body: Union[DenialConstraint, ConjunctiveQuery]
) -> Tuple[Comparison, ...]:
    """``v != NULL`` for each variable of *body* (a denial constraint or
    a query: its ``atoms`` and ``conditions``) that joins (occurs twice
    or more in its atoms) or is compared: the grounder treats NULL as
    an ordinary constant, but under SQL semantics a NULL never
    satisfies a join or a comparison (Section 4), so no violation
    fires and no answer is derived through one."""
    counts: Dict[Var, int] = {}
    for a in body.atoms:
        for t in a.terms:
            if is_var(t):
                counts[t] = counts.get(t, 0) + 1
    compared = {
        t for c in body.conditions for t in (c.left, c.right) if is_var(t)
    }
    return tuple(
        Comparison("!=", v, NULL)
        for v in sorted(counts, key=lambda w: w.name)
        if counts[v] > 1 or v in compared
    )


def primed(predicate: str) -> str:
    """The annotated nickname predicate for *predicate* (paper's R')."""
    return f"{predicate}__r"


def denial_constraints_of(
    constraints: Sequence[IntegrityConstraint], db: Database
) -> List[DenialConstraint]:
    """Normalize the supported constraints to denial constraints."""
    out: List[DenialConstraint] = []
    for ic in constraints:
        if isinstance(ic, DenialConstraint):
            out.append(ic)
        elif isinstance(ic, FunctionalDependency):
            out.extend(ic.to_denial_constraints(db))
        elif isinstance(ic, ConditionalFunctionalDependency):
            out.extend(ic.to_denial_constraints(db))
        else:
            raise SolverError(
                "repair programs support denial-class constraints "
                "expressible as DCs (denial constraints, FDs, keys); got "
                f"{type(ic).__name__} — see Section 3.3 of the paper "
                "for the extra annotations interacting ICs would need"
            )
    return out


@dataclass
class RepairProgram:
    """The compiled repair program for one instance and constraint set."""

    db: Database
    constraints: Tuple[IntegrityConstraint, ...]
    include_weak_constraints: bool = False

    def __post_init__(self) -> None:
        self.constraints = tuple(self.constraints)
        self._dcs = denial_constraints_of(self.constraints, self.db)
        self._program = self._compile()
        self._solver: Optional[Solver] = None

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def _compile(self) -> AspProgram:
        rules: List[AspRule] = []
        for tid, fact in sorted(
            self.db.facts_with_tids().items(), key=lambda kv: kv[0]
        ):
            rules.append(
                asp_fact(Atom(fact.relation, (tid,) + fact.values))
            )
        for dc in self._dcs:
            rules.append(self._violation_rule(dc))
        for relation in self.db.schema.names():
            rules.append(self._inertia_rule(relation))
        weak: List[WeakConstraint] = []
        if self.include_weak_constraints:
            for relation in self.db.schema.names():
                weak.append(self._weak_constraint(relation))
        return AspProgram(tuple(rules), tuple(weak))

    def _violation_rule(self, dc: DenialConstraint) -> AspRule:
        body: List[Atom] = []
        head: List[Atom] = []
        for i, a in enumerate(dc.atoms):
            tid_var = Var(f"t{i}_")
            body.append(Atom(a.predicate, (tid_var,) + tuple(a.terms)))
            head.append(
                Atom(
                    primed(a.predicate),
                    (tid_var,) + tuple(a.terms) + (DELETED,),
                )
            )
        conditions = tuple(dc.conditions) + null_guards(dc)
        return AspRule(tuple(head), tuple(body), (), conditions)

    def _inertia_rule(self, relation: str) -> AspRule:
        arity = self.db.schema.relation(relation).arity
        tid_var = Var("t_")
        value_vars = tuple(Var(f"x{i}_") for i in range(arity))
        original = Atom(relation, (tid_var,) + value_vars)
        stays = Atom(primed(relation), (tid_var,) + value_vars + (STAYS,))
        deleted = Atom(
            primed(relation), (tid_var,) + value_vars + (DELETED,)
        )
        return AspRule((stays,), (original,), (deleted,), ())

    def _weak_constraint(self, relation: str) -> WeakConstraint:
        arity = self.db.schema.relation(relation).arity
        tid_var = Var("t_")
        value_vars = tuple(Var(f"x{i}_") for i in range(arity))
        original = Atom(relation, (tid_var,) + value_vars)
        deleted = Atom(
            primed(relation), (tid_var,) + value_vars + (DELETED,)
        )
        return WeakConstraint((original, deleted), (), (), weight=1, level=1)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    @property
    def program(self) -> AspProgram:
        """The compiled ASP program."""
        return self._program

    @staticmethod
    def _deletion_atom(a) -> bool:
        """Projection for blocking: the d-annotated nickname atoms.

        Models of a repair program are determined by their deletion
        atoms and stable deletions are minimal hitting sets, so the
        projected-blocking soundness conditions hold (see
        :func:`repro.asp.solver.stable_models`).
        """
        return (
            a.predicate.endswith("__r")
            and len(a.terms) > 0
            and a.terms[-1] == DELETED
        )

    @property
    def solver(self) -> Solver:
        """The (cached) solver, with deletion-projected blocking."""
        if self._solver is None:
            self._solver = Solver(
                self._program, blocking_projection=self._deletion_atom
            )
        return self._solver

    def answer_sets(self) -> List[AnswerSet]:
        """All stable models of the repair program."""
        return self.solver.answer_sets()

    def repairs(self) -> List[Repair]:
        """S-repairs read off the stable models (kept ``s`` atoms)."""
        return [
            self._read_repair(s) for s in self.answer_sets()
        ]

    def c_repairs(self) -> List[Repair]:
        """C-repairs: repairs from the weak-constraint-optimal models.

        Requires ``include_weak_constraints=True``.
        """
        if not self.include_weak_constraints:
            raise SolverError(
                "compile with include_weak_constraints=True to get "
                "C-repairs (Example 4.2)"
            )
        return [
            self._read_repair(s)
            for s in self.solver.optimal_answer_sets()
        ]

    def _read_repair(self, answer_set: AnswerSet) -> Repair:
        """The repair of a stable model: it deletes every tid the model
        does not keep (``s``-annotated)."""
        kept = {
            a.terms[0]
            for relation in self.db.schema.names()
            for a in answer_set.with_predicate(primed(relation))
            if a.terms[-1] == STAYS
        }
        return Repair(self.db, self.db.tids() - kept)

    # ------------------------------------------------------------------
    # CQA on top of the program (cautious reasoning over query rules)
    # ------------------------------------------------------------------

    def query_rule(
        self, query: ConjunctiveQuery, answer_predicate: str = "Ans"
    ) -> AspRule:
        """The query rule over ``s``-annotated atoms, guarded against
        NULL as the violation rules are (:func:`null_guards`)."""
        body: List[Atom] = []
        for i, a in enumerate(query.atoms):
            tid_var = Var(f"qt{i}_")
            body.append(
                Atom(
                    primed(a.predicate),
                    (tid_var,) + tuple(a.terms) + (STAYS,),
                )
            )
        head = Atom(answer_predicate, tuple(query.head))
        return AspRule(
            (head,), tuple(body), (),
            tuple(query.conditions) + null_guards(query),
        )

    def restricted_to_query(
        self, query: ConjunctiveQuery
    ) -> "RepairProgram":
        """The repair program over the query-relevant slice (ConsEx-style).

        Facts and constraints over relations the query cannot observe are
        dropped; consistent answers are unchanged because repairs factor
        over the relevance partition.
        """
        relevant = relevant_relations(query, self.constraints, self.db)
        sliced_db = self.db.delete(
            [f for f in self.db.facts() if f.relation not in relevant]
        )
        sliced_constraints = tuple(
            ic
            for ic in self.constraints
            if all(
                set(dc.predicates()) <= relevant
                for dc in denial_constraints_of((ic,), self.db)
            )
        )
        return RepairProgram(
            sliced_db,
            sliced_constraints,
            include_weak_constraints=self.include_weak_constraints,
        )

    def consistent_answers(
        self,
        query: ConjunctiveQuery,
        semantics: str = "s",
        optimize: bool = False,
    ) -> FrozenSet[Tuple]:
        """``Cons(Q, D, Σ)`` as cautious answers of the extended program.

        ``optimize=True`` first slices the program to the query-relevant
        relations (the ConsEx magic-set idea at relation granularity).
        """
        if optimize:
            return self.restricted_to_query(query).consistent_answers(
                query, semantics=semantics, optimize=False
            )
        extended = self._program.extended_with([self.query_rule(query)])
        solver = Solver(
            extended, blocking_projection=self._deletion_atom
        )
        pattern = Atom("Ans", tuple(query.head))
        if semantics == "s":
            return frozenset(solver.cautious(pattern))
        if semantics == "c":
            if not self.include_weak_constraints:
                raise SolverError(
                    "C-repair CQA needs include_weak_constraints=True"
                )
            return frozenset(solver.cautious(pattern, optimal_only=True))
        raise ValueError(f"unknown semantics {semantics!r}")

    def possible_answers(
        self, query: ConjunctiveQuery
    ) -> FrozenSet[Tuple]:
        """Brave answers: true in at least one repair."""
        extended = self._program.extended_with([self.query_rule(query)])
        solver = Solver(
            extended, blocking_projection=self._deletion_atom
        )
        pattern = Atom("Ans", tuple(query.head))
        return frozenset(solver.brave(pattern))
