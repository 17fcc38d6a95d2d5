"""Active-domain evaluation of first-order formulas over an instance.

Evaluation follows the semantics the paper relies on:

* conjunctive queries evaluate by pattern matching and joins;
* negation, universal quantification, and comparisons evaluate under the
  active-domain (safe-range) semantics — rewritten queries such as (6) in
  Example 3.4 use ``NOT EXISTS`` subqueries, which evaluate as boolean
  checks once their free variables are bound;
* the single NULL follows SQL semantics (Sections 4.2–4.3): it never
  satisfies a join or comparison, not even with itself;
* labeled nulls (naive tables, used by LAV integration) *do* join with
  equally-labeled nulls.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import QueryError
from ..relational.database import Database, Fact
from ..relational.nulls import is_labeled_null, is_null
from .formulas import (
    And,
    Atom,
    Comparison,
    Exists,
    Forall,
    Formula,
    IsNull,
    Not,
    Or,
    Var,
    is_var,
)

Binding = Dict[Var, object]


def _joinable(left: object, right: object) -> bool:
    """Can two values satisfy an equality join?  NULL never joins."""
    if is_null(left) or is_null(right):
        return False
    return left == right


def _match_fact(
    pattern: Atom, values: Tuple[object, ...], binding: Binding
) -> Optional[Binding]:
    """Extend *binding* so the atom pattern matches a fact's values.

    Returns None when matching fails.  A variable's *first* occurrence may
    bind to NULL (SQL rows with nulls are still rows), but any further use
    of that variable — in this atom or elsewhere — fails, because NULL
    never joins.
    """
    local = dict(binding)
    for term, value in zip(pattern.terms, values):
        if is_var(term):
            if term in local:
                if not _joinable(local[term], value):
                    return None
            else:
                local[term] = value
        else:
            if not _joinable(term, value):
                return None
    return local


def _compare(op: str, left: object, right: object) -> bool:
    """Evaluate a comparison with SQL null semantics."""
    if is_null(left) or is_null(right):
        return False
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if is_labeled_null(left) or is_labeled_null(right):
        return False
    try:
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError:
        # Incomparable value types: order comparisons are false, like
        # SQL engines rejecting mixed-type comparisons conservatively.
        return False
    raise QueryError(f"unknown comparison operator {op!r}")


def _is_decided(formula: Formula, binding: Binding) -> bool:
    """True when every free variable of *formula* is bound."""
    return all(v in binding for v in formula.free_variables())


class Evaluator:
    """Evaluates formulas over one database instance."""

    def __init__(self, db: Database) -> None:
        self._db = db
        self._domain: Optional[List[object]] = None

    def _active_domain(self) -> List[object]:
        if self._domain is None:
            self._domain = sorted(self._db.active_domain(), key=repr)
        return self._domain

    # ------------------------------------------------------------------

    def bindings(
        self, formula: Formula, binding: Optional[Binding] = None
    ) -> Iterator[Binding]:
        """All extensions of *binding* satisfying *formula*."""
        if binding is None:
            binding = {}
        yield from self._eval(formula, binding)

    def holds(
        self, formula: Formula, binding: Optional[Binding] = None
    ) -> bool:
        """Boolean satisfaction under *binding*."""
        for _ in self.bindings(formula, binding):
            return True
        return False

    # ------------------------------------------------------------------

    def _eval(self, formula: Formula, binding: Binding) -> Iterator[Binding]:
        if isinstance(formula, Atom):
            yield from self._eval_atom(formula, binding)
        elif isinstance(formula, Comparison):
            yield from self._eval_comparison(formula, binding)
        elif isinstance(formula, IsNull):
            yield from self._eval_isnull(formula, binding)
        elif isinstance(formula, And):
            yield from self._eval_and(list(formula.parts), binding)
        elif isinstance(formula, Or):
            for part in formula.parts:
                yield from self._eval(part, binding)
        elif isinstance(formula, Not):
            yield from self._eval_not(formula, binding)
        elif isinstance(formula, Exists):
            yield from self._eval_exists(formula, binding)
        elif isinstance(formula, Forall):
            rewritten = Not(Exists(formula.variables, Not(formula.inner)))
            yield from self._eval(rewritten, binding)
        else:
            raise QueryError(f"cannot evaluate {type(formula).__name__}")

    def _eval_atom(self, a: Atom, binding: Binding) -> Iterator[Binding]:
        # Probe the rows the bound positions name: constants and bound
        # variables.  The index keeps the sorted order and joins as
        # _joinable does, so the bindings come out exactly as a scan of
        # the sorted relation would yield them; _match_fact still checks
        # repeated variables and binds the free positions.
        positions = []
        key = []
        for position, term in enumerate(a.terms):
            if is_var(term):
                if term not in binding:
                    continue
                term = binding[term]
            positions.append(position)
            key.append(term)
        rows = self._db.rows_where(a.predicate, tuple(positions), tuple(key))
        for values in rows:
            extended = _match_fact(a, values, binding)
            if extended is not None:
                yield extended

    def _eval_comparison(
        self, cmp: Comparison, binding: Binding
    ) -> Iterator[Binding]:
        free = [v for v in (cmp.left, cmp.right) if is_var(v) and v not in binding]
        if free:
            # Unsafe comparison: fall back to active-domain enumeration.
            yield from self._enumerate_then(cmp, free, binding)
            return
        left = binding[cmp.left] if is_var(cmp.left) else cmp.left
        right = binding[cmp.right] if is_var(cmp.right) else cmp.right
        if _compare(cmp.op, left, right):
            yield binding

    def _eval_isnull(self, f: IsNull, binding: Binding) -> Iterator[Binding]:
        if is_var(f.term) and f.term not in binding:
            yield from self._enumerate_then(f, [f.term], binding)
            return
        value = binding[f.term] if is_var(f.term) else f.term
        if is_null(value):
            yield binding

    def _eval_not(self, f: Not, binding: Binding) -> Iterator[Binding]:
        unbound = [v for v in f.free_variables() if v not in binding]
        if unbound:
            yield from self._enumerate_then(f, unbound, binding)
            return
        if not self.holds(f.inner, binding):
            yield binding

    def _eval_exists(self, f: Exists, binding: Binding) -> Iterator[Binding]:
        # Quantified variables open a fresh scope: shadow any outer binding.
        outer_values = {
            v: binding[v] for v in f.variables if v in binding
        }
        inner_binding = {
            v: val for v, val in binding.items() if v not in f.variables
        }
        seen = set()
        for result in self._eval(f.inner, inner_binding):
            projected = {
                v: val for v, val in result.items() if v not in f.variables
            }
            projected.update(outer_values)
            key = tuple(sorted(
                ((v.name, repr(val)) for v, val in projected.items())
            ))
            if key not in seen:
                seen.add(key)
                yield projected

    def _eval_and(
        self, parts: List[Formula], binding: Binding
    ) -> Iterator[Binding]:
        if not parts:
            yield binding
            return
        index = self._pick_conjunct(parts, binding)
        if index is None:
            # No conjunct is directly evaluable: enumerate one unbound
            # variable over the active domain (active-domain semantics).
            unbound = sorted(
                {
                    v
                    for p in parts
                    for v in p.free_variables()
                    if v not in binding
                },
                key=lambda v: v.name,
            )
            if not unbound:
                raise QueryError(
                    f"conjunction cannot be evaluated: {parts}"
                )
            target = unbound[0]
            for value in self._active_domain():
                extended = dict(binding)
                extended[target] = value
                yield from self._eval_and(parts, extended)
            return
        chosen = parts[index]
        rest = parts[:index] + parts[index + 1:]
        for extended in self._eval(chosen, binding):
            yield from self._eval_and(rest, extended)

    def _pick_conjunct(
        self, parts: Sequence[Formula], binding: Binding
    ) -> Optional[int]:
        """Choose the next conjunct to evaluate.

        Preference order: decided filters (cheap boolean checks), then
        atoms (binding generators, most-bound first), then generative
        sub-formulas (Exists/Or/And).  Returns None when nothing is
        directly evaluable, triggering the active-domain fallback.
        """
        best_atom = None
        best_bound = -1
        generative = None
        for i, part in enumerate(parts):
            if isinstance(part, (Comparison, IsNull, Not, Forall)):
                if _is_decided(part, binding):
                    return i
            elif isinstance(part, Atom):
                bound = sum(
                    1
                    for t in part.terms
                    if not is_var(t) or t in binding
                )
                if bound > best_bound:
                    best_bound = bound
                    best_atom = i
            elif isinstance(part, (Exists, Or, And)):
                if generative is None:
                    generative = i
        if best_atom is not None:
            return best_atom
        return generative

    def _enumerate_then(
        self, formula: Formula, unbound: Sequence[Var], binding: Binding
    ) -> Iterator[Binding]:
        """Bind *unbound* variables over the active domain, then re-evaluate."""
        def recurse(i: int, current: Binding) -> Iterator[Binding]:
            if i == len(unbound):
                yield from self._eval(formula, current)
                return
            for value in self._active_domain():
                extended = dict(current)
                extended[unbound[i]] = value
                yield from recurse(i + 1, extended)

        yield from recurse(0, binding)


def evaluate(db: Database, formula: Formula) -> bool:
    """Is the (sentence) *formula* true in *db*?"""
    return Evaluator(db).holds(formula)


def satisfying_bindings(
    db: Database, formula: Formula
) -> List[Binding]:
    """All satisfying bindings of *formula*'s free variables in *db*."""
    return list(Evaluator(db).bindings(formula))


def witnesses(
    db: Database,
    atoms: Sequence[Atom],
    conditions: Sequence[Formula] = (),
) -> List[Tuple[Binding, Tuple[Fact, ...]]]:
    """Satisfying bindings of a conjunction of atoms, with witnessing facts.

    Used by violation detection and causality: each result pairs a binding
    with the facts instantiating each atom under it.  *conditions* are extra
    filters (comparisons) conjoined with the atoms.
    """
    evaluator = Evaluator(db)
    results = []
    seen = set()
    for binding in evaluator.bindings(And(tuple(atoms) + tuple(conditions))):
        facts = []
        for a in atoms:
            values = tuple(
                binding[t] if is_var(t) else t for t in a.terms
            )
            facts.append(Fact(a.predicate, values))
        key = (
            tuple(sorted(((v.name, repr(val)) for v, val in binding.items()))),
        )
        if key not in seen:
            seen.add(key)
            results.append((binding, tuple(facts)))
    return results
