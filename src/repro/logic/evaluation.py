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

A formula is planned once per set of bound variables (:func:`_plan`),
never per binding.  A conjunction's plan is a *schedule*: its conjuncts
in the order :func:`_pick_conjunct` takes them, each step fixed — an
atom's probe positions, the positions that bind its free variables and
its repeated variables to check; a decided filter; a generative
sub-formula; or an active-domain variable.  The choice depends only on
which variables are bound, so every binding runs the same steps in the
same order, and the bindings come out as choosing afresh per binding
would yield them.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import QueryError
from ..relational.database import Database, Fact, Row
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

#: Conjuncts that only test a binding, once all their variables are bound.
_FILTERS = (Comparison, IsNull, Not, Forall)
#: Conjuncts that extend a binding by evaluating a sub-formula.
_GENERATIVE = (Exists, Or, And)


def _joinable(left: object, right: object) -> bool:
    """Can two values satisfy an equality join?  NULL never joins."""
    if is_null(left) or is_null(right):
        return False
    return left == right


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
        yield from _plan(formula, frozenset(binding)).run(self, binding)

    def holds(
        self, formula: Formula, binding: Optional[Binding] = None
    ) -> bool:
        """Boolean satisfaction under *binding*."""
        for _ in self.bindings(formula, binding):
            return True
        return False

    def matches(
        self, formula: Formula, binding: Optional[Binding] = None
    ) -> Iterator[Tuple[Binding, Tuple[Row, ...]]]:
        """:meth:`bindings` of an atom or a conjunction, each with the
        rows that witness it: the row each atom among *formula*'s
        conjuncts matched (*formula*'s own row when it is an atom), in
        the order the atoms stand."""
        if binding is None:
            binding = {}
        plan = _plan(formula, frozenset(binding))
        rows: List[Optional[Row]] = [None] * plan.width
        for extended in plan.first.run(self, binding, rows):
            yield extended, tuple(rows)


# -- plans -------------------------------------------------------------


@lru_cache(maxsize=256)
def _plan(formula: Formula, bound: FrozenSet[Var]) -> "_Node":
    """*formula*'s plan when *bound* are the bound variables.  Shared by
    every evaluator: a plan depends on no instance."""
    return _compile(formula, bound)


def _compile(formula: Formula, bound: FrozenSet[Var]) -> "_Node":
    if isinstance(formula, (Atom, And)):
        return _Conjunction(formula, bound)
    if isinstance(formula, Forall):
        return _compile(
            Not(Exists(formula.variables, Not(formula.inner))), bound
        )
    if isinstance(formula, (Comparison, IsNull, Not)):
        unbound = _unbound(formula, bound)
        if unbound:
            # Unsafe: fall back to active-domain enumeration.
            return _Enumerate(formula, unbound, bound)
        return _Filter(_test(formula, bound), _DONE)
    if isinstance(formula, Or):
        return _Union(tuple(_compile(p, bound) for p in formula.parts))
    if isinstance(formula, Exists):
        return _Exists(formula, bound)
    return _Raise(f"cannot evaluate {type(formula).__name__}")


def _unbound(formula: Formula, bound: FrozenSet[Var]) -> List[Var]:
    """The variables a filter enumerates before it can test: a
    comparison's in operand order (twice when both operands are one
    variable), a negation's in its free-variable set's order."""
    if isinstance(formula, Comparison):
        operands = (formula.left, formula.right)
    elif isinstance(formula, IsNull):
        operands = (formula.term,)
    else:
        operands = tuple(formula.free_variables())
    return [v for v in operands if is_var(v) and v not in bound]


def _term(term: object) -> Callable[[Binding], object]:
    if is_var(term):
        return itemgetter(term)
    return lambda binding: term


def _test(
    formula: Formula, bound: FrozenSet[Var]
) -> Callable[["Evaluator", Binding], bool]:
    """A decided filter as a test of a binding."""
    if isinstance(formula, Comparison):
        op, left, right = formula.op, _term(formula.left), _term(
            formula.right
        )
        return lambda ev, binding: _compare(op, left(binding), right(binding))
    if isinstance(formula, IsNull):
        value = _term(formula.term)
        return lambda ev, binding: is_null(value(binding))
    if isinstance(formula, Forall):
        return _test(
            Not(Exists(formula.variables, Not(formula.inner))), bound
        )
    inner = _compile(formula.inner, bound)

    def negation(ev: Evaluator, binding: Binding) -> bool:
        for _ in inner.run(ev, binding):
            return False
        return True

    return negation


def _pick_conjunct(
    parts: Sequence[Formula], bound: FrozenSet[Var]
) -> Optional[int]:
    """Choose the next conjunct to evaluate when *bound* are bound.

    Preference order: decided filters (cheap boolean checks), then
    atoms (binding generators, most-bound first), then generative
    sub-formulas (Exists/Or/And).  Returns None when nothing is
    directly evaluable, triggering the active-domain fallback.
    """
    best_atom = None
    best_bound = -1
    generative = None
    for i, part in enumerate(parts):
        if isinstance(part, _FILTERS):
            if part.free_variables() <= bound:
                return i
        elif isinstance(part, Atom):
            count = sum(1 for t in part.terms if not is_var(t) or t in bound)
            if count > best_bound:
                best_bound = count
                best_atom = i
        elif isinstance(part, _GENERATIVE):
            if generative is None:
                generative = i
    if best_atom is not None:
        return best_atom
    return generative


#: A conjunct and, for an atom, its place among the conjunction's atoms.
_Part = Tuple[Formula, Optional[int]]


def _schedule(parts: Tuple[_Part, ...], bound: FrozenSet[Var]) -> "_Step":
    """The steps that evaluate *parts* when *bound* are bound."""
    if not parts:
        return _DONE
    index = _pick_conjunct([p for p, _ in parts], bound)
    if index is None:
        # No conjunct is directly evaluable: enumerate one unbound
        # variable over the active domain (active-domain semantics).
        unbound = sorted(
            {
                v
                for p, _ in parts
                for v in p.free_variables()
                if v not in bound
            },
            key=lambda v: v.name,
        )
        if not unbound:
            return _Raise(
                f"conjunction cannot be evaluated: {[p for p, _ in parts]}"
            )
        target = unbound[0]
        return _Domain(target, _schedule(parts, bound | {target}))
    chosen, slot = parts[index]
    rest = parts[:index] + parts[index + 1:]
    if isinstance(chosen, Atom):
        return _Probe(
            chosen, slot, bound,
            _schedule(rest, bound | chosen.free_variables()),
        )
    if isinstance(chosen, _FILTERS):
        return _Filter(_test(chosen, bound), _schedule(rest, bound))
    return _Generate(
        _compile(chosen, bound), rest, bound | chosen.free_variables()
    )


# -- plan nodes: run(evaluator, binding) yields the extensions --------


class _Conjunction:
    """An atom or a conjunction: its schedule, and how many atoms record
    the row they matched."""

    __slots__ = ("width", "first")

    def __init__(self, formula: Formula, bound: FrozenSet[Var]) -> None:
        parts = formula.parts if isinstance(formula, And) else (formula,)
        slotted: List[_Part] = []
        self.width = 0
        for part in parts:
            if isinstance(part, Atom):
                slotted.append((part, self.width))
                self.width += 1
            else:
                slotted.append((part, None))
        self.first = _schedule(tuple(slotted), bound)

    def run(self, ev: Evaluator, binding: Binding) -> Iterator[Binding]:
        return self.first.run(ev, binding, [None] * self.width)


class _Enumerate:
    """An unsafe filter: its unbound variables bound in turn over the
    active domain, then the filter decided."""

    __slots__ = ("unbound", "node")

    def __init__(
        self, formula: Formula, unbound: List[Var], bound: FrozenSet[Var]
    ) -> None:
        self.unbound = tuple(unbound)
        self.node = _compile(formula, bound | frozenset(unbound))

    def run(self, ev: Evaluator, binding: Binding) -> Iterator[Binding]:
        return self._bind(ev, 0, binding)

    def _bind(
        self, ev: Evaluator, i: int, current: Binding
    ) -> Iterator[Binding]:
        if i == len(self.unbound):
            yield from self.node.run(ev, current)
            return
        target = self.unbound[i]
        for value in ev._active_domain():
            extended = current.copy()
            extended[target] = value
            yield from self._bind(ev, i + 1, extended)


class _Union:
    """A disjunction: each part's extensions in turn."""

    __slots__ = ("nodes",)

    def __init__(self, nodes) -> None:
        self.nodes = nodes

    def run(self, ev: Evaluator, binding: Binding) -> Iterator[Binding]:
        for node in self.nodes:
            yield from node.run(ev, binding)


class _Exists:
    """Existential quantification: the inner formula in a fresh scope
    for its variables, each projected extension once."""

    __slots__ = ("variables", "inner")

    def __init__(self, formula: Exists, bound: FrozenSet[Var]) -> None:
        self.variables = formula.variables
        self.inner = _compile(
            formula.inner, bound - frozenset(formula.variables)
        )

    def run(self, ev: Evaluator, binding: Binding) -> Iterator[Binding]:
        # Quantified variables open a fresh scope: shadow any outer binding.
        variables = self.variables
        outer_values = {v: binding[v] for v in variables if v in binding}
        inner_binding = {
            v: val for v, val in binding.items() if v not in variables
        }
        seen = set()
        for result in self.inner.run(ev, inner_binding):
            projected = {
                v: val for v, val in result.items() if v not in variables
            }
            projected.update(outer_values)
            key = tuple(sorted(
                ((v.name, repr(val)) for v, val in projected.items())
            ))
            if key not in seen:
                seen.add(key)
                yield projected


# -- schedule steps: run(evaluator, binding, rows) --------------------


class _Done:
    """The end of a schedule: the binding satisfies the conjunction."""

    __slots__ = ()

    def run(
        self, ev: Evaluator, binding: Binding, rows: list
    ) -> Iterator[Binding]:
        yield binding


_DONE = _Done()


class _Probe:
    """An atom: probe the rows its bound positions (constants and bound
    variables) name, keep those whose repeated free variables join, and
    bind its free variables (a first occurrence binds even NULL)."""

    __slots__ = (
        "predicate", "positions", "key", "checks", "binds", "slot", "next",
    )

    def __init__(
        self, a: Atom, slot: int, bound: FrozenSet[Var], next_step
    ) -> None:
        positions: List[int] = []
        probe: List[object] = []
        first: Dict[Var, int] = {}
        checks: List[Tuple[int, int]] = []
        for position, term in enumerate(a.terms):
            if not is_var(term) or term in bound:
                positions.append(position)
                probe.append(term)
            elif term in first:
                checks.append((first[term], position))
            else:
                first[term] = position
        self.predicate = a.predicate
        self.positions = tuple(positions)
        self.key = _key(probe)
        self.checks = tuple(checks)
        self.binds = tuple((p, v) for v, p in first.items())
        self.slot = slot
        self.next = next_step

    def run(
        self, ev: Evaluator, binding: Binding, rows: list
    ) -> Iterator[Binding]:
        key = self.key(binding)
        checks, binds, slot, step = (
            self.checks, self.binds, self.slot, self.next
        )
        for row in ev._db.rows_where(self.predicate, self.positions, key):
            if checks and not all(_joinable(row[i], row[j]) for i, j in checks):
                continue
            extended = binding.copy()
            for position, var in binds:
                extended[var] = row[position]
            rows[slot] = row
            if step is _DONE:
                yield extended
            else:
                yield from step.run(ev, extended, rows)


def _key(probe: List[object]) -> Callable[[Binding], Row]:
    """A function from a binding to an atom's probe key."""
    if not any(is_var(t) for t in probe):
        constant = tuple(probe)
        return lambda binding: constant
    terms = [(is_var(t), t) for t in probe]
    return lambda binding: tuple(
        [binding[t] if variable else t for variable, t in terms]
    )


class _Filter:
    """A decided filter: the rest of the schedule, if the binding
    passes (on its own, the binding itself)."""

    __slots__ = ("test", "next")

    def __init__(self, test, next_step) -> None:
        self.test = test
        self.next = next_step

    def run(
        self, ev: Evaluator, binding: Binding, rows: Optional[list] = None
    ) -> Iterator[Binding]:
        if self.test(ev, binding):
            if self.next is _DONE:
                yield binding
            else:
                yield from self.next.run(ev, binding, rows)


class _Generate:
    """A generative conjunct (Exists, Or, a nested And): the rest of the
    schedule for each extension.  An extension binds every free
    variable of the conjunct unless a disjunction left some unbound;
    the rest is then planned for the variables it did bind."""

    __slots__ = ("node", "rest", "width", "next", "variants")

    def __init__(self, node, rest, bound: FrozenSet[Var]) -> None:
        self.node = node
        self.rest = rest
        self.width = len(bound)
        self.next = _schedule(rest, bound)
        self.variants: Dict[FrozenSet[Var], _Step] = {}

    def run(
        self, ev: Evaluator, binding: Binding, rows: list
    ) -> Iterator[Binding]:
        for extended in self.node.run(ev, binding):
            if len(extended) == self.width:
                step = self.next
            else:
                bound = frozenset(extended)
                step = self.variants.get(bound)
                if step is None:
                    step = self.variants.setdefault(
                        bound, _schedule(self.rest, bound)
                    )
            yield from step.run(ev, extended, rows)


class _Domain:
    """The active-domain fallback: bind one variable to each value of
    the active domain, then plan the same conjuncts again."""

    __slots__ = ("target", "next")

    def __init__(self, target: Var, next_step) -> None:
        self.target = target
        self.next = next_step

    def run(
        self, ev: Evaluator, binding: Binding, rows: list
    ) -> Iterator[Binding]:
        target, step = self.target, self.next
        for value in ev._active_domain():
            extended = binding.copy()
            extended[target] = value
            yield from step.run(ev, extended, rows)


class _Raise:
    """A formula, or the rest of a conjunction, that cannot be
    evaluated: the error, once a binding reaches it."""

    __slots__ = ("message",)

    def __init__(self, message: str) -> None:
        self.message = message

    def run(
        self, ev: Evaluator, binding: Binding, rows: Optional[list] = None
    ) -> Iterator[Binding]:
        raise QueryError(self.message)
        yield  # pragma: no cover - makes this a generator


_Node = Union[_Conjunction, _Filter, _Enumerate, _Union, _Exists, _Raise]
_Step = Union[_Done, _Probe, _Filter, _Generate, _Domain, _Raise]


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
    with the fact each atom matched under it.  *conditions* are extra
    filters (comparisons) conjoined with the atoms.
    """
    evaluator = Evaluator(db)
    results = []
    seen = set()
    body = And(tuple(atoms) + tuple(conditions))
    for binding, rows in evaluator.matches(body):
        key = tuple(sorted(((v.name, repr(val)) for v, val in binding.items())))
        if key not in seen:
            seen.add(key)
            results.append((binding, tuple(
                Fact(a.predicate, row) for a, row in zip(atoms, rows)
            )))
    return results
