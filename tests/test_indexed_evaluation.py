"""The evaluator against a standalone reference, and the state an
instance keeps beside its facts: sorted rows, row indexes, its hash.

The evaluator plans each conjunction once per set of bound variables
and probes :meth:`Database.rows_where` with the positions the plan has
bound.  The reference here is the interpreter it replaced, kept apart
from the code under test: for every partial binding it picks the next
conjunct afresh, and every atom scans its relation sorted afresh.  Both
must yield the same bindings in the same order, over values that join
in unusual ways: ``1``, ``1.0`` and ``True`` join each other, ``None``
joins itself, NULL and NaN join nothing (not even themselves), and
labeled nulls join by label.
"""

import pickle
import sys
import threading

from hypothesis import given, settings, strategies as st

from repro.errors import QueryError
from repro.logic.evaluation import Evaluator, _compare
from repro.logic.formulas import (
    And,
    Atom,
    Comparison,
    Exists,
    Forall,
    IsNull,
    Not,
    Or,
    Var,
    is_var,
    neq,
)
from repro.relational import Database, Fact, RelationSchema, Schema
from repro.relational.database import MERGE_RATIO, row_sort_key
from repro.relational.nulls import NULL, LabeledNull, is_null

NAN = float("nan")  # one shared object, as json.loads returns one

_VALUES = ["a", "b", 1, 1.0, True, None, NULL, NAN,
           LabeledNull("n1"), LabeledNull("n2")]
_VARS = tuple(Var(name) for name in ("X", "Y", "Z"))
_SCHEMA = Schema.of(
    RelationSchema("R", ("A", "B")),
    RelationSchema("S", ("C",)),
)
_ARITY = {"R": 2, "S": 1}


def _joinable(left, right):
    if is_null(left) or is_null(right):
        return False
    return left == right


def _match_fact(pattern, values, binding):
    local = dict(binding)
    for term, value in zip(pattern.terms, values):
        if is_var(term):
            if term in local:
                if not _joinable(local[term], value):
                    return None
            else:
                local[term] = value
        elif not _joinable(term, value):
            return None
    return local


class _Reference:
    """The interpreter before plans and indexes: the next conjunct
    picked afresh for every partial binding, and a full scan of the
    freshly sorted relation per atom and per binding."""

    def __init__(self, db):
        self._db = db
        self._domain = None

    def _active_domain(self):
        if self._domain is None:
            self._domain = sorted(self._db.active_domain(), key=repr)
        return self._domain

    def bindings(self, formula, binding=None):
        yield from self._eval(formula, {} if binding is None else binding)

    def holds(self, formula, binding):
        for _ in self._eval(formula, binding):
            return True
        return False

    def _eval(self, formula, binding):
        if isinstance(formula, Atom):
            for values in sorted(
                self._db.stored_rows(formula.predicate), key=row_sort_key
            ):
                extended = _match_fact(formula, values, binding)
                if extended is not None:
                    yield extended
        elif isinstance(formula, Comparison):
            free = [
                v for v in (formula.left, formula.right)
                if is_var(v) and v not in binding
            ]
            if free:
                yield from self._enumerate_then(formula, free, binding)
                return
            left = binding[formula.left] if is_var(formula.left) \
                else formula.left
            right = binding[formula.right] if is_var(formula.right) \
                else formula.right
            if _compare(formula.op, left, right):
                yield binding
        elif isinstance(formula, IsNull):
            if is_var(formula.term) and formula.term not in binding:
                yield from self._enumerate_then(
                    formula, [formula.term], binding
                )
                return
            value = binding[formula.term] if is_var(formula.term) \
                else formula.term
            if is_null(value):
                yield binding
        elif isinstance(formula, And):
            yield from self._eval_and(list(formula.parts), binding)
        elif isinstance(formula, Or):
            for part in formula.parts:
                yield from self._eval(part, binding)
        elif isinstance(formula, Not):
            unbound = [
                v for v in formula.free_variables() if v not in binding
            ]
            if unbound:
                yield from self._enumerate_then(formula, unbound, binding)
                return
            if not self.holds(formula.inner, binding):
                yield binding
        elif isinstance(formula, Exists):
            yield from self._eval_exists(formula, binding)
        elif isinstance(formula, Forall):
            yield from self._eval(Not(Exists(
                formula.variables, Not(formula.inner)
            )), binding)
        else:
            raise QueryError(f"cannot evaluate {type(formula).__name__}")

    def _eval_exists(self, f, binding):
        outer = {v: binding[v] for v in f.variables if v in binding}
        inner = {v: val for v, val in binding.items() if v not in f.variables}
        seen = set()
        for result in self._eval(f.inner, inner):
            projected = {
                v: val for v, val in result.items() if v not in f.variables
            }
            projected.update(outer)
            key = tuple(sorted(
                (v.name, repr(val)) for v, val in projected.items()
            ))
            if key not in seen:
                seen.add(key)
                yield projected

    def _eval_and(self, parts, binding):
        if not parts:
            yield binding
            return
        index = self._pick_conjunct(parts, binding)
        if index is None:
            unbound = sorted(
                {
                    v for p in parts for v in p.free_variables()
                    if v not in binding
                },
                key=lambda v: v.name,
            )
            if not unbound:
                raise QueryError(f"conjunction cannot be evaluated: {parts}")
            for value in self._active_domain():
                extended = dict(binding)
                extended[unbound[0]] = value
                yield from self._eval_and(parts, extended)
            return
        rest = parts[:index] + parts[index + 1:]
        for extended in self._eval(parts[index], binding):
            yield from self._eval_and(rest, extended)

    @staticmethod
    def _pick_conjunct(parts, binding):
        best_atom, best_bound, generative = None, -1, None
        for i, part in enumerate(parts):
            if isinstance(part, (Comparison, IsNull, Not, Forall)):
                if all(v in binding for v in part.free_variables()):
                    return i
            elif isinstance(part, Atom):
                bound = sum(
                    1 for t in part.terms if not is_var(t) or t in binding
                )
                if bound > best_bound:
                    best_bound, best_atom = bound, i
            elif isinstance(part, (Exists, Or, And)):
                if generative is None:
                    generative = i
        return best_atom if best_atom is not None else generative

    def _enumerate_then(self, formula, unbound, binding):
        def recurse(i, current):
            if i == len(unbound):
                yield from self._eval(formula, current)
                return
            for value in self._active_domain():
                extended = dict(current)
                extended[unbound[i]] = value
                yield from recurse(i + 1, extended)

        yield from recurse(0, binding)


def _exact(bindings):
    """Bindings as comparable data that tells 1, 1.0 and True apart."""
    return [
        sorted(
            (var.name, type(value).__name__, repr(value))
            for var, value in binding.items()
        )
        for binding in bindings
    ]


_value = st.sampled_from(_VALUES)
_term = st.one_of(st.sampled_from(_VARS), _value)


@st.composite
def _facts(draw, max_size=10):
    return draw(st.lists(
        st.one_of(
            st.tuples(_value, _value).map(lambda v: Fact("R", v)),
            _value.map(lambda v: Fact("S", (v,))),
        ),
        max_size=max_size,
    ))


@st.composite
def _atoms(draw):
    predicate = draw(st.sampled_from(sorted(_ARITY)))
    terms = draw(st.lists(
        _term, min_size=_ARITY[predicate], max_size=_ARITY[predicate]
    ))
    return Atom(predicate, tuple(terms))


@st.composite
def _formulas(draw, depth=2):
    """A conjunction of atoms, possibly one of them twice, with at most
    one nested sub-formula — a disjunction of two, under Exists and/or
    Not — and optional filters: an inequality and an IS NULL, the
    conjuncts in any order."""
    parts = draw(st.lists(_atoms(), min_size=1, max_size=3))
    if draw(st.booleans()):
        parts.append(draw(st.sampled_from(parts)))
    if depth > 0 and draw(st.booleans()):
        inner = draw(_formulas(depth=depth - 1))
        if draw(st.booleans()):
            inner = Or((inner, draw(_formulas(depth=depth - 1))))
        free = sorted(inner.free_variables(), key=lambda v: v.name)
        if free and draw(st.booleans()):
            inner = Exists(tuple(draw(st.lists(
                st.sampled_from(free), min_size=1, unique=True
            ))), inner)
        if draw(st.booleans()):
            inner = Not(inner)
        parts.append(inner)
    if draw(st.booleans()):
        parts.append(neq(draw(st.sampled_from(_VARS)), draw(_term)))
    if draw(st.booleans()):
        parts.append(IsNull(draw(_term)))
    parts = draw(st.permutations(parts))
    return And(tuple(parts)) if len(parts) > 1 else parts[0]


#: An initial binding, as a caller that anchors an atom passes one.
_initial = st.dictionaries(st.sampled_from(_VARS), _value, max_size=2)


def _atoms_of(formula):
    parts = formula.parts if isinstance(formula, And) else (formula,)
    return [p for p in parts if isinstance(p, Atom)]


def _assert_same(db, formula, binding=None):
    expected = _exact(_Reference(db).bindings(formula, dict(binding or {})))
    got = _exact(Evaluator(db).bindings(formula, dict(binding or {})))
    assert got == expected, formula
    matched = list(Evaluator(db).matches(formula, dict(binding or {})))
    assert _exact(b for b, _ in matched) == expected, formula
    atoms = _atoms_of(formula)
    for extended, rows in matched:
        # Each atom's own row, stored in its relation, equal to the
        # atom under the binding.
        assert len(rows) == len(atoms)
        for a, row in zip(atoms, rows):
            assert any(r is row for r in db.relation(a.predicate))
            for term, value in zip(a.terms, row):
                wanted = extended[term] if is_var(term) else term
                assert value is wanted or _joinable(value, wanted), (a, row)


@settings(max_examples=300, deadline=None)
@given(_facts(), _formulas(), _initial)
def test_indexed_bindings_equal_the_sorted_scan_in_order(
    facts, formula, binding
):
    db = Database.from_facts(facts, _SCHEMA)
    _assert_same(db, formula, binding)
    # Again on the filled memo.
    _assert_same(db, formula, binding)


def test_a_repeated_atom_records_a_row_for_each_occurrence():
    X, Y = _VARS[:2]
    db = Database.from_facts(
        [Fact("R", ("a", "a")), Fact("R", ("a", "b")), Fact("R", (1, True))],
        _SCHEMA,
    )
    twice = Atom("R", (X, X))
    got = list(Evaluator(db).matches(And((twice, twice))))
    assert [rows for _, rows in got] == [
        ((1, True), (1, True)), (("a", "a"), ("a", "a")),
    ]
    # The stored row, not the atom under the binding: True, not 1.
    pair = And((Atom("R", (X, Y)), Atom("R", (Y, X)), neq(X, Y)))
    assert list(Evaluator(db).matches(pair)) == []
    assert [rows for _, rows in Evaluator(db).matches(
        And((Atom("R", (X, Y)), Atom("R", (Y, Y))))
    )] == [((1, True), (1, True)), (("a", "a"), ("a", "a"))]
    assert [type(rows[0][1]) for _, rows in Evaluator(db).matches(
        Atom("R", (1, Y))
    )] == [bool]


def test_nested_conjunctions_are_planned_once_per_call():
    """A ``NOT EXISTS`` conjunction is reached through its parent's plan:
    one plan lookup per call, however many bindings reach it, and the
    same plan for another instance."""
    from repro.logic.evaluation import _plan

    X, Y, Z = _VARS
    formula = And((
        Atom("R", (X, Y)),
        Not(Exists((Z,), And((Atom("R", (X, Z)), neq(Z, Y))))),
    ))
    facts = [Fact("R", (f"k{i % 5}", i)) for i in range(20)]
    for facts_of in (facts, facts[:12]):
        db = Database.from_facts(facts_of, _SCHEMA)
        before = _plan.cache_info()
        got = list(Evaluator(db).bindings(formula))
        after = _plan.cache_info()
        assert got == list(_Reference(db).bindings(formula))
        assert (after.hits + after.misses) - (
            before.hits + before.misses
        ) == 1


@settings(max_examples=150, deadline=None)
@given(
    _facts(), _formulas(), _formulas(), _facts(max_size=4),
    st.lists(st.integers(0, 12), max_size=4),
)
def test_derived_instances_evaluate_like_the_scan(
    facts, warm, formula, inserted, deleted
):
    parent = Database.from_facts(facts, _SCHEMA)
    for f in (warm, formula):
        list(Evaluator(parent).bindings(f))  # fill the parent's memo
    tids = sorted(parent.tids())
    gone = [tids[i] for i in deleted if i < len(tids)]
    for db in (
        parent.insert(inserted),
        parent.delete_tids(gone),
        parent.delete_tids(gone).insert(inserted),
    ):
        assert db.relation("R") == tuple(
            sorted(db.stored_rows("R"), key=row_sort_key)
        )
        _assert_same(db, formula)
        _assert_same(db, warm)
    # The parent's answers did not move either.
    _assert_same(parent, formula)


def _exact_rows(rows):
    """Rows as comparable data that tells 1, 1.0 and True apart and
    each NaN object from another."""
    return [
        tuple(
            (type(v).__name__, id(v) if v != v else repr(v)) for v in row
        )
        for row in rows
    ]


#: Rows enough that every delta of the test below is merged.
_PADDING = [Fact("R", (f"r{i}", i % 4)) for i in range(48)] + [
    Fact("S", (f"s{i}",)) for i in range(48)
]
#: Every index :meth:`Database.rows_where` can hold on R and S.
_POSITIONS = {"R": ((), (0,), (1,), (0, 1)), "S": ((), (0,))}


@settings(max_examples=150, deadline=None)
@given(
    _facts(),
    st.lists(
        st.tuples(
            st.booleans(), _facts(max_size=3),
            st.lists(st.integers(0, 12), max_size=3),
        ),
        min_size=1, max_size=5,
    ),
)
def test_merged_memo_equals_a_fresh_build(facts, steps):
    """A small delta on a relation whose memo is filled is merged into
    the parent's sorted rows and buckets: the derived instance keeps
    every index its parent had, and each holds what building it afresh
    on the derived instance holds, in the same order."""
    assert MERGE_RATIO * 3 <= 48 - 5 * 3  # no step drops an index
    db = Database.from_facts(_PADDING + facts, _SCHEMA)
    for insert, inserted, picks in steps:
        for name, positions in _POSITIONS.items():
            for p in positions:
                db.rows_where(name, p, ("a",) * len(p))  # fill the memo
        parent = db
        if insert:
            db = db.insert(inserted)
        else:
            tids = sorted(db.tids())
            db = db.delete_tids(tids[i] for i in picks if i < len(tids))
        fresh = Database(db.schema, db.facts_with_tids(), len(db) + 1)
        for name, positions in _POSITIONS.items():
            entries = db._memo[name]  # noqa: SLF001
            assert entries.keys() == parent._memo[name].keys()  # noqa: SLF001
            for p in positions:
                fresh.rows_where(name, p, ())  # builds the index
                rebuilt = fresh._memo[name][p]  # noqa: SLF001
                # Keys compare by ==: a bucket's key may be 1 on one
                # side and True on the other, one bucket either way.
                assert entries[p].keys() == rebuilt.keys()
                for key, rows in entries[p].items():
                    assert _exact_rows(rows) == _exact_rows(rebuilt[key])
            assert _exact_rows(db.relation(name)) == _exact_rows(
                sorted(db.stored_rows(name), key=row_sort_key)
            )


class TestRowsWhere:
    def _db(self):
        return Database.from_facts([
            Fact("R", ("a", 1)),
            Fact("R", ("b", 1.0)),
            Fact("R", ("c", True)),
            Fact("R", ("d", NULL)),
            Fact("R", ("e", NAN)),
            Fact("R", ("f", None)),
            Fact("R", ("g", LabeledNull("n1"))),
        ], _SCHEMA)

    def test_equal_numbers_share_a_bucket_in_sorted_order(self):
        db = self._db()
        expected = tuple(r for r in db.relation("R") if r[1] == 1)
        assert len(expected) == 3
        for key in (1, 1.0, True):
            assert db.rows_where("R", (1,), (key,)) == expected

    def test_null_and_nan_join_nothing_but_stay_rows(self):
        db = self._db()
        assert db.rows_where("R", (1,), (NULL,)) == ()
        assert db.rows_where("R", (1,), (NAN,)) == ()
        assert ("d", NULL) in db.relation("R")
        assert ("e", NAN) in db.relation("R")
        assert db.rows_where("R", (0,), ("e",)) == (("e", NAN),)

    def test_none_and_labeled_nulls_are_values(self):
        db = self._db()
        assert db.rows_where("R", (1,), (None,)) == (("f", None),)
        assert db.rows_where("R", (1,), (LabeledNull("n1"),)) == (
            ("g", LabeledNull("n1")),
        )
        assert db.rows_where("R", (1,), (LabeledNull("n2"),)) == ()

    def test_tid_of_row_matches_tid_of(self):
        db = self._db()
        for f in db:
            assert db.tid_of_row(f.relation, f.values) == db.tid_of(f)

    def test_derived_instance_shares_untouched_relations(self):
        db = self._db().insert([Fact("S", ("x",))])
        db.rows_where("R", (1,), (1,))
        db.relation("S")
        added = db.insert([Fact("S", ("y",))])
        assert added.relation("R") is db.relation("R")
        assert added.relation("S") == (("x",), ("y",))
        removed = db.delete([Fact("R", ("a", 1))])
        assert removed.relation("S") is db.relation("S")
        assert removed.rows_where("R", (1,), (1,)) == (
            ("b", 1.0), ("c", True),
        )


class TestPickleAndHash:
    def test_pickle_is_byte_identical_before_and_after_the_memo_fills(
        self,
    ):
        db = Database.from_facts(
            [Fact("R", ("a", 1)), Fact("R", ("b", 2)), Fact("S", ("a",))],
            _SCHEMA,
        )
        before = pickle.dumps(db)
        db.relation("R")
        db.rows_where("R", (0,), ("a",))
        hash(db)
        assert pickle.dumps(db) == before
        restored = pickle.loads(before)
        assert restored == db
        assert restored.rows_where("R", (0,), ("a",)) == (("a", 1),)
        assert pickle.dumps(restored) == before

    @settings(max_examples=150, deadline=None)
    @given(
        _facts(),
        st.lists(
            st.tuples(st.booleans(), st.booleans(), _facts(max_size=3),
                      st.lists(st.integers(0, 12), max_size=3)),
            max_size=6,
        ),
    )
    def test_derived_hash_equals_a_fresh_build(self, facts, steps):
        db = Database.from_facts(facts, _SCHEMA)
        for hash_parent, insert, inserted, picks in steps:
            if hash_parent:
                hash(db)  # so the derived instance carries it over
            if insert:
                db = db.insert(inserted)
            else:
                tids = sorted(db.tids())
                db = db.delete_tids(tids[i] for i in picks if i < len(tids))
            fresh = Database.from_facts(list(db), _SCHEMA)
            assert fresh == db
            assert hash(fresh) == hash(db)


class TestConcurrentMemo:
    def test_threads_filling_and_deriving_one_memo_agree_with_the_scan(
        self,
    ):
        # The service evaluates on a thread pool: threads race to build
        # and publish the same entries, and a write derives from an
        # instance whose memo another thread is filling.
        X, Y, Z = _VARS
        formula = And((
            Atom("R", (X, Y)), Atom("S", (Y,)), Atom("R", (Z, Y)),
        ))
        facts = [Fact("R", (f"k{i % 7}", i % 5)) for i in range(60)]
        facts += [Fact("S", (i,)) for i in range(0, 5, 2)]
        extra = [Fact("S", (1,))]
        reference = Database.from_facts(facts, _SCHEMA)
        expected = _exact(_Reference(reference).bindings(formula))
        expected_derived = _exact(
            _Reference(reference.insert(extra)).bindings(formula)
        )
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                db = Database.from_facts(facts, _SCHEMA)
                seen, errors = [], []

                def work(derive):
                    try:
                        target = db.insert(extra) if derive else db
                        seen.append((derive, _exact(
                            Evaluator(target).bindings(formula)
                        )))
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)

                threads = [
                    threading.Thread(target=work, args=(i % 3 == 0,))
                    for i in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                assert len(seen) == 8
                for derive, got in seen:
                    assert got == (expected_derived if derive else expected)
        finally:
            sys.setswitchinterval(old)
