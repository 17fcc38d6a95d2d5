"""The indexed evaluator against a plain sorted scan, and the state an
instance keeps beside its facts: sorted rows, row indexes, its hash.

``Evaluator._eval_atom`` probes :meth:`Database.rows_where` with the
positions the planner has bound.  The reference here is the evaluator
it replaced: every atom, for every partial binding, scans the relation
sorted afresh.  Both must yield the same bindings in the same order,
over values that join in unusual ways: ``1``, ``1.0`` and ``True`` join
each other, ``None`` joins itself, NULL and NaN join nothing (not even
themselves), and labeled nulls join by label.
"""

import pickle
import sys
import threading

from hypothesis import given, settings, strategies as st

from repro.logic.evaluation import Evaluator, _match_fact
from repro.logic.formulas import And, Atom, Exists, Not, Var, neq
from repro.relational import Database, Fact, RelationSchema, Schema
from repro.relational.database import MERGE_RATIO, row_sort_key
from repro.relational.nulls import NULL, LabeledNull

NAN = float("nan")  # one shared object, as json.loads returns one

_VALUES = ["a", "b", 1, 1.0, True, None, NULL, NAN,
           LabeledNull("n1"), LabeledNull("n2")]
_VARS = tuple(Var(name) for name in ("X", "Y", "Z"))
_SCHEMA = Schema.of(
    RelationSchema("R", ("A", "B")),
    RelationSchema("S", ("C",)),
)
_ARITY = {"R": 2, "S": 1}


class _ScanEvaluator(Evaluator):
    """The evaluator before the index: a full scan of the freshly
    sorted relation per atom and per binding."""

    def _eval_atom(self, a, binding):
        for values in sorted(
            self._db.stored_rows(a.predicate), key=row_sort_key
        ):
            extended = _match_fact(a, values, binding)
            if extended is not None:
                yield extended


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
    """A conjunction of atoms, with at most one nested sub-formula
    under Exists and/or Not, and an optional inequality."""
    parts = draw(st.lists(_atoms(), min_size=1, max_size=3))
    if depth > 0 and draw(st.booleans()):
        inner = draw(_formulas(depth=depth - 1))
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
    return And(tuple(parts)) if len(parts) > 1 else parts[0]


def _assert_same(db, formula):
    indexed = _exact(Evaluator(db).bindings(formula))
    scanned = _exact(_ScanEvaluator(db).bindings(formula))
    assert indexed == scanned, formula


@settings(max_examples=300, deadline=None)
@given(_facts(), _formulas())
def test_indexed_bindings_equal_the_sorted_scan_in_order(facts, formula):
    db = Database.from_facts(facts, _SCHEMA)
    _assert_same(db, formula)
    # Again on the filled memo.
    _assert_same(db, formula)


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
        expected = _exact(_ScanEvaluator(reference).bindings(formula))
        expected_derived = _exact(
            _ScanEvaluator(reference.insert(extra)).bindings(formula)
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
