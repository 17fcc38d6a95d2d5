"""Property-based tests (hypothesis): the engines are interchangeable.

The dispatcher's fallback ladder is only sound if every engine answers
identically wherever its applicability check passes.  On random
FD-constrained instances (the ``random_fd_instance`` workload), and on
random two-relation instances ``R(A, B)``, ``S(B, C)`` with mixed
``str``/``int`` values under keys and denial constraints (binary,
ternary, one-tuple, order-comparison, and keys with a DC, where the
"s" and "c" answers differ), joins, self-joins and UCQs:

* **differential** — every applicable *exact* engine returns exactly
  the reference consistent answers (repair-set intersection);
* **dispatcher exactness** — whatever rung wins, ``complete=True``
  results equal the reference, under every repair semantics;
* **salvage soundness** — the certain-core rung brackets the reference
  from below (and from above via ``upper_bound``) even though it is
  never complete.

With NULL markers the engines do not yet agree with each other (SQLite
and the in-memory evaluator read NULL differently); the ``local`` and
``asp`` rungs are held to the reference there.
"""

from hypothesis import given, settings, strategies as st

from repro.cqa import consistent_answers
from repro.dispatch import (
    ENGINES,
    CQARequest,
    DispatchPolicy,
    EngineInapplicableError,
    applicable_engines,
    dispatch_cqa,
    get_engine,
)
from repro.errors import NotRewritableError
from repro.logic import atom, cq, vars_
from repro.logic.parser import parse_denial, parse_fd, parse_query
from repro.logic.queries import UnionQuery
from repro.relational import NULL, Database, RelationSchema, Schema
from repro.workloads import random_fd_instance

# Small-instance strategy: up to 3 key groups of up to 3 values keeps
# the repair count <= 27, so the reference enumeration stays instant
# while still exercising every engine's conflict handling.
_PARAMS = st.tuples(
    st.integers(min_value=0, max_value=7),    # n_rows
    st.integers(min_value=1, max_value=3),    # n_keys
    st.integers(min_value=1, max_value=3),    # n_values
    st.integers(min_value=0, max_value=50),   # seed
)

_QUERY_NAMES = st.sampled_from(["all", "keys"])

_SEMANTICS = st.sampled_from(["s", "c", "delete-only"])


@settings(max_examples=40, deadline=None)
@given(_PARAMS, _QUERY_NAMES)
def test_applicable_engines_agree(params, qname):
    scenario = random_fd_instance(*params)
    query = scenario.queries[qname]
    ref = consistent_answers(scenario.db, scenario.constraints, query)
    request = CQARequest(scenario.db, scenario.constraints, query)
    for name in applicable_engines(request):
        engine = get_engine(name)
        answer = engine.run(request)
        if engine.exact:
            assert answer.complete
            assert answer.answers == ref, (
                f"engine {name} disagrees with the reference "
                f"enumeration on {scenario.name}/{qname}"
            )
        else:
            assert answer.answers <= ref
            upper = answer.detail.get("upper_bound")
            if upper is not None:
                assert ref <= upper


@settings(max_examples=40, deadline=None)
@given(_PARAMS, _QUERY_NAMES, _SEMANTICS)
def test_dispatcher_complete_answers_are_exact(params, qname, semantics):
    scenario = random_fd_instance(*params)
    query = scenario.queries[qname]
    # Key FDs: every repair keeps one tuple per key group, so all three
    # semantics coincide and share one reference.
    ref = consistent_answers(scenario.db, scenario.constraints, query)
    result = dispatch_cqa(
        scenario.db, scenario.constraints, query, semantics=semantics
    )
    assert result.complete
    assert result.answers == ref
    assert result.provenance.engine is not None


@settings(max_examples=25, deadline=None)
@given(_PARAMS, _QUERY_NAMES)
def test_salvage_rung_is_always_sound(params, qname):
    scenario = random_fd_instance(*params)
    query = scenario.queries[qname]
    ref = consistent_answers(scenario.db, scenario.constraints, query)
    result = dispatch_cqa(
        scenario.db, scenario.constraints, query,
        policy=DispatchPolicy(ladder=("certain-core",)),
    )
    assert not result.complete
    assert result.answers <= ref
    upper = result.detail.get("upper_bound")
    assert upper is not None and ref <= upper


# ----------------------------------------------------------------------
# Two relations, joins and denial constraints
# ----------------------------------------------------------------------

#: Keys declared as in the "keys" constraint set, so fm-sql's SQLite
#: statements run through the key indexes.
_TWO = Schema.of(
    RelationSchema("R", ("A", "B"), key=("A",)),
    RelationSchema("S", ("B", "C"), key=("B",)),
)

_CONSTRAINT_SETS = {
    "keys": (parse_fd("R: A -> B"), parse_fd("S: B -> C")),
    "binary-dc": (parse_denial(":- R(X, Y), S(Y, X)"),),
    "ternary-dc": (parse_denial(":- R(X, Y), S(Y, Z), R(Z, X)"),),
    "key-one-tuple-dc": (parse_fd("R: A -> B"), parse_denial(":- R(X, X)")),
    "order-dc": (
        parse_denial(":- R(X, Y), R(Y, X), X < Y"),
        parse_fd("S: B -> C"),
    ),
    "order-dc-two-relations": (
        parse_denial(":- R(X, Y), S(Y, Z), X < Y"),
    ),
    # Components where a minimal repair is not a minimum one, so the
    # "s" and "c" answers differ.
    "keys-binary-dc": (
        parse_fd("R: A -> B"),
        parse_fd("S: B -> C"),
        parse_denial(":- R(X, Y), S(Y, X)"),
    ),
}

_TWO_QUERIES = {
    "join": parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)"),
    "self-join": parse_query("Q(X) :- R(X, Y), R(Z, Y)"),
    "projection": parse_query("Q(X) :- R(X, Y)"),
    "boolean-join": parse_query("Q() :- R(X, Y), S(Y, Z)"),
    "quantifier-free": parse_query("Q(X, Y) :- R(X, Y)"),
    "ucq": UnionQuery((
        parse_query("Q(X) :- R(X, Y)"),
        parse_query("Q(X) :- S(X, Y)"),
    )),
}


def _rows(values, max_size):
    return st.frozensets(st.tuples(values, values), max_size=max_size)


_VALUES = st.sampled_from(["a", "b", 1, 2])
_NULLABLE = st.sampled_from(["a", "b", 1, 2, NULL])


def _two(r_rows, s_rows):
    return Database.from_dict(
        {"R": sorted(r_rows, key=repr), "S": sorted(s_rows, key=repr)},
        schema=_TWO,
    )


@settings(max_examples=400, deadline=None)
@given(
    _rows(_VALUES, 5),
    _rows(_VALUES, 4),
    st.sampled_from(sorted(_CONSTRAINT_SETS)),
    st.sampled_from(sorted(_TWO_QUERIES)),
    _SEMANTICS,
)
def test_two_relation_engines_and_dispatcher_agree(
    r_rows, s_rows, cname, qname, semantics
):
    db = _two(r_rows, s_rows)
    constraints = _CONSTRAINT_SETS[cname]
    query = _TWO_QUERIES[qname]
    ref = consistent_answers(db, constraints, query, semantics=semantics)
    request = CQARequest(db, constraints, query, semantics)
    for name, engine in ENGINES.items():
        try:
            engine.check(request)
        except (NotRewritableError, EngineInapplicableError):
            continue
        answer = engine.run(request)
        if engine.exact:
            assert answer.complete
            assert answer.answers == ref, (name, cname, qname, semantics)
        else:
            assert answer.answers <= ref
            upper = answer.detail.get("upper_bound")
            if upper is not None:
                assert ref <= upper, (cname, qname, semantics)
    result = dispatch_cqa(db, constraints, query, semantics=semantics)
    if result.complete:
        assert result.answers == ref, (
            result.provenance.engine, cname, qname, semantics
        )


@settings(max_examples=300, deadline=None)
@given(
    _rows(_NULLABLE, 5),
    _rows(_NULLABLE, 4),
    st.sampled_from(sorted(_CONSTRAINT_SETS)),
    st.sampled_from(sorted(_TWO_QUERIES)),
    _SEMANTICS,
)
def test_local_rung_is_exact_with_null_markers(
    r_rows, s_rows, cname, qname, semantics
):
    """``local``, and the repair program wherever it applies: a NULL
    joins nothing in a constraint's rule or in the query's."""
    db = _two(r_rows, s_rows)
    constraints = _CONSTRAINT_SETS[cname]
    query = _TWO_QUERIES[qname]
    ref = consistent_answers(db, constraints, query, semantics=semantics)
    request = CQARequest(db, constraints, query, semantics)
    for name in ("local", "asp"):
        engine = get_engine(name)
        try:
            engine.check(request)
        except EngineInapplicableError:
            continue
        answer = engine.run(request)
        assert answer.complete
        assert answer.answers == ref, (name, cname, qname, semantics)


def _typed(rows):
    """Answers as comparable data that tells True from 1 and a string
    from a bool: set ``==`` equates ``0`` and ``False``."""
    return sorted(
        tuple((type(v).__name__, repr(v)) for v in row) for row in rows
    )


_BOOLEANS = st.sampled_from(["a", "b", True, False])


@settings(max_examples=300, deadline=None)
@given(
    _rows(_BOOLEANS, 5),
    _rows(_BOOLEANS, 4),
    st.sampled_from(sorted(_CONSTRAINT_SETS)),
    st.sampled_from(sorted(_TWO_QUERIES)),
    _SEMANTICS,
)
def test_exact_engines_keep_booleans(r_rows, s_rows, cname, qname, semantics):
    """SQLite would answer a stored bool as an integer: every exact
    engine that runs answers Cons with each value's type, and fm-sql
    declines an instance holding a bool."""
    db = _two(r_rows, s_rows)
    constraints = _CONSTRAINT_SETS[cname]
    query = _TWO_QUERIES[qname]
    ref = _typed(consistent_answers(db, constraints, query, semantics=semantics))
    request = CQARequest(db, constraints, query, semantics)
    for name, engine in ENGINES.items():
        if not engine.exact:
            continue
        try:
            engine.check(request)
            answer = engine.run(request)
        except (NotRewritableError, EngineInapplicableError):
            continue
        assert answer.complete
        assert _typed(answer.answers) == ref, (name, cname, qname, semantics)
    result = dispatch_cqa(db, constraints, query, semantics=semantics)
    if result.complete:
        assert _typed(result.answers) == ref, (
            result.provenance.engine, cname, qname, semantics
        )


_FLOATS = st.floats(allow_nan=False, width=64)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), _FLOATS),
             max_size=5),
    _FLOATS,
    st.booleans(),
)
def test_fm_sql_matches_float_constants_as_fo_mem_does(rows, constant, stored):
    """A float query constant is bound, not printed: fm-sql matches
    exactly the rows fo-mem matches, including a constant drawn from
    the stored values."""
    if stored and rows:
        constant = rows[0][1]
    db = Database.from_dict({"R": rows, "S": []}, schema=_TWO)
    constraints = _CONSTRAINT_SETS["keys"]
    (x,) = vars_("X")
    query = cq([x], [atom("R", x, constant)])
    request = CQARequest(db, constraints, query, "s")
    answers = {}
    for name in ("fm-sql", "fo-mem"):
        engine = get_engine(name)
        engine.check(request)
        answers[name] = _typed(engine.run(request).answers)
    assert answers["fm-sql"] == answers["fo-mem"]
    assert answers["fo-mem"] == _typed(
        consistent_answers(db, constraints, query)
    )


def test_a_nan_key_comes_back_as_nan():
    """SQLite would store a NaN as NULL: fm-sql declines the instance,
    and the ladder answers the NaN itself, not the NULL marker."""
    nan = float("nan")
    db = Database.from_dict({"R": [(nan, "x"), ("b", "y")], "S": []},
                            schema=_TWO)
    result = dispatch_cqa(
        db, _CONSTRAINT_SETS["keys"], parse_query("Q(X) :- R(X, Y)")
    )
    assert result.complete and result.provenance.engine == "fo-mem"
    assert sorted(result.answers, key=repr) == [("b",), (nan,)]
    (got,) = [row[0] for row in result.answers if row != ("b",)]
    assert got is nan
