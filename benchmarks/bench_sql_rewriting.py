"""B6 — the ConQuer substitute: rewritten SQL on SQLite vs in-memory.

Example 3.4's point is that FO-rewritten queries run on any SQL engine.
These benchmarks compile Fuxman–Miller rewritings to SQL, execute them on
SQLite, and compare cost and results with the in-memory safe-range
evaluator on growing instances.
"""

import itertools

import pytest

import _benchlib  # noqa: F401  (sys.path bootstrap for direct runs)

from repro.cqa import answers_via_sql, fuxman_miller_rewrite, query_to_sql
from repro.logic import atom, cq, vars_
from repro.relational import Database, RelationSchema, Schema, fact
from repro.relational.sqlbridge import (
    KeptSqlite,
    keeping,
    run_sql_on_connection,
    to_sqlite,
)
from repro.workloads import random_fd_instance

X, Y = vars_("x y")
FULL = cq([X, Y], [atom("R", X, Y)], name="full")


def _rewritten(scenario):
    return fuxman_miller_rewrite(FULL, scenario.constraints, scenario.db)


@pytest.mark.parametrize("n", [20, 60, 120])
def test_in_memory_evaluation(benchmark, n):
    scenario = random_fd_instance(n, n // 2, 3, seed=2)
    rewritten = _rewritten(scenario)
    answers = benchmark(rewritten.answers, scenario.db)
    assert answers == answers_via_sql(scenario.db, rewritten)


@pytest.mark.parametrize("n", [20, 60, 120])
def test_sqlite_evaluation_cold(benchmark, n):
    """Includes materialization: build the SQLite DB, then query."""
    scenario = random_fd_instance(n, n // 2, 3, seed=2)
    rewritten = _rewritten(scenario)
    answers = benchmark(answers_via_sql, scenario.db, rewritten)
    assert answers == rewritten.answers(scenario.db)


@pytest.mark.parametrize("n", [20, 60, 120])
def test_sqlite_evaluation_warm(benchmark, n):
    """Query-only cost on a pre-materialized connection."""
    scenario = random_fd_instance(n, n // 2, 3, seed=2)
    rewritten = _rewritten(scenario)
    sql, params = query_to_sql(rewritten, scenario.db.schema)
    conn = to_sqlite(scenario.db)
    try:
        rows = benchmark(run_sql_on_connection, conn, sql, params)
    finally:
        conn.close()
    assert frozenset(rows) == rewritten.answers(scenario.db)


@pytest.mark.parametrize("step", ["untouched", "touched"])
def test_kept_read_after_a_step(benchmark, step):
    """A warm worker's read after a write: a kept instance advances by
    one fresh fact, in a relation the rewriting does not read
    (``untouched``) or in R (``touched``), then answers the rewriting
    under ``keeping``.  Only after a touched step does its statement
    run again (``sql.statements``)."""
    scenario = random_fd_instance(60, 30, 3, seed=2)
    schema = Schema.of(
        scenario.db.schema.relation("R"), RelationSchema("T", ("K", "V"))
    )
    kept = KeptSqlite(Database.from_facts(scenario.db, schema=schema))
    rewritten = _rewritten(scenario)
    relation = "T" if step == "untouched" else "R"
    fresh = itertools.count()

    def read():
        kept.advance((), [fact(relation, f"n{next(fresh)}", "v0")])
        with keeping(kept):
            return kept.db, answers_via_sql(kept.db, rewritten)

    try:
        with keeping(kept):  # the connection and the memo
            answers_via_sql(kept.db, rewritten)
        db, answers = benchmark(read)
        assert answers == rewritten.answers(db)
        db, answers = read()
        assert answers == rewritten.answers(db)
    finally:
        kept.close()


def test_sql_generation_cost(benchmark):
    scenario = random_fd_instance(40, 20, 3, seed=2)
    sql, params = benchmark(
        query_to_sql, _rewritten(scenario), scenario.db.schema
    )
    assert "NOT" in sql and params == ()


if __name__ == "__main__":
    from _benchlib import main as _bench_main

    raise SystemExit(_bench_main(__file__))
