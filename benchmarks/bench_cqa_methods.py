"""B2 — CQA methods: repair enumeration vs FO rewriting vs SQL.

Section 3.2: CQA is coNP-hard (or worse) in general, so enumerating the
repair class costs time exponential in the violation count, while the
Fuxman–Miller FO rewriting answers the same queries in polynomial time.
The series below shows "who wins, by roughly what factor, and where the
crossover falls": enumeration is competitive only while repairs are few.
Outside the Fuxman–Miller class no rewriting applies; there the
component-local search (the ``local`` rung) answers a self-join at the
cost of its conflict components.
"""

import pytest

import _benchlib  # noqa: F401  (sys.path bootstrap for direct runs)

from repro.cqa import (
    answers_via_sql,
    consistent_answers,
    consistent_answers_fm,
    fuxman_miller_rewrite,
    overapproximate_answers,
    underapproximate_answers,
)
from repro.cqa.local import consistent_answers_local
from repro.logic import atom, cq, vars_
from repro.workloads import employee_key_violations

X, Y, Z = vars_("x y z")
NAMES = cq([X], [atom("Employee", X, Y)], name="names")
FULL = cq([X, Y], [atom("Employee", X, Y)], name="full")
SELF_JOIN = cq(
    [X], [atom("Employee", X, Y), atom("Employee", Z, Y)], name="self-join"
)


def _scenario(k):
    return employee_key_violations(10, k, 2, seed=5)


@pytest.mark.parametrize("k", [2, 6, 10])
def test_enumeration(benchmark, k):
    scenario = _scenario(k)
    answers = benchmark(
        consistent_answers, scenario.db, scenario.constraints, NAMES
    )
    assert len(answers) == 10 + k  # every name is certain


@pytest.mark.parametrize("k", [2, 6, 10])
def test_fm_rewriting(benchmark, k):
    scenario = _scenario(k)
    expected = consistent_answers(scenario.db, scenario.constraints, NAMES)
    answers = benchmark(
        consistent_answers_fm, scenario.db, scenario.constraints, NAMES
    )
    assert answers == expected


@pytest.mark.parametrize("k", [2, 6, 10])
def test_sql_rewriting(benchmark, k):
    scenario = _scenario(k)
    rewritten = fuxman_miller_rewrite(
        FULL, scenario.constraints, scenario.db
    )
    expected = consistent_answers(scenario.db, scenario.constraints, FULL)
    answers = benchmark(answers_via_sql, scenario.db, rewritten)
    assert answers == expected


@pytest.mark.parametrize("k", [2, 6, 10])
def test_local(benchmark, k):
    scenario = _scenario(k)
    expected = consistent_answers(
        scenario.db, scenario.constraints, SELF_JOIN
    )
    answers = benchmark(
        consistent_answers_local, scenario.db, scenario.constraints,
        SELF_JOIN,
    )
    assert answers == expected


@pytest.mark.parametrize("k", [2, 6, 10])
def test_under_approximation(benchmark, k):
    scenario = _scenario(k)
    exact = consistent_answers(scenario.db, scenario.constraints, FULL)
    under = benchmark(
        underapproximate_answers, scenario.db, scenario.constraints, FULL
    )
    assert under <= exact


@pytest.mark.parametrize("k", [2, 6, 10])
def test_over_approximation(benchmark, k):
    scenario = _scenario(k)
    exact = consistent_answers(scenario.db, scenario.constraints, FULL)
    over = benchmark(
        overapproximate_answers,
        scenario.db, scenario.constraints, FULL, 4,
    )
    assert exact <= over


if __name__ == "__main__":
    from _benchlib import main as _bench_main

    raise SystemExit(_bench_main(__file__))
