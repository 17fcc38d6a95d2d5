"""B3 — C-repairs: branch-and-bound vs filtering all S-repairs.

Section 4.1: "the complexity of computational problems related to
C-repairs tends to be higher than for S-repairs".  Computing the full
C-repair set by filtering every S-repair pays the S-enumeration cost;
the dedicated minimum-hitting-set branch-and-bound prunes on the best
cardinality found (the DESIGN.md ablation pair).
"""

import pytest

import _benchlib  # noqa: F401  (sys.path bootstrap for direct runs)

from repro.constraints import ConflictHypergraph
from repro.logic.parser import parse_fd
from repro.relational import Database, RelationSchema, Schema
from repro.repairs import (
    c_repairs,
    minimum_hitting_sets_branch_and_bound,
    c_repairs_partial,
    one_c_repair,
    repair_distance,
    s_repairs,
    s_repairs_partial,
)
from repro.workloads import employee_key_violations, random_rs_instance


@pytest.mark.parametrize("seed", [11, 13])
def test_filter_engine(benchmark, seed):
    scenario = random_rs_instance(12, 6, 6, seed=seed)
    repairs = benchmark(
        c_repairs, scenario.db, scenario.constraints, None, "filter"
    )
    assert repairs


@pytest.mark.parametrize("seed", [11, 13])
def test_branch_and_bound_engine(benchmark, seed):
    scenario = random_rs_instance(12, 6, 6, seed=seed)
    expected = {
        r.diff
        for r in c_repairs(
            scenario.db, scenario.constraints, engine="filter"
        )
    }
    repairs = benchmark(c_repairs, scenario.db, scenario.constraints)
    assert {r.diff for r in repairs} == expected


@pytest.mark.parametrize("k", [4, 8])
def test_one_c_repair(benchmark, k):
    scenario = employee_key_violations(6, k, 2, seed=3)
    repair = benchmark(one_c_repair, scenario.db, scenario.constraints)
    assert repair.size == repair_distance(
        scenario.db, scenario.constraints
    )


@pytest.mark.parametrize("k", [4, 8])
def test_minimum_hitting_sets(benchmark, k):
    scenario = employee_key_violations(6, k, 2, seed=3)
    graph = ConflictHypergraph.build(scenario.db, scenario.constraints)
    sets = benchmark(minimum_hitting_sets_branch_and_bound, graph)
    assert all(len(s) == k for s in sets)


def _path_graph(tuples):
    """One conflict component, a path: *tuples* facts of ``R(A, B)``
    under ``R: A -> B`` and ``R: B -> A``, each conflicting with the
    next, so no per-component split makes the search small."""
    rows = [(f"a{i // 2}", f"b{(i + 1) // 2}") for i in range(tuples)]
    db = Database.from_dict(
        {"R": rows}, schema=Schema.of(RelationSchema("R", ("A", "B")))
    )
    fds = (parse_fd("R: A -> B"), parse_fd("R: B -> A"))
    return ConflictHypergraph.build(db, fds)


@pytest.mark.parametrize("search", ["minimal", "minimum"])
def test_one_long_component(benchmark, search):
    graph = _path_graph(24)
    if search == "minimal":
        sets = benchmark(graph.minimal_hitting_sets)
        assert len(sets) == 816
    else:
        sets = benchmark(minimum_hitting_sets_branch_and_bound, graph)
        assert len(sets) == 13 and all(len(s) == 12 for s in sets)


@pytest.mark.parametrize("semantics", ["s", "c"])
def test_first_repairs_of_many_components(benchmark, semantics):
    """The first 50 repairs of 1,000 disjoint key conflicts, each
    deleting 1,000 of 12,000 facts: what building, keying and ordering
    one repair costs, beside a search that finds each in a few steps."""
    scenario = employee_key_violations(10000, 1000, seed=3)
    finder = s_repairs_partial if semantics == "s" else c_repairs_partial
    partial = benchmark(finder, scenario.db, scenario.constraints, limit=50)
    assert len(partial.value) == 50
    assert all(r.size == 1000 for r in partial.value)


if __name__ == "__main__":
    from _benchlib import main as _bench_main

    raise SystemExit(_bench_main(__file__))
