"""A repair is its difference (Section 3.1): every producer hands over
the tids it deletes and the facts it inserts, and the instance is built
from them only when read.

* **difference** — each repair's ``instance`` is its original without
  ``deleted_tids`` and with ``inserted``;
* **repairs** — each passes :func:`is_s_repair` or :func:`is_c_repair`;
* **order** — each list comes in the order of the key repairs were
  sorted by when each held its instance: the size, then the sorted
  ``repr``s of ``original.symmetric_difference(instance)``;
* **bytes** — ``/v1/repairs`` renders each repair as sorting its own
  facts did;
* **no instance per repair** — a run cut short on 1,100 conflicts
  builds none.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.asp import GeneralRepairProgram, RepairProgram
from repro.constraints import InclusionDependency
from repro.logic.parser import parse_denial, parse_fd
from repro.relational import NULL, Database, RelationSchema, Schema
from repro.relational.nulls import is_null
from repro.repairs import (
    ComponentProduct,
    IncrementalRepairer,
    c_repairs,
    c_repairs_partial,
    is_c_repair,
    is_s_repair,
    s_repairs,
    s_repairs_partial,
    sort_repairs,
)
from repro.runtime import Budget
from repro.serve.http import _json_text
from repro.serve.service import CQAService
from repro.serve.specs import sorted_rows

_SCHEMA = Schema.of(
    RelationSchema("R", ("A", "B")),
    RelationSchema("S", ("B", "C")),
)

#: Keys on both relations plus a denial constraint joining them.
SIGMA = (
    parse_fd("R: A -> B"),
    parse_fd("S: B -> C"),
    parse_denial(":- R(X, Y), S(Y, X)"),
)

#: Strings beside integers and NULL, so some rows sort by the fallback
#: order (:func:`sorted_rows`).
_VALUE = st.sampled_from(["a", "b", 1, NULL])


@st.composite
def denial_instances(draw):
    r_rows = draw(st.lists(st.tuples(_VALUE, _VALUE), max_size=6, unique=True))
    s_rows = draw(st.lists(st.tuples(_VALUE, _VALUE), max_size=4, unique=True))
    return Database.from_dict({"R": r_rows, "S": s_rows}, schema=_SCHEMA)


_TGD_SCHEMA = Schema.of(
    RelationSchema("Supply", ("Item", "Company")),
    RelationSchema("Articles", ("Item", "Cost")),
)

#: An inclusion dependency whose head has an existential position, so a
#: repair may insert ``Articles(i, NULL)`` (Example 4.3), and a key.
TGDS = (
    InclusionDependency("Supply", ("Item",), "Articles", ("Item",)),
    parse_fd("Articles: Item -> Cost"),
)


@st.composite
def tgd_instances(draw):
    supply = draw(st.lists(
        st.tuples(st.sampled_from(["i1", "i2", "i3"]),
                  st.sampled_from(["c1", "c2"])),
        max_size=3, unique=True,
    ))
    articles = draw(st.lists(
        st.tuples(st.sampled_from(["i1", "i2"]), st.sampled_from([1, 2])),
        max_size=3, unique=True,
    ))
    return Database.from_dict(
        {"Supply": supply, "Articles": articles}, schema=_TGD_SCHEMA
    )


def _parent_key(repair):
    diff = repair.original.symmetric_difference(repair.instance)
    return (len(diff), sorted(map(repr, diff)))


def _check(repairs, constraints, is_repair):
    """Each repair's instance is its difference applied to its original
    and is a repair; the list is in the reference key's order."""
    for repair in repairs:
        kept = {
            f for tid, f in repair.original.facts_with_tids().items()
            if tid not in repair.deleted_tids
        }
        assert not repair.inserted & repair.original.facts()
        assert repair.instance.facts() == kept | repair.inserted
        assert is_repair(repair.original, repair.instance, constraints)
    keys = [_parent_key(repair) for repair in repairs]
    assert keys == sorted(keys)


@settings(max_examples=60, deadline=None)
@given(denial_instances(), st.integers(min_value=1, max_value=40))
def test_every_denial_producer_hands_over_its_difference(db, steps):
    for semantics, is_repair in (("s", is_s_repair), ("c", is_c_repair)):
        product = ComponentProduct(db, SIGMA, semantics)
        _check(sort_repairs(product.repairs()), SIGMA, is_repair)
    _check(c_repairs(db, SIGMA), SIGMA, is_c_repair)
    prefix = s_repairs_partial(db, SIGMA, budget=Budget(max_steps=steps))
    _check(prefix.value, SIGMA, is_s_repair)
    incremental = IncrementalRepairer(db, SIGMA)
    _check(incremental.s_repairs(), SIGMA, is_s_repair)
    _check(incremental.c_repairs(), SIGMA, is_c_repair)
    program = RepairProgram(db, SIGMA, include_weak_constraints=True)
    _check(sort_repairs(program.repairs()), SIGMA, is_s_repair)
    _check(sort_repairs(program.c_repairs()), SIGMA, is_c_repair)
    general = GeneralRepairProgram(db, SIGMA, include_weak_constraints=True)
    _check(general.repairs(), SIGMA, is_s_repair)
    _check(general.c_repairs(), SIGMA, is_c_repair)


@settings(max_examples=40, deadline=None)
@given(tgd_instances())
def test_every_producer_that_inserts_hands_over_its_difference(db):
    _check(s_repairs(db, TGDS), TGDS, is_s_repair)  # the state search
    _check(c_repairs(db, TGDS), TGDS, is_c_repair)
    general = GeneralRepairProgram(db, TGDS, include_weak_constraints=True)
    _check(general.repairs(), TGDS, is_s_repair)
    _check(general.c_repairs(), TGDS, is_c_repair)


def _serialize_repair(repair):
    """A repair's rendering when each response sorted each repair's own
    facts: the reference the served bytes must equal."""

    def facts(fact_set):
        return [
            [None if is_null(value) else value for value in row]
            for row in sorted_rows(
                (fact.relation, *fact.values) for fact in fact_set
            )
        ]

    return {
        "deleted": facts(repair.deleted),
        "inserted": facts(repair.inserted),
    }


def _served_bytes_are_the_reference(db, constraints):
    service = CQAService()
    service.register_instance("d", db, constraints)
    for semantics, finder in (
        ("s", s_repairs_partial), ("c", c_repairs_partial),
    ):
        status, body, _ = service.handle_repairs(
            {"db": "d", "semantics": semantics}
        )
        assert status == 200, body
        expected = [
            _serialize_repair(repair)
            for repair in finder(db, constraints).value
        ]
        assert _json_text(body) == _json_text({**body, "repairs": expected})


@settings(max_examples=40, deadline=None)
@given(denial_instances())
def test_served_deletions_are_the_bytes_of_each_repair_sorted(db):
    _served_bytes_are_the_reference(db, SIGMA)


@settings(max_examples=30, deadline=None)
@given(tgd_instances())
def test_served_insertions_are_the_bytes_of_each_repair_sorted(db):
    _served_bytes_are_the_reference(db, TGDS)


def test_a_truncated_run_on_a_thousand_conflicts_builds_no_instance(
    monkeypatch,
):
    """Under a deadline, 2^1100 repairs: each one built is a set of
    1,100 tids, never the ~12,000-fact instance they leave."""
    from .test_dispatch import _keyed_join

    db, constraints = _keyed_join(5500, 550)
    calls = []
    delete_tids = Database.delete_tids

    def counting(self, tids):
        calls.append(self)
        return delete_tids(self, tids)

    monkeypatch.setattr(Database, "delete_tids", counting)
    for finder in (s_repairs_partial, c_repairs_partial):
        partial = finder(db, constraints, budget=Budget(timeout=0.3))
        assert not partial.complete and partial.value
        assert all(repair.size == 1100 for repair in partial.value)
    assert calls == []
