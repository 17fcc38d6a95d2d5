"""One split of a relation by an FD (``FunctionalDependency.split``).

The closed-form repair counts, the aggregate ranges and the clean
answers read the split, so a NULL right-hand side, which conflicts
with nothing, is in every repair on each of them.
"""

import math

import pytest

from repro.constraints import FunctionalDependency
from repro.cqa import (
    AggregateQuery,
    fd_range_count_star,
    fd_range_max,
    fd_range_min,
    fd_range_sum,
    range_consistent_answer,
)
from repro.errors import SplitDeclinedError
from repro.logic import atom, cq, vars_
from repro.probabilistic import (
    DirtyDatabase,
    clean_answers_single_atom,
    world_probabilities,
)
from repro.relational import Database, RelationSchema, Schema
from repro.relational.nulls import NULL
from repro.repairs import (
    count_fd_repairs,
    count_repairs_per_group,
    s_repairs,
)

X, Y = vars_("x y")
AB = Schema.of(RelationSchema("R", ("A", "B")))
ABC = Schema.of(RelationSchema("R", ("A", "B", "C")))
A_B = FunctionalDependency("R", ("A",), ("B",))
A_BC = FunctionalDependency("R", ("A",), ("B", "C"))


def _db(schema, rows):
    return Database.from_dict({"R": rows}, schema=schema)


class TestSplit:
    def test_a_null_right_hand_side_is_kept_and_rivals_nothing(self):
        db = _db(AB, [("a", 1), ("a", NULL), ("b", 5)])
        kept, groups = A_B.split(db)
        assert kept == [("a", NULL)]
        assert groups == {("a",): [[("a", 1)]], ("b",): [[("b", 5)]]}

    def test_a_null_left_hand_side_joins_no_group(self):
        db = _db(AB, [(NULL, 1), (NULL, 2), ("a", 1), ("a", 2), ("a", 1.0)])
        kept, groups = A_B.split(db)
        assert sorted(kept, key=repr) == [(NULL, 1), (NULL, 2)]
        # 1 and 1.0 are one value: the rows do not conflict.
        (alternatives,) = groups.values()
        assert sorted(map(len, alternatives)) == [1, 1]

    def test_classes_keep_every_row_of_one_right_hand_side(self):
        db = _db(ABC, [("a", 1, "x"), ("a", 1, "y"), ("a", 2, "z")])
        _, groups = FunctionalDependency("R", ("A",), ("B",)).split(db)
        assert sorted(sorted(alt) for alt in groups[("a",)]) == [
            [("a", 1, "x"), ("a", 1, "y")],
            [("a", 2, "z")],
        ]

    def test_a_nan_right_hand_side_is_a_class_of_its_own(self):
        nan = float("nan")
        db = _db(ABC, [("a", nan, "x"), ("a", nan, "y")])
        fd = FunctionalDependency("R", ("A",), ("B",))
        _, groups = fd.split(db)
        assert len(groups[("a",)]) == 2
        assert count_fd_repairs(db, fd) == len(s_repairs(db, (fd,))) == 2

    def test_an_all_null_wide_right_hand_side_is_kept(self):
        db = _db(ABC, [("a", 1, 2), ("a", 3, 4), ("a", NULL, NULL)])
        kept, groups = A_BC.split(db)
        assert kept == [("a", NULL, NULL)]
        assert len(groups[("a",)]) == 2

    @pytest.mark.parametrize("rows", [
        [("a", 1, NULL), ("a", 1, 2)],
        [("a", 1, NULL), ("a", NULL, 2), ("a", 3, 4)],
    ])
    def test_a_null_beside_a_value_splits_by_what_does_not_conflict(
        self, rows
    ):
        """No two rows that agree with a third conflict, so the
        classes of "does not conflict" are the S-repairs."""
        db = _db(ABC, rows)
        repairs = s_repairs(db, (A_BC,))
        kept, groups = A_BC.split(db)
        assert kept == []
        assert {frozenset(alt) for alt in groups[("a",)]} == {
            frozenset(r.instance.relation("R")) for r in repairs
        }
        assert count_fd_repairs(db, A_BC) == len(repairs)
        assert count_repairs_per_group(db, A_BC) == [(("a",), len(repairs))]
        for shortcut, function in (
            (fd_range_sum, "sum"), (fd_range_min, "min"),
            (fd_range_max, "max"),
        ):
            fast = shortcut(db, A_BC, "C")
            exact = range_consistent_answer(
                db, (A_BC,), AggregateQuery("R", function, "C")
            )
            assert (fast.glb, fast.lub) == (exact.glb, exact.lub)
        assert len(world_probabilities(DirtyDatabase(db, A_BC))) == len(
            repairs
        )

    def test_a_null_beside_a_value_declines_naming_its_row(self):
        """(a, 1, NULL) agrees with (a, 1, 2) and (a, 1, 3), which
        conflict: "does not conflict" is not transitive."""
        db = _db(ABC, [("a", 1, NULL), ("a", 1, 2), ("a", 1, 3)])
        with pytest.raises(
            SplitDeclinedError, match=r"\('a', 1, NULL\) holds a NULL"
        ):
            A_BC.split(db)
        # The count falls back to the component product.
        assert count_fd_repairs(db, A_BC) == len(s_repairs(db, (A_BC,)))
        for shortcut in (
            lambda: count_repairs_per_group(db, A_BC),
            lambda: fd_range_count_star(db, A_BC),
            lambda: fd_range_sum(db, A_BC, "B"),
            lambda: world_probabilities(DirtyDatabase(db, A_BC)),
        ):
            with pytest.raises(SplitDeclinedError):
                shortcut()

    def test_a_lone_right_hand_side_with_a_null_needs_no_split(self):
        db = _db(ABC, [("a", 1, NULL), ("b", 1, 2), ("b", 1, 3)])
        kept, groups = A_BC.split(db)
        assert kept == [] and groups[("a",)] == [[("a", 1, NULL)]]
        assert count_fd_repairs(db, A_BC) == len(s_repairs(db, (A_BC,))) == 2


class TestEveryConsumerKeepsTheNullRow:
    """R = {(a, 1), (a, NULL), (b, 5)} under ``R: A -> B`` has one
    S-repair, which keeps all three facts."""

    db = _db(AB, [("a", 1), ("a", NULL), ("b", 5)])

    def test_the_aggregate_ranges(self):
        assert (fd_range_count_star(self.db, A_B).glb,
                fd_range_count_star(self.db, A_B).lub) == (3.0, 3.0)
        for shortcut, function, point in (
            (fd_range_sum, "sum", 6.0),
            (fd_range_min, "min", 1.0),
            (fd_range_max, "max", 5.0),
        ):
            fast = shortcut(self.db, A_B, "B")
            exact = range_consistent_answer(
                self.db, (A_B,), AggregateQuery("R", function, "B")
            )
            assert (fast.glb, fast.lub) == (exact.glb, exact.lub)
            assert (fast.glb, fast.lub) == (point, point)

    def test_the_counts(self):
        assert count_fd_repairs(self.db, A_B) == 1
        assert count_repairs_per_group(self.db, A_B) == [
            (("a",), 1), (("b",), 1)
        ]

    def test_the_worlds(self):
        [(world, probability)] = world_probabilities(
            DirtyDatabase(self.db, A_B)
        )
        assert world.facts() == self.db.facts() and probability == 1.0
        probs = dict(clean_answers_single_atom(
            DirtyDatabase(self.db, A_B), cq([X, Y], [atom("R", X, Y)])
        ))
        assert probs == {("a", 1): 1.0, ("a", NULL): 1.0, ("b", 5): 1.0}


def test_a_class_weighs_what_its_facts_weigh():
    db = _db(ABC, [("a", 1, "x"), ("a", 1, "y"), ("a", 2, "z")])
    fd = FunctionalDependency("R", ("A",), ("B",))
    worlds = world_probabilities(DirtyDatabase(db, fd))
    assert sorted(
        (len(w), p) for w, p in worlds
    ) == [(1, pytest.approx(1 / 3)), (2, pytest.approx(2 / 3))]
    assert math.isclose(sum(p for _, p in worlds), 1.0)

