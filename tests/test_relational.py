"""Tests for the relational substrate: schemas, facts, databases, NULLs."""

import pickle

import pytest

from repro.errors import SchemaError
from repro.relational import (
    NULL,
    Database,
    Fact,
    LabeledNull,
    RelationSchema,
    Schema,
    fact,
    is_labeled_null,
    is_null,
)


class TestNulls:
    def test_null_is_singleton(self):
        from repro.relational.nulls import NullType

        assert NullType() is NULL

    def test_null_repr(self):
        assert repr(NULL) == "NULL"

    def test_is_null(self):
        assert is_null(NULL)
        assert not is_null(None)
        assert not is_null(0)
        assert not is_null("NULL")

    def test_null_survives_pickle(self):
        assert pickle.loads(pickle.dumps(NULL)) is NULL

    def test_null_usable_in_sets(self):
        assert len({NULL, NULL}) == 1

    def test_labeled_null_equality(self):
        assert LabeledNull("n1") == LabeledNull("n1")
        assert LabeledNull("n1") != LabeledNull("n2")
        assert is_labeled_null(LabeledNull("n1"))
        assert not is_labeled_null(NULL)

    def test_null_sorts(self):
        values = sorted([3, NULL, 1], key=lambda v: (is_null(v) is False, repr(v)))
        assert values[0] is NULL


class TestSchema:
    def test_relation_schema_positions(self):
        rel = RelationSchema("Employee", ("Name", "Salary"), key=("Name",))
        assert rel.arity == 2
        assert rel.position("Salary") == 1
        assert rel.positions(("Salary", "Name")) == (1, 0)
        assert rel.key_positions() == (0,)
        assert rel.nonkey_attributes() == ("Salary",)

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", ("a", "a"))

    def test_key_must_exist(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", ("a", "b"), key=("c",))

    def test_unknown_attribute(self):
        rel = RelationSchema("R", ("a", "b"))
        with pytest.raises(SchemaError):
            rel.position("z")

    def test_schema_lookup(self):
        schema = Schema.of(RelationSchema("R", ("a",)))
        assert "R" in schema
        assert "S" not in schema
        with pytest.raises(SchemaError):
            schema.relation("S")

    def test_schema_duplicate_relation(self):
        with pytest.raises(SchemaError):
            Schema.of(RelationSchema("R", ("a",)), RelationSchema("R", ("b",)))

    def test_schema_merge(self):
        s1 = Schema.of(RelationSchema("R", ("a",)))
        s2 = Schema.of(RelationSchema("S", ("b",)))
        merged = s1.merged_with(s2)
        assert merged.names() == ("R", "S")

    def test_schema_merge_conflict(self):
        s1 = Schema.of(RelationSchema("R", ("a",)))
        s2 = Schema.of(RelationSchema("R", ("a", "b")))
        with pytest.raises(SchemaError):
            s1.merged_with(s2)


class TestDatabase:
    def setup_method(self):
        self.db = Database.from_dict({
            "Supply": [("C1", "R1", "I1"), ("C2", "R2", "I2"),
                       ("C2", "R1", "I3")],
            "Articles": [("I1",), ("I2",)],
        })

    def test_sizes(self):
        assert len(self.db) == 5
        assert len(self.db.relation("Supply")) == 3
        assert len(self.db.relation("Articles")) == 2

    def test_tids_are_stable(self):
        f = fact("Supply", "C1", "R1", "I1")
        tid = self.db.tid_of(f)
        assert self.db.fact_by_tid(tid) == f

    def test_membership(self):
        assert fact("Articles", "I1") in self.db
        assert fact("Articles", "I3") not in self.db

    def test_delete_preserves_tids(self):
        f = fact("Supply", "C2", "R1", "I3")
        tid_kept = self.db.tid_of(fact("Supply", "C1", "R1", "I1"))
        smaller = self.db.delete([f])
        assert len(smaller) == 4
        assert f not in smaller
        assert smaller.fact_by_tid(tid_kept) == fact("Supply", "C1", "R1", "I1")
        # The original is untouched.
        assert f in self.db

    def test_insert_assigns_fresh_tids(self):
        bigger = self.db.insert([fact("Articles", "I3")])
        assert len(bigger) == 6
        assert fact("Articles", "I3") in bigger
        # Re-inserting an existing fact is a no-op.
        same = bigger.insert([fact("Articles", "I3")])
        assert len(same) == 6

    def test_duplicates_collapse(self):
        db = Database.from_dict({"R": [(1,), (1,), (2,)]})
        assert len(db) == 2

    def test_symmetric_difference(self):
        repaired = self.db.delete([fact("Supply", "C2", "R1", "I3")])
        diff = self.db.symmetric_difference(repaired)
        assert diff == frozenset({fact("Supply", "C2", "R1", "I3")})
        assert self.db.distance(repaired) == 1

    def test_equality_ignores_tids(self):
        other = Database.from_dict({
            "Articles": [("I2",), ("I1",)],
            "Supply": [("C2", "R1", "I3"), ("C1", "R1", "I1"),
                       ("C2", "R2", "I2")],
        })
        assert self.db == other
        assert hash(self.db) == hash(other)

    def test_hash_is_memoized_but_never_pickled(self):
        # A pool worker runs under its own hash seed, so a hash memo
        # carried in a pickle would be wrong there.
        before = pickle.dumps(self.db)
        derived = self.db.insert([fact("Articles", "I3")]).delete(
            [fact("Articles", "I3")]
        )
        assert hash(derived) == hash(self.db) == hash(self.db)
        assert pickle.dumps(self.db) == before
        restored = pickle.loads(before)
        assert restored == self.db and hash(restored) == hash(self.db)

    def test_insert_validates_the_inserted_facts(self):
        with pytest.raises(SchemaError, match="arity"):
            self.db.insert([fact("Articles", "I3", "extra")])
        with pytest.raises(SchemaError, match="absent"):
            self.db.insert([fact("Nowhere", "I3")])

    def test_active_domain_excludes_null(self):
        db = Database.from_dict({"R": [(1, NULL), (2, 3)]})
        assert db.active_domain() == frozenset({1, 2, 3})

    def test_update_value(self):
        db = Database.from_dict({"R": [(1, 2)]})
        tid = db.tid_of(fact("R", 1, 2))
        updated = db.update_value(tid, 1, NULL)
        assert updated.fact_by_tid(tid) == Fact("R", (1, NULL))
        assert fact("R", 1, 2) in db  # original untouched

    def test_update_value_collision_collapses(self):
        db = Database.from_dict({"R": [(1, 2), (1, 3)]})
        tid = db.tid_of(fact("R", 1, 3))
        updated = db.update_value(tid, 1, 1)  # no-op value change
        assert len(updated) == 2
        collided = db.update_value(tid, 1, 1).update_value(tid, 1, 1)
        assert len(collided) == 2
        merged = db.update_value(db.tid_of(fact("R", 1, 3)), 1, 2)
        assert len(merged) == 1

    def test_arity_mismatch_rejected(self):
        schema = Schema.of(RelationSchema("R", ("a", "b")))
        with pytest.raises(SchemaError):
            Database.from_dict({"R": [(1,)]}, schema=schema)

    def test_unknown_relation_rejected(self):
        schema = Schema.of(RelationSchema("R", ("a",)))
        with pytest.raises(SchemaError):
            Database.from_dict({"S": [(1,)]}, schema=schema)

    def test_empty_relation_needs_schema(self):
        with pytest.raises(SchemaError):
            Database.from_dict({"R": []})
        schema = Schema.of(RelationSchema("R", ("a",)))
        db = Database.from_dict({"R": []}, schema=schema)
        assert len(db) == 0

    def test_issubset(self):
        smaller = self.db.delete([fact("Articles", "I1")])
        assert smaller.issubset(self.db)
        assert not self.db.issubset(smaller)

    def test_restricted_to(self):
        tid = self.db.tid_of(fact("Articles", "I1"))
        only = self.db.restricted_to([tid])
        assert len(only) == 1
        assert fact("Articles", "I1") in only

    def test_render_mentions_relations(self):
        text = self.db.render()
        assert "Supply" in text and "Articles" in text

    def test_from_facts(self):
        db = Database.from_facts([fact("R", 1), fact("R", 1), fact("S", 2)])
        assert len(db) == 2

    def test_relation_deterministic_order(self):
        db1 = Database.from_dict({"R": [(2,), (1,), (3,)]})
        db2 = Database.from_dict({"R": [(3,), (2,), (1,)]})
        assert db1.relation("R") == db2.relation("R")


class TestSQLBridge:
    def test_round_trip(self):
        from repro.relational.sqlbridge import run_sql

        db = Database.from_dict(
            {"Employee": [("page", "5K"), ("smith", "3K")]},
            schema=Schema.of(
                RelationSchema("Employee", ("Name", "Salary"), key=("Name",))
            ),
        )
        rows = run_sql(db, 'SELECT "Name" FROM "Employee" ORDER BY "Name"')
        assert set(rows) == {("page",), ("smith",)}

    def test_null_round_trip(self):
        from repro.relational.sqlbridge import run_sql

        db = Database.from_dict({"R": [(1, NULL)]})
        rows = run_sql(db, 'SELECT * FROM "R"')
        assert rows == [(1, NULL)]

    def test_null_does_not_join_in_sqlite(self):
        from repro.relational.sqlbridge import run_sql

        db = Database.from_dict({"R": [(NULL,)], "S": [(NULL,)]})
        rows = run_sql(
            db, 'SELECT * FROM "R", "S" WHERE "R"."a0" = "S"."a0"'
        )
        assert rows == []

    def test_labeled_nulls_rejected(self):
        from repro.relational.sqlbridge import to_sqlite

        db = Database.from_dict({"R": [(LabeledNull("n"),)]})
        with pytest.raises(ValueError):
            to_sqlite(db)


def _index_names(conn, table):
    return [row[1] for row in conn.execute(f'PRAGMA index_list("{table}")')]


class TestSQLKeyIndexes:
    KEYED = RelationSchema("R", ("A", "B"), key=("A",))

    def test_an_empty_keyed_relation_has_its_index_once_filled(self):
        from repro.relational.sqlbridge import apply_step, to_sqlite

        db = Database.from_dict({}, schema=Schema.of(self.KEYED))
        conn = to_sqlite(db)
        apply_step(
            conn, db.schema, [], [fact("R", f"a{i}", "b") for i in range(3)]
        )
        assert _index_names(conn, "R") == ["R key"]
        lookup = 'SELECT "B" FROM "R" WHERE "A" = ?'
        (step,) = conn.execute("EXPLAIN QUERY PLAN " + lookup, ("a1",))
        assert step[-1].startswith("SEARCH") and "INDEX R key (A=?)" in step[-1]
        assert conn.execute(lookup, ("a1",)).fetchall() == [("b",)]

    @pytest.mark.parametrize("name", ["R key", "r KEY"])
    def test_a_relation_named_like_an_index_still_materializes(self, name):
        """SQLite keeps tables and indexes in one namespace and compares
        names without ASCII case."""
        from repro.relational.sqlbridge import table_counts, to_sqlite

        schema = Schema.of(self.KEYED, RelationSchema(name, ("C",)))
        db = Database.from_dict(
            {"R": [("a", "b")], name: [("c",), ("d",)]}, schema=schema
        )
        conn = to_sqlite(db)
        assert table_counts(conn, ("R", name)) == (1, 2)
        assert _index_names(conn, "R") == ["R key_"]
        assert _index_names(conn, name) == []

    def test_a_relation_without_a_key_gets_no_index(self):
        from repro.relational.sqlbridge import to_sqlite

        schema = Schema.of(
            RelationSchema("R", ("A", "B")), RelationSchema("S", ("C",), key=())
        )
        conn = to_sqlite(Database.from_dict({"R": [(1, 2)]}, schema=schema))
        indexes = "SELECT name FROM sqlite_master WHERE type = 'index'"
        assert conn.execute(indexes).fetchall() == []
