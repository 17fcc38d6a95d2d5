"""Immutable relational database instances with global tuple identifiers.

The paper attaches global tuple ids (tids) to facts (Example 3.5) so that
repairs, repair programs, and causality can refer to individual tuples.
:class:`Database` follows that model: every fact carries a tid, instances
are immutable, and updates (tuple deletion/insertion, attribute updates)
return new instances, preserving the tids of untouched facts so that a
repair can be compared tuple-by-tuple with the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import SchemaError
from .nulls import is_null
from .schema import Schema, positional_schema

Value = object
Row = Tuple[Value, ...]


@dataclass(frozen=True)
class Fact:
    """A ground fact: a relation name and a tuple of attribute values.

    Facts compare by value (relation + values); the tid lives in the
    :class:`Database`, not in the fact, because the same fact keeps its tid
    across repairs while a fact's identity is its content.
    """

    relation: str
    values: Row

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))

    def __repr__(self) -> str:
        inner = ", ".join(repr(v) for v in self.values)
        return f"{self.relation}({inner})"

    def with_value(self, position: int, value: Value) -> "Fact":
        """A copy of this fact with the value at *position* replaced."""
        new_values = list(self.values)
        new_values[position] = value
        return Fact(self.relation, tuple(new_values))


def fact(relation: str, *values: Value) -> Fact:
    """Convenience constructor: ``fact('R', 1, 2) == Fact('R', (1, 2))``."""
    return Fact(relation, tuple(values))


class Database:
    """An immutable set of facts with tids, under an explicit schema.

    The instance is a *set* of facts: inserting a fact that is already
    present is a no-op (the paper's repairs operate on set instances).
    Deletion and insertion return new instances; shared facts keep their
    tids so symmetric differences and repair distances are well defined.
    """

    __slots__ = (
        "_schema", "_facts", "_tid_of", "_by_relation", "_next_tid", "_hash",
        "_memo", "_graphs",
    )

    def __init__(
        self,
        schema: Schema,
        facts_by_tid: Mapping[str, Fact],
        next_tid: int,
    ) -> None:
        self._schema = schema
        self._facts: Dict[str, Fact] = dict(facts_by_tid)
        self._tid_of: Dict[Fact, str] = {}
        self._by_relation: Dict[str, Dict[Row, str]] = {}
        for tid, f in self._facts.items():
            _check_fact(schema, f)
            if f in self._tid_of:
                raise SchemaError(f"duplicate fact {f} (tids {tid} and "
                                  f"{self._tid_of[f]})")
            self._tid_of[f] = tid
            self._by_relation.setdefault(f.relation, {})[f.values] = tid
        self._next_tid = next_tid
        self._memo: Dict[str, Dict[Tuple[int, ...], _Index]] = {}
        # Conflict hypergraphs per constraint tuple, filled by
        # ConflictHypergraph.of: one per version, never inherited.
        self._graphs: Dict[Tuple, object] = {}

    def _derived(
        self,
        facts: Dict[str, Fact],
        tid_of: Dict[Fact, str],
        by_relation: Dict[str, Dict[Row, str]],
        next_tid: int,
        added: Sequence[Fact],
        removed: Sequence[Fact],
    ) -> "Database":
        """An instance over this schema from patched copies of this
        instance's indexes, skipping ``__init__``'s validating loop.

        The caller guarantees the indexes agree with each other and
        validated every fact they add, and names the delta in *added*
        and *removed*.  A relation's inner dict may be shared with this
        instance, since no instance mutates its indexes after
        construction; so may its sorted rows and row indexes
        (:meth:`rows_where`), for every relation the delta leaves
        alone.  Its conflict graphs are not shared: the delta may
        change any of them.  When this instance's hash is known, the
        new instance's is carried over by the delta.
        """
        db = Database.__new__(Database)
        db._schema = self._schema
        db._facts = facts
        db._tid_of = tid_of
        db._by_relation = by_relation
        db._next_tid = next_tid
        # One C-level copy: another thread may be publishing an entry
        # into this instance's memo while we derive from it.
        memo = dict(self._memo)
        for f in (*added, *removed):
            memo.pop(f.relation, None)
        db._memo = memo
        db._graphs = {}
        parent_hash = getattr(self, "_hash", None)
        if parent_hash is not None:
            db._hash = (
                parent_hash
                + sum(map(hash, added))
                - sum(map(hash, removed))
            ) & _HASH_MASK
        return db

    def __getstate__(self):
        # The hash, the row memo and the conflict graphs stay behind:
        # str hashes differ between processes unless PYTHONHASHSEED is
        # pinned, so a hash carried into a pool worker would be wrong
        # there; and without the memo and the graphs a pickle stays
        # byte-identical however much of either has filled.
        return None, {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in ("_hash", "_memo", "_graphs")
        }

    def __setstate__(self, state) -> None:
        _, slots = state
        for slot, value in slots.items():
            object.__setattr__(self, slot, value)
        self._memo = {}
        self._graphs = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def from_dict(
        relations: Mapping[str, Iterable[Sequence[Value]]],
        schema: Optional[Schema] = None,
        tid_prefix: str = "t",
    ) -> "Database":
        """Build an instance from ``{relation: [row, ...]}``.

        When *schema* is omitted, a positional schema is inferred from the
        first row of each relation.  Tids are assigned in insertion order as
        ``t1, t2, ...`` so paper examples can cite them deterministically.
        """
        rows = {
            name: [tuple(r) for r in rel_rows]
            for name, rel_rows in relations.items()
        }
        if schema is None:
            rel_schemas = []
            for name, rel_rows in rows.items():
                if not rel_rows:
                    raise SchemaError(
                        f"cannot infer arity of empty relation {name!r}; "
                        "pass a schema"
                    )
                rel_schemas.append(positional_schema(name, len(rel_rows[0])))
            schema = Schema.of(*rel_schemas)
        facts_by_tid: Dict[str, Fact] = {}
        counter = 1
        for name, rel_rows in rows.items():
            seen = set()
            for row in rel_rows:
                f = Fact(name, row)
                if f in seen:
                    continue
                seen.add(f)
                facts_by_tid[f"{tid_prefix}{counter}"] = f
                counter += 1
        return Database(schema, facts_by_tid, next_tid=counter)

    @staticmethod
    def empty(schema: Schema) -> "Database":
        """An empty instance over *schema*."""
        return Database(schema, {}, next_tid=1)

    @staticmethod
    def from_facts(
        facts: Iterable[Fact],
        schema: Optional[Schema] = None,
    ) -> "Database":
        """Build an instance from facts, inferring a schema if omitted."""
        facts = list(facts)
        if schema is None:
            rel_schemas = {}
            for f in facts:
                if f.relation not in rel_schemas:
                    rel_schemas[f.relation] = positional_schema(
                        f.relation, len(f.values)
                    )
            schema = Schema.of(*rel_schemas.values())
        facts_by_tid: Dict[str, Fact] = {}
        counter = 1
        seen = set()
        for f in facts:
            if f in seen:
                continue
            seen.add(f)
            facts_by_tid[f"t{counter}"] = f
            counter += 1
        return Database(schema, facts_by_tid, next_tid=counter)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The database schema."""
        return self._schema

    def facts(self) -> FrozenSet[Fact]:
        """All facts, as a frozen set (value identity)."""
        return frozenset(self._facts.values())

    def facts_with_tids(self) -> Dict[str, Fact]:
        """Mapping tid -> fact (a copy)."""
        return dict(self._facts)

    def tids(self) -> FrozenSet[str]:
        """All tids."""
        return frozenset(self._facts)

    def fact_by_tid(self, tid: str) -> Fact:
        """The fact carrying *tid* (KeyError if absent)."""
        return self._facts[tid]

    def tid_of(self, f: Fact) -> str:
        """The tid of fact *f* (KeyError if absent)."""
        return self._tid_of[f]

    def __contains__(self, f: Fact) -> bool:
        return f in self._tid_of

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts.values())

    def relation(self, name: str) -> Tuple[Row, ...]:
        """All rows of relation *name*, in deterministic (sorted) order."""
        return self.rows_where(name, (), ())

    def rows_where(
        self, name: str, positions: Tuple[int, ...], key: Row
    ) -> Tuple[Row, ...]:
        """The rows of relation *name* whose values at *positions* join
        with *key*, in :meth:`relation`'s order.

        Join equality is ``==`` except that NULL, and a value unequal
        to itself such as a float NaN, join nothing: a row holding one
        at an indexed position is in no bucket.  So a *key* holding one
        finds nothing, even the very object it names.  Empty
        *positions* name all rows.

        Each (relation, positions) index is built once, from the sorted
        rows, and kept on the instance.  Building needs no lock: an
        entry is published with one ``setdefault``, so two threads may
        build the same entry but none ever sees half of one.
        """
        entries = self._memo.get(name)
        if entries is None:
            self._schema.relation(name)  # validate the name
            entries = self._memo.setdefault(name, {})
        index = entries.get(positions)
        if index is None:
            if positions:
                buckets: Dict[Row, list] = {}
                pick = itemgetter(*positions)
                for row in self.rows_where(name, (), ()):
                    values = pick(row) if len(positions) > 1 else (pick(row),)
                    for v in values:
                        if v != v or is_null(v):
                            break
                    else:
                        bucket = buckets.get(values)
                        if bucket is None:
                            buckets[values] = [row]
                        else:
                            bucket.append(row)
                index = {k: tuple(rows) for k, rows in buckets.items()}
            else:
                index = {(): tuple(sorted(
                    self._by_relation.get(name, ()), key=row_sort_key
                ))}
            index = entries.setdefault(positions, index)
        return index.get(key, ())

    def tid_of_row(self, name: str, row: Row) -> str:
        """The tid of relation *name*'s row *row* (KeyError if absent):
        :meth:`tid_of` without building a :class:`Fact`."""
        return self._by_relation[name][row]

    def stored_rows(self, name: str) -> Collection[Row]:
        """All rows of relation *name*, unsorted, for consumers whose
        result does not depend on row order (bulk loads)."""
        return self._by_relation.get(name, {}).keys()

    def relation_facts(self, name: str) -> Tuple[Fact, ...]:
        """All facts of relation *name*, in deterministic order."""
        return tuple(Fact(name, row) for row in self.relation(name))

    def active_domain(self) -> FrozenSet[Value]:
        """All non-null constants appearing in the instance."""
        domain = set()
        for f in self._facts.values():
            for v in f.values:
                if not is_null(v):
                    domain.add(v)
        return frozenset(domain)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self.facts() == other.facts()

    def __hash__(self) -> int:
        # Memoized: the serving path hashes every read's instance.  A
        # sum of the facts' hashes, so that a derived instance carries
        # it over by its delta (:meth:`_derived`).
        try:
            return self._hash
        except AttributeError:
            self._hash = sum(map(hash, self._facts.values())) & _HASH_MASK
            return self._hash

    def __repr__(self) -> str:
        parts = []
        for name in self._schema.names():
            rows = self.relation(name)
            if rows:
                parts.append(f"{name}:{len(rows)}")
        return f"Database({', '.join(parts) or 'empty'})"

    # ------------------------------------------------------------------
    # Updates (all return new instances)
    # ------------------------------------------------------------------

    def delete(self, facts: Iterable[Fact]) -> "Database":
        """A new instance without *facts* (absent facts are ignored)."""
        tid_of = self._tid_of
        return self.delete_tids(tid_of[f] for f in facts if f in tid_of)

    def delete_tids(self, tids: Iterable[str]) -> "Database":
        """A new instance without the facts carrying *tids*.

        Copies this instance's indexes and removes the delta from the
        copies; a relation the delta does not touch keeps its index.
        """
        facts = dict(self._facts)
        tid_of = dict(self._tid_of)
        by_relation = dict(self._by_relation)
        copied = set()
        removed = []
        for tid in set(tids):
            f = facts.pop(tid, None)
            if f is None:
                continue
            removed.append(f)
            del tid_of[f]
            if f.relation not in copied:
                copied.add(f.relation)
                by_relation[f.relation] = dict(by_relation[f.relation])
            rows = by_relation[f.relation]
            del rows[f.values]
            if not rows:
                del by_relation[f.relation]
        return self._derived(
            facts, tid_of, by_relation, self._next_tid, (), removed
        )

    def insert(self, facts: Iterable[Fact]) -> "Database":
        """A new instance with *facts* added (fresh tids; dups ignored).

        Copies this instance's indexes and adds the delta to the copies,
        validating only the inserted facts.
        """
        all_facts = dict(self._facts)
        tid_of = dict(self._tid_of)
        by_relation = dict(self._by_relation)
        copied = set()
        added = []
        counter = self._next_tid
        for f in facts:
            if f in tid_of:
                continue
            _check_fact(self._schema, f)
            added.append(f)
            tid = f"t{counter}"
            if tid in all_facts:
                raise SchemaError(
                    f"tid {tid} is taken: next_tid {counter} is stale"
                )
            counter += 1
            all_facts[tid] = f
            tid_of[f] = tid
            if f.relation not in copied:
                copied.add(f.relation)
                by_relation[f.relation] = dict(
                    by_relation.get(f.relation, {})
                )
            by_relation[f.relation][f.values] = tid
        return self._derived(
            all_facts, tid_of, by_relation, counter, added, ()
        )

    def update_value(self, tid: str, position: int, value: Value) -> "Database":
        """A new instance where the fact at *tid* has one value replaced.

        The tid is preserved, which is what attribute-based repairs
        (Section 4.3) need to report change sets like ``{ι6[1]}``.
        """
        old = self._facts[tid]
        new_fact = old.with_value(position, value)
        updated = dict(self._facts)
        existing_tid = self._tid_of.get(new_fact)
        if existing_tid is not None and existing_tid != tid:
            # The update collides with an existing fact; under set semantics
            # the instance simply loses one tuple.
            del updated[tid]
        else:
            updated[tid] = new_fact
        return Database(self._schema, updated, self._next_tid)

    def restricted_to(self, tids: Iterable[str]) -> "Database":
        """The subinstance containing exactly the facts with *tids*."""
        keep = set(tids)
        remaining = {
            tid: f for tid, f in self._facts.items() if tid in keep
        }
        return Database(self._schema, remaining, self._next_tid)

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------

    def symmetric_difference(self, other: "Database") -> FrozenSet[Fact]:
        """``(self \\ other) ∪ (other \\ self)`` on fact sets."""
        return self.facts() ^ other.facts()

    def distance(self, other: "Database") -> int:
        """``|self Δ other|`` — the C-repair distance."""
        return len(self.symmetric_difference(other))

    def issubset(self, other: "Database") -> bool:
        """True when every fact of self appears in *other*."""
        return self.facts() <= other.facts()

    def render(self) -> str:
        """A small ASCII rendering of the instance, relation by relation."""
        lines = []
        for name in self._schema.names():
            rel_schema = self._schema.relation(name)
            rows = self.relation(name)
            lines.append(f"{name}({', '.join(rel_schema.attributes)})")
            for row in rows:
                tid = self._by_relation[name][row]
                lines.append(
                    "  " + tid + ": " + ", ".join(repr(v) for v in row)
                )
            if not rows:
                lines.append("  (empty)")
        return "\n".join(lines)


def _check_fact(schema: Schema, f: Fact) -> None:
    """Raise :class:`SchemaError` unless *f* fits a relation of *schema*."""
    if f.relation not in schema:
        raise SchemaError(
            f"fact {f} uses relation absent from the schema"
        )
    if schema.relation(f.relation).arity != len(f.values):
        raise SchemaError(
            f"fact {f} has arity {len(f.values)}, schema says "
            f"{schema.relation(f.relation).arity}"
        )


#: One (relation, positions) index: key values -> rows, sorted.
_Index = Dict[Row, Tuple[Row, ...]]

_HASH_MASK = (1 << 64) - 1


def row_sort_key(row: Row) -> Tuple:
    """Deterministic sort key tolerant of mixed value types: the order
    of :meth:`Database.relation`."""
    return tuple((type(v).__name__, repr(v)) for v in row)
