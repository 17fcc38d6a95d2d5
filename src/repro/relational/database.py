"""Immutable relational database instances with global tuple identifiers.

The paper attaches global tuple ids (tids) to facts (Example 3.5) so that
repairs, repair programs, and causality can refer to individual tuples.
:class:`Database` follows that model: every fact carries a tid, instances
are immutable, and updates (tuple deletion/insertion, attribute updates)
return new instances, preserving the tids of untouched facts so that a
repair can be compared tuple-by-tuple with the original.
"""

from __future__ import annotations

from bisect import bisect_left, insort_right
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
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
        "_memo", "_graphs", "_lineage",
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
        # What ConflictHypergraph.of may advance instead of building:
        # set by _derived only.
        self._lineage: Optional[Lineage] = None

    def _derived(
        self,
        facts: Dict[str, Fact],
        tid_of: Dict[Fact, str],
        by_relation: Dict[str, Dict[Row, str]],
        next_tid: int,
        added: Dict[str, Fact],
        removed: Dict[str, Fact],
    ) -> "Database":
        """An instance over this schema from patched copies of this
        instance's indexes, skipping ``__init__``'s validating loop.

        The caller guarantees the indexes agree with each other and
        validated every fact they add, and names the delta, tid to
        fact, in *added* and *removed*.  A relation's inner dict may be
        shared with this instance, since no instance mutates its
        indexes after construction; so may its sorted rows and row
        indexes (:meth:`rows_where`), for every relation the delta
        leaves alone.  A touched relation's are this instance's with
        the delta merged in, while the delta is small against the
        relation (:data:`MERGE_RATIO`); past that they go, and the
        next read builds them afresh.  Its conflict graphs are not
        shared: the new instance records where they can be advanced
        from instead (:class:`Lineage`).  When this instance's hash is
        known, the new instance's is carried over by the delta.
        """
        db = Database.__new__(Database)
        db._schema = self._schema
        db._facts = facts
        db._tid_of = tid_of
        db._by_relation = by_relation
        db._next_tid = next_tid
        # Per touched relation: the rows it loses, the rows it gains.
        touched: Dict[str, Tuple[List[Row], List[Row]]] = {}
        for f in removed.values():
            touched.setdefault(f.relation, ([], []))[0].append(f.values)
        for f in added.values():
            touched.setdefault(f.relation, ([], []))[1].append(f.values)
        # One C-level copy: another thread may be publishing an entry
        # into this instance's memo while we derive from it.
        memo = dict(self._memo)
        for name, (gone, new) in touched.items():
            entries = memo.pop(name, None)
            rows = len(self._by_relation.get(name, ()))
            if entries and MERGE_RATIO * (len(gone) + len(new)) <= rows:
                memo[name] = {
                    positions: _merged(index, positions, gone, new)
                    for positions, index in dict(entries).items()
                }
        db._memo = memo
        db._graphs = {}
        db._lineage = self._lineage_to(
            frozenset(removed), frozenset(added), frozenset(touched)
        )
        parent_hash = getattr(self, "_hash", None)
        if parent_hash is not None:
            db._hash = (
                parent_hash
                + sum(map(hash, added.values()))
                - sum(map(hash, removed.values()))
            ) & _HASH_MASK
        return db

    def _lineage_to(
        self,
        removed: FrozenSet[str],
        added: FrozenSet[str],
        touched: FrozenSet[str],
    ) -> "Optional[Lineage]":
        """The lineage of a version one delta past this one.

        It names this instance's graphs when any is filled, or when it
        has no lineage of its own.  Otherwise nobody has read this
        version yet, so the delta composes with this version's own
        lineage, and the new version advances from the same ancestor.
        A composed delta reads "remove, then add", which also holds for
        a tid removed and later handed out again.  Past
        :data:`SMALL_DELTA` tids there is no lineage, and the version
        builds.
        """
        base = self._lineage
        if self._graphs or base is None:
            lineage = Lineage(self._graphs, removed, added, touched)
        else:
            lineage = Lineage(
                base.graphs,
                base.removed | (removed - base.added),
                (base.added - removed) | added,
                base.touched | touched,
            )
        if len(lineage.removed) + len(lineage.added) > SMALL_DELTA:
            return None
        return lineage

    def __getstate__(self):
        # The hash, the row memo, the conflict graphs and the lineage
        # stay behind: str hashes differ between processes unless
        # PYTHONHASHSEED is pinned, so a hash carried into a pool
        # worker would be wrong there; and without the rest a pickle
        # stays byte-identical however much of it has filled.
        return None, {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in ("_hash", "_memo", "_graphs", "_lineage")
        }

    def __setstate__(self, state) -> None:
        _, slots = state
        for slot, value in slots.items():
            object.__setattr__(self, slot, value)
        self._memo = {}
        self._graphs = {}
        self._lineage = None

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
        """All facts, as a frozen set: the tid index's keys, whose
        stored hashes spare a ``Fact.__hash__`` call per fact."""
        return frozenset(self._tid_of)

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
                key_of = _index_key(positions)
                for row in self.rows_where(name, (), ()):
                    values = key_of(row)
                    if values is not None:
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
        """A new instance without *facts* (absent facts are ignored);
        this instance itself when none of them is present."""
        tid_of = self._tid_of
        return self.delete_tids(tid_of[f] for f in facts if f in tid_of)

    def delete_tids(self, tids: Iterable[str]) -> "Database":
        """A new instance without the facts carrying *tids*; this
        instance itself when no tid is present.

        Copies this instance's indexes and removes the delta from the
        copies; a relation the delta does not touch keeps its index.
        """
        present = self._facts
        removed = {
            tid: present[tid] for tid in set(tids) if tid in present
        }
        if not removed:
            return self
        facts = dict(present)
        tid_of = dict(self._tid_of)
        by_relation = dict(self._by_relation)
        copied = set()
        for tid, f in removed.items():
            del facts[tid]
            del tid_of[f]
            if f.relation not in copied:
                copied.add(f.relation)
                by_relation[f.relation] = dict(by_relation[f.relation])
            rows = by_relation[f.relation]
            del rows[f.values]
            if not rows:
                del by_relation[f.relation]
        return self._derived(
            facts, tid_of, by_relation, self._next_tid, {}, removed
        )

    def insert(self, facts: Iterable[Fact]) -> "Database":
        """A new instance with *facts* added (fresh tids; dups ignored);
        this instance itself when every fact is already present.

        Copies this instance's indexes and adds the delta to the copies,
        validating only the inserted facts.
        """
        fresh = [f for f in dict.fromkeys(facts) if f not in self._tid_of]
        if not fresh:
            return self
        all_facts = dict(self._facts)
        tid_of = dict(self._tid_of)
        by_relation = dict(self._by_relation)
        copied = set()
        added: Dict[str, Fact] = {}
        counter = self._next_tid
        for f in fresh:
            _check_fact(self._schema, f)
            tid = f"t{counter}"
            if tid in all_facts:
                raise SchemaError(
                    f"tid {tid} is taken: next_tid {counter} is stale"
                )
            counter += 1
            added[tid] = f
            all_facts[tid] = f
            tid_of[f] = tid
            if f.relation not in copied:
                copied.add(f.relation)
                by_relation[f.relation] = dict(
                    by_relation.get(f.relation, {})
                )
            by_relation[f.relation][f.values] = tid
        return self._derived(
            all_facts, tid_of, by_relation, counter, added, {}
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

#: The most tids a :class:`Lineage` names as removed plus added.  Each
#: derivation from a version nobody read copies the composed tid sets,
#: and the ancestor's graphs stay alive until a read, so past this a
#: burst of unread writes ends in one build instead of a growing delta.
#: It is not where advancing stops paying: on 12k-fact instances an
#: advance over 64 facts cost under 6% of a build (a key, a binary and
#: a ternary denial constraint), and none up to 2,048 facts cost more
#: than one (in-process, 2-core host).
SMALL_DELTA = 64

#: A derivation merges its delta into a touched relation's sorted rows
#: and row indexes while 1 / MERGE_RATIO of the relation's rows covers
#: the delta; past that it drops them, and the next read sorts afresh.
#: Merging costs a bisection per delta row and index, dropping costs
#: the next read a sort of the whole relation: on relations of 70 to
#: 6,050 rows the two met at a delta of a seventh to a third of the
#: rows (in-process, 2-core host).
MERGE_RATIO = 8


class Lineage(NamedTuple):
    """Where a derived version's conflict graphs can be advanced from.

    ``graphs`` is the conflict-graph dict of its nearest ancestor that
    anyone read (the dict, never the instance, so the ancestor is freed
    with its facts); the rest is the delta from that ancestor: the
    tids it removed and added, and the relations it touched.
    :meth:`~repro.constraints.conflicts.ConflictHypergraph.of` reads it.
    """

    graphs: Dict[Tuple, object]
    removed: FrozenSet[str]
    added: FrozenSet[str]
    touched: FrozenSet[str]


def _index_key(positions: Tuple[int, ...]):
    """A function from a row to its key in the (*positions*) index, or
    to None when a value there joins nothing: the NULL marker, or a
    value unequal to itself such as a float NaN."""
    pick = itemgetter(*positions)
    single = len(positions) == 1

    def key_of(row: Row) -> Optional[Row]:
        values = (pick(row),) if single else pick(row)
        for v in values:
            if v != v or is_null(v):
                return None
        return values

    return key_of


def _merged(
    index: _Index,
    positions: Tuple[int, ...],
    gone: Sequence[Row],
    new: Sequence[Row],
) -> _Index:
    """A copy of one (relation, *positions*) index, less the rows in
    *gone*, plus the rows in *new*, each bucket still sorted.

    A new row goes after the rows whose sort key ties with its own,
    which is where a stable sort of the derived instance's rows puts
    it: those keep their relative order, and new rows come last.
    """
    index = dict(index)
    key_of = _index_key(positions) if positions else (lambda row: ())
    patched: Dict[Row, List[Row]] = {}
    for drop, rows in ((True, gone), (False, new)):
        for row in rows:
            key = key_of(row)
            if key is None:
                continue
            bucket = patched.get(key)
            if bucket is None:
                bucket = patched[key] = list(index.get(key, ()))
            if drop:
                at = bisect_left(bucket, row_sort_key(row), key=row_sort_key)
                del bucket[bucket.index(row, at)]
            else:
                insort_right(bucket, row, key=row_sort_key)
    for key, bucket in patched.items():
        if bucket or not positions:
            index[key] = tuple(bucket)
        else:
            del index[key]
    return index


def row_sort_key(row: Row) -> Tuple:
    """Deterministic sort key tolerant of mixed value types: the order
    of :meth:`Database.relation`."""
    return tuple((type(v).__name__, repr(v)) for v in row)
