"""Bridge between :class:`~repro.relational.database.Database` and SQLite.

Used by the ConQuer-style rewriting path (our substitute for running
consistent-query rewritings on a commercial SQL engine, Section 3.1 of the
paper): a database instance is materialized into an in-memory SQLite
database, generated SQL is executed there, and results are read back as
Python tuples.  NULL markers map to SQL NULL, so SQLite enforces the same
"null never joins" semantics the library uses internally.
"""

from __future__ import annotations

import sqlite3
from contextlib import contextmanager
from contextvars import ContextVar
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import UnstorableValueError
from ..observability import add, span
from ..runtime.faults import sqlite_attempt
from ..runtime.retry import retry_transient
from .database import Database, Fact, Row
from .nulls import NULL, is_labeled_null, is_null
from .schema import RelationSchema, Schema


def _quote_identifier(name: str) -> str:
    """Quote an SQL identifier (relation or attribute name)."""
    return '"' + name.replace('"', '""') + '"'


class KeptSqlite:
    """One instance's SQLite materialization, kept across statements,
    with a memo of the rows its statements returned.

    Inside :func:`keeping`, :func:`run_sql` on ``db`` runs on ``conn``,
    materializing it on first use, instead of on a fresh copy per
    statement, and answers a statement it already ran from the memo
    (:meth:`recall`).  ``reused`` counts those answers.  Each memo
    entry holds the relations its statement reads, and an entry's rows
    are its statement's rows on the current version: no step since it
    was kept touched a relation it reads (:meth:`advance`).  The owner
    closes it.
    """

    __slots__ = ("db", "conn", "reused", "_memo", "_memo_rows")

    def __init__(self, db: Database) -> None:
        self.db = db
        self.conn: Optional[sqlite3.Connection] = None
        self.reused = 0
        # statement key (:func:`_statement_key`) -> the relations it
        # reads and its rows; insertion order is recency order.
        self._memo: Dict[
            Hashable, Tuple[FrozenSet[str], Tuple[Row, ...]]
        ] = {}
        self._memo_rows = 0

    def recall(self, statement: Hashable) -> Optional[List[Row]]:
        """The rows *statement* returns on this version, as a new list,
        or ``None`` when the memo does not hold it."""
        entry = self._memo.pop(statement, None)
        if entry is None:
            return None
        self._memo[statement] = entry
        self.reused += 1
        return list(entry[1])

    def remember(
        self, statement: Hashable, reads: Iterable[str], rows: Sequence[Row]
    ) -> None:
        """Keep *rows*, which *statement*, reading the relations
        *reads*, returned on this version after :meth:`recall` missed
        it.

        The memo holds at most as many rows as the instance holds
        facts, each statement counting at least one: the least
        recently used statements go first, and a statement over that
        bound on its own is not kept."""
        cost = len(rows) or 1
        if cost > len(self.db):
            return
        self._memo[statement] = (frozenset(reads), tuple(rows))
        self._memo_rows += cost
        self._trim()

    def _trim(self) -> None:
        """Drop the least recently used statements until the memo is
        within the instance's bound."""
        memo = self._memo
        while self._memo_rows > len(self.db):
            self._memo_rows -= len(memo.pop(next(iter(memo)))[1]) or 1

    def advance(
        self, deleted: Sequence[Fact], inserted: Sequence[Fact]
    ) -> None:
        """Move to the instance after deleting *deleted*, then inserting
        *inserted* (``Database.delete`` then ``insert``, so tids and
        ``next_tid`` follow), and the connection with it when one is
        built, by the instance's own delta (:func:`apply_step`): the
        stored facts that left, and the facts that joined.  A fact
        deleted and inserted again as an equal value of another type
        is both.  The memo drops every statement that reads a relation
        of that delta, built connection or not, and keeps the others in
        recency order, trimmed to the new instance's bound
        (:meth:`remember`); a step that changes nothing keeps it whole.
        On an exception nothing is advanced."""
        old = self.db
        left = [
            old.fact_by_tid(old.tid_of(f))
            for f in dict.fromkeys(deleted) if f in old
        ]
        rest = old.delete(left)
        joined = [f for f in dict.fromkeys(inserted) if f not in rest]
        db = rest.insert(joined)
        if self.conn is not None:
            apply_step(self.conn, old.schema, left, joined)
        self.db = db
        touched = {f.relation for f in left + joined}
        for statement, (reads, rows) in list(self._memo.items()):
            if not touched.isdisjoint(reads):
                del self._memo[statement]
                self._memo_rows -= len(rows) or 1
        self._trim()

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


_KEPT: ContextVar[Optional[KeptSqlite]] = ContextVar(
    "repro_kept_sqlite", default=None
)


@contextmanager
def keeping(kept: Optional[KeptSqlite]) -> Iterator[None]:
    """Let :func:`run_sql` reuse *kept*, its connection and its memo,
    for its instance in this block (``None``: every statement
    materializes and runs afresh, as outside)."""
    token = _KEPT.set(kept)
    try:
        yield
    finally:
        _KEPT.reset(token)


def to_sqlite(db: Database) -> sqlite3.Connection:
    """Materialize *db* into a fresh in-memory SQLite connection.

    Every relation becomes a table with the schema's attribute names,
    and every relation whose schema declares a key gets one index on
    the key's columns (:func:`_key_indexes`).  NULL markers become SQL
    NULLs; labeled nulls are rejected because SQLite cannot reproduce
    their naive-table join semantics.
    """
    conn = sqlite3.connect(":memory:")
    cursor = conn.cursor()
    materialized = 0
    for name in db.schema.names():
        rel = db.schema.relation(name)
        columns = ", ".join(_quote_identifier(a) for a in rel.attributes)
        cursor.execute(f"CREATE TABLE {_quote_identifier(name)} ({columns})")
        # Unsorted: no statement here reads SQLite's row order, since
        # the generated SQL has no ORDER BY, LIMIT or rowid and run_sql
        # promises no order.
        rows = db.stored_rows(name)
        if not rows:
            continue
        prepared = _sql_rows(rows)
        with _binding():
            cursor.executemany(_insert_sql(rel), prepared)
        materialized += len(prepared)
    # After loading, so each index is built once from sorted keys
    # rather than grown row by row; empty relations get theirs too.
    for statement in _key_indexes(db.schema):
        cursor.execute(statement)
    conn.commit()
    add("sql.rows_materialized", materialized)
    return conn


def _key_indexes(schema: Schema) -> List[str]:
    """One ``CREATE INDEX`` per relation whose schema declares a key,
    on the key's columns in key order.

    The Fuxman–Miller SQL correlates its ``NOT EXISTS`` subqueries on
    key columns, so they search the index instead of scanning the
    table per outer row, and :func:`apply_step` finds a deleted
    fact's row through it; SQLite keeps it current as rows come and
    go.  The key comes from the schema, not from the constraints a
    statement is answered under, so :func:`run_sql` needs nothing
    but the instance.

    Tables and indexes share one namespace, where SQLite compares
    names without ASCII case, so an index is named ``<relation> key``
    with ``_`` appended until it equals no relation's name and no
    earlier index's.
    """
    taken = {name.lower() for name in schema.names()}
    statements = []
    for name in schema.names():
        rel = schema.relation(name)
        if not rel.key:  # None, or an empty key with no column to index
            continue
        index = f"{name} key"
        while index.lower() in taken:
            index += "_"
        taken.add(index.lower())
        columns = ", ".join(_quote_identifier(a) for a in rel.key)
        statements.append(
            f"CREATE INDEX {_quote_identifier(index)} "
            f"ON {_quote_identifier(name)} ({columns})"
        )
    return statements


def _sql_rows(rows: Iterable[Row]) -> List[Tuple]:
    """*rows* as SQLite parameters (:func:`_sql_value`); a row of
    strings and integers binds as it stands."""
    prepared = []
    for row in rows:
        for value in row:
            kind = type(value)
            if kind is not str and kind is not int:
                prepared.append(tuple(map(_sql_value, row)))
                break
        else:
            prepared.append(row)
    return prepared


def _sql_value(value: object) -> object:
    """*value* as SQLite binds it: the NULL marker becomes SQL NULL and
    a labeled null is rejected.  A value SQLite would hand back as
    another — a bool (an integer there) or a NaN (NULL there) — raises
    :class:`UnstorableValueError`, like one it cannot store at all."""
    if is_null(value):
        return None
    if is_labeled_null(value):
        raise ValueError("labeled nulls cannot be materialized into SQLite")
    if isinstance(value, bool) or value != value:
        raise UnstorableValueError(
            f"SQLite would not give back {value!r} as it was stored"
        )
    return value


@contextmanager
def _binding() -> Iterator[None]:
    """Bind values to SQLite: one it cannot store (a lone surrogate, an
    integer outside 64 bits) raises :class:`UnstorableValueError`, so
    the instance or query is one fm-sql cannot serve, not a fault of
    its own."""
    try:
        yield
    except (UnicodeEncodeError, OverflowError) as exc:
        raise UnstorableValueError(
            f"SQLite cannot store a value of the instance: {exc}"
        ) from exc


def _insert_sql(rel: RelationSchema) -> str:
    placeholders = ", ".join("?" * rel.arity)
    return f"INSERT INTO {_quote_identifier(rel.name)} VALUES ({placeholders})"


def apply_step(
    conn: sqlite3.Connection,
    schema: Schema,
    left: Sequence[Fact],
    joined: Sequence[Fact],
) -> None:
    """Bring *conn*, a materialization of an instance over *schema*,
    one step on in one transaction: each fact of *left*, as the
    instance stores it, loses its row, then each fact of *joined*
    gains one.  The caller names the instance's own delta
    (:meth:`KeptSqlite.advance`), so the work is the delta's.  Values
    convert and bind as in :func:`to_sqlite`.  On an exception the
    transaction rolls back.
    """
    with _binding(), conn:  # commits, or rolls back on an exception
        for f in left:
            (params,) = _sql_rows([f.values])
            table = _quote_identifier(f.relation)
            # IS equates 1 and 1.0, which two facts may hold apart;
            # typeof tells their rows apart.
            match = " AND ".join(
                f"{column} IS ? AND typeof({column}) = typeof(?)"
                for column in map(
                    _quote_identifier, schema.relation(f.relation).attributes
                )
            )
            # One row, even where two facts convert to the same row
            # (the NULL marker and None both become SQL NULL).
            conn.execute(
                f"DELETE FROM {table} WHERE rowid = "
                f"(SELECT rowid FROM {table} WHERE {match} LIMIT 1)",
                [value for value in params for _ in range(2)],
            )
        for f in joined:
            (params,) = _sql_rows([f.values])
            conn.execute(_insert_sql(schema.relation(f.relation)), params)


def run_sql(
    db: Database,
    sql: str,
    params: Sequence[object] = (),
    reads: Optional[Iterable[str]] = None,
) -> List[Row]:
    """Run *sql* against a materialization of *db*, its placeholders
    bound to *params*; return its rows.  *reads* names the relations
    *sql* reads (None: every relation of *db*'s schema).

    Each distinct row comes back once, in no promised order, with SQL
    NULLs mapped back to the NULL marker (:func:`_answer_rows`).  The
    parameters bind as stored values do: one SQLite cannot hold as it
    is raises :class:`UnstorableValueError`.

    Transient backend failures (``sqlite3.OperationalError`` and the
    fault harness's injected :class:`~repro.errors.TransientBackendError`)
    are retried with exponential backoff; each attempt rebuilds the
    in-memory materialization from scratch, so a retried statement never
    observes half-written state.  Inside :func:`keeping`, statements on
    the kept instance run on its one materialization instead; they are
    read-only, so a retry on it is safe.  The kept connection's only
    writes are :meth:`KeptSqlite.advance`'s, which a pool worker makes
    between jobs, outside any statement and outside any retry: each is
    one transaction, and a failed one drops the connection.

    A statement that succeeded on the kept instance is remembered
    with its rows and *reads*, and the same statement comes back from
    that memo as a new list, with no attempt, execution or conversion,
    until a step of the kept instance touches a relation it reads: its
    rows are a function of those relations alone.
    """
    with span("sql.run"):
        (params,) = _sql_rows([tuple(params)])
        kept = _KEPT.get()
        if kept is not None and kept.db is not db:
            kept = None
        if kept is not None:
            statement = _statement_key(sql, params)
            rows = kept.recall(statement)
            if rows is not None:
                return rows

        def attempt() -> List[Tuple]:
            sqlite_attempt()
            if kept is not None:
                if kept.conn is None:
                    kept.conn = to_sqlite(db)
                return _execute(kept.conn, sql, params)
            conn = to_sqlite(db)
            try:
                return _execute(conn, sql, params)
            finally:
                conn.close()

        raw = retry_transient(attempt)
        add("sql.statements", 1)
        add("sql.rows_fetched", len(raw))
        rows = _answer_rows(raw)
        if kept is not None:
            kept.remember(
                statement, db.schema.names() if reads is None else reads, rows
            )
        return rows


def _statement_key(sql: str, params: Sequence[object]) -> Hashable:
    """A statement as the answer memo keys it: its text, with each
    parameter's type and repr when it has any, so 1, 1.0 and True, or
    0.0 and -0.0, are different statements."""
    if not params:
        return sql
    return (sql,) + tuple((type(v), repr(v)) for v in params)


def _execute(
    conn: sqlite3.Connection, sql: str, params: Sequence[object]
) -> List[Tuple]:
    with _binding():
        cursor = conn.execute(sql, params)
    return cursor.fetchall()


def run_sql_on_connection(
    conn: sqlite3.Connection, sql: str, params: Sequence[object] = ()
) -> List[Row]:
    """Run *sql*, its placeholders bound to *params*, on an existing
    connection (for benchmark reuse); rows as :func:`run_sql` returns
    them.

    Read-only statements are safe to retry on the live connection, so
    transient failures get the same backoff treatment as :func:`run_sql`.
    """
    (params,) = _sql_rows([tuple(params)])

    def attempt() -> List[Tuple]:
        sqlite_attempt()
        return _execute(conn, sql, params)

    return _answer_rows(retry_transient(attempt))


def _answer_rows(raw: Iterable[Tuple]) -> List[Row]:
    """Each distinct row of *raw* once, in SQLite's order of first
    appearance, with SQL NULL mapped back to the NULL marker; only a
    row that holds a ``None`` is rebuilt."""
    return [
        tuple(NULL if v is None else v for v in row) if None in row else row
        for row in dict.fromkeys(raw)
    ]


def table_counts(conn: sqlite3.Connection, names: Iterable[str]) -> Tuple[int, ...]:
    """Row counts for the given tables (sanity checks in tests)."""
    counts = []
    for name in names:
        cursor = conn.execute(
            f"SELECT COUNT(*) FROM {_quote_identifier(name)}"
        )
        counts.append(cursor.fetchone()[0])
    return tuple(counts)
