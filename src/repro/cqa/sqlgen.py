"""Compile first-order queries to SQL (the ConQuer execution path).

Example 3.4 shows the point of FO-rewritability: the rewritten query "is
a query written in a FO language, and then easy to express and answer
from a database" — as SQL with ``NOT EXISTS`` subqueries, run on the
original, inconsistent instance.  This module compiles the queries the
rewriters produce (conjunctions of atoms, comparisons, ``IS NULL`` tests,
negated existential subformulas, disjunctive residues) into SQLite SQL.

Two-valued semantics are preserved under NULLs: every comparison is
wrapped in ``IFNULL(..., 0)`` so that SQL's three-valued unknown collapses
to false *before* any negation, exactly like the in-memory evaluator.

A query constant is bound, not written into the text: the statement holds
one numbered placeholder per constant, and :func:`run_sql` binds the
constants as it binds stored values, so a float matches exactly and a
value SQLite cannot hold is refused the same way.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import RewritingError
from ..logic.formulas import (
    And,
    Atom,
    Comparison,
    Exists,
    Forall,
    Formula,
    IsNull,
    Not,
    Or,
    Var,
    is_var,
)
from ..logic.queries import ConjunctiveQuery, Query
from ..observability import add, annotate, span
from ..relational.database import Database
from ..relational.nulls import is_labeled_null, is_null
from ..relational.schema import Schema
from ..relational.sqlbridge import run_sql

_OPS = {"=": "=", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _quote_identifier(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


class _Scope:
    """Variable-to-column mapping with access to enclosing scopes."""

    def __init__(self, parent: Optional["_Scope"] = None) -> None:
        self.parent = parent
        self.mapping: Dict[str, str] = {}

    def lookup(self, v: Var) -> Optional[str]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if v.name in scope.mapping:
                return scope.mapping[v.name]
            scope = scope.parent
        return None

    def bind(self, v: Var, column: str) -> None:
        self.mapping[v.name] = column


class _SqlCompiler:
    """Compiles one query; aliases are unique across nesting levels."""

    def __init__(self, schema: Schema) -> None:
        self._schema = schema
        self._alias_counter = 0
        #: The constants the placeholders ``?1``, ``?2``, ... bind.
        self.params: List[object] = []

    def compile(self, query: Query) -> str:
        scope = _Scope()
        tables, conditions = self._compile_conjunction(query.body, scope)
        if not tables:
            raise RewritingError(
                "query body binds no relation; cannot compile to SQL"
            )
        select: List[str] = []
        if query.head:
            for v in query.head:
                column = scope.lookup(v)
                if column is None:
                    raise RewritingError(
                        f"head variable {v} is not bound by a positive atom"
                    )
                select.append(f"{column} AS {_quote_identifier(v.name)}")
        else:
            select.append("1")
        sql = (
            "SELECT DISTINCT "
            + ", ".join(select)
            + " FROM "
            + ", ".join(tables)
        )
        if conditions:
            sql += " WHERE " + " AND ".join(conditions)
        return sql

    # ------------------------------------------------------------------

    def _fresh_alias(self) -> str:
        self._alias_counter += 1
        return f"t{self._alias_counter}"

    def _literal(self, value: object) -> str:
        if is_null(value):
            return "NULL"
        if is_labeled_null(value):
            raise RewritingError("labeled nulls cannot appear in SQL queries")
        if not isinstance(value, (int, float, str)):
            raise RewritingError(f"cannot bind {value!r} in an SQL query")
        self.params.append(value)
        return f"?{len(self.params)}"

    def _compile_conjunction(
        self, formula: Formula, scope: _Scope
    ) -> Tuple[List[str], List[str]]:
        """Flatten a conjunction into FROM tables and WHERE conditions.

        Positive atoms contribute tables and bind variables; everything
        else contributes conditions.  Atoms are processed first so that
        filters can reference their bindings.
        """
        parts = self._flatten(formula, scope)
        atoms = [p for p in parts if isinstance(p, Atom)]
        others = [p for p in parts if not isinstance(p, Atom)]
        tables: List[str] = []
        conditions: List[str] = []
        for a in atoms:
            tables.append(self._compile_atom(a, scope, conditions))
        for part in others:
            conditions.append(self._compile_condition(part, scope))
        return tables, conditions

    def _flatten(self, formula: Formula, scope: _Scope) -> List[Formula]:
        if isinstance(formula, And):
            out: List[Formula] = []
            for p in formula.parts:
                out.extend(self._flatten(p, scope))
            return out
        if isinstance(formula, Exists):
            # Existential variables become plain scoped variables in SQL;
            # that is only sound when their names do not shadow an
            # enclosing binding (the generated rewritings use globally
            # unique names).
            for v in formula.variables:
                if scope.lookup(v) is not None:
                    raise RewritingError(
                        f"existential variable {v} shadows an outer "
                        "binding; rename it before compiling to SQL"
                    )
            return self._flatten(formula.inner, scope)
        return [formula]

    def _compile_atom(
        self, a: Atom, scope: _Scope, conditions: List[str]
    ) -> str:
        rel = self._schema.relation(a.predicate)
        if rel.arity != a.arity:
            raise RewritingError(
                f"atom {a!r} does not match the arity of {a.predicate!r}"
            )
        alias = self._fresh_alias()
        for position, term in enumerate(a.terms):
            column = f"{alias}.{_quote_identifier(rel.attributes[position])}"
            if is_var(term):
                bound = scope.lookup(term)
                if bound is None:
                    scope.bind(term, column)
                else:
                    conditions.append(f"{column} = {bound}")
            elif is_null(term):
                conditions.append("0")  # NULL constants never match
            else:
                conditions.append(f"{column} = {self._literal(term)}")
        return f"{_quote_identifier(a.predicate)} AS {alias}"

    def _term_sql(self, term: object, scope: _Scope) -> str:
        if is_var(term):
            column = scope.lookup(term)
            if column is None:
                raise RewritingError(
                    f"variable {term} is not bound by a positive atom; "
                    "the query is unsafe for SQL compilation"
                )
            return column
        return self._literal(term)

    def _compile_condition(self, formula: Formula, scope: _Scope) -> str:
        if isinstance(formula, Comparison):
            left = self._term_sql(formula.left, scope)
            right = self._term_sql(formula.right, scope)
            return f"IFNULL({left} {_OPS[formula.op]} {right}, 0)"
        if isinstance(formula, IsNull):
            return f"{self._term_sql(formula.term, scope)} IS NULL"
        if isinstance(formula, Not):
            return f"NOT ({self._compile_boolean(formula.inner, scope)})"
        if isinstance(formula, Forall):
            rewritten = Not(Exists(formula.variables, Not(formula.inner)))
            return self._compile_condition(rewritten, scope)
        if isinstance(formula, Or):
            if not formula.parts:
                return "0"
            rendered = [
                self._compile_boolean(p, scope) for p in formula.parts
            ]
            return "(" + " OR ".join(f"({r})" for r in rendered) + ")"
        if isinstance(formula, (Atom, And, Exists)):
            return self._compile_boolean(formula, scope)
        raise RewritingError(
            f"cannot compile {type(formula).__name__} to SQL"
        )

    def _compile_boolean(self, formula: Formula, scope: _Scope) -> str:
        """Compile a sub-formula used as a boolean condition.

        If it contains atoms it becomes an (correlated) EXISTS subquery;
        otherwise it is a conjunction of plain conditions.
        """
        if isinstance(formula, (Comparison, IsNull, Not, Or, Forall)):
            return self._compile_condition(formula, scope)
        inner_scope = _Scope(parent=scope)
        tables, conditions = self._compile_conjunction(formula, inner_scope)
        if not tables:
            if not conditions:
                return "1"
            return " AND ".join(conditions)
        sql = "EXISTS (SELECT 1 FROM " + ", ".join(tables)
        if conditions:
            sql += " WHERE " + " AND ".join(conditions)
        return sql + ")"


def query_to_sql(query, schema: Schema) -> Tuple[str, Tuple[object, ...]]:
    """Compile a Query or ConjunctiveQuery to a SQLite SELECT statement
    and the constants its placeholders bind, in placeholder order."""
    if isinstance(query, ConjunctiveQuery):
        query = query.to_query()
    with span("cqa.sqlgen", query=query.name):
        compiler = _SqlCompiler(schema)
        sql = compiler.compile(query)
        add("cqa.sql_generated", 1)
        annotate(sql_chars=len(sql))
        return sql, tuple(compiler.params)


def answers_via_sql(db: Database, query) -> frozenset:
    """Evaluate *query* by compiling to SQL and running on SQLite."""
    if isinstance(query, ConjunctiveQuery):
        query = query.to_query()
    with span("cqa.sql"):
        sql, params = query_to_sql(query, db.schema)
        # The statement reads one table per atom, those under NOT
        # EXISTS included, and no other.
        reads = {a.predicate for a in query.body.atoms()}
        rows = run_sql(db, sql, params, reads)
        add("cqa.sql_statements", 1)
        add("cqa.sql_rows", len(rows))
        if not query.head:
            return frozenset({()} if rows else set())
        return frozenset(rows)
