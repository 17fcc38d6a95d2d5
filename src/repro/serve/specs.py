"""JSON database specs: the wire format shared by service and store.

A *spec* is the JSON shape a ``PUT /v1/db/<name>`` payload carries::

    {"relations": {"Employee": {"columns": ["Name", "Salary"],
                                "key": ["Name"],
                                "rows": [["page", "5K"], ...]}},
     "constraints": {"fd": ["Employee: Name -> Salary"],
                     "ind": [...], "dc": [...]}}

It is also the durable representation: the write-ahead log records
specs (and tuple-level deltas against them), and snapshots hold one
spec per registered database — JSON all the way down, so a recovery
replay never needs to unpickle anything.  This module owns the
spec → in-memory translation both layers share:
:func:`parse_database` / :func:`parse_constraints` build the immutable
:class:`~repro.relational.database.Database` and constraint objects,
:func:`spec_of_instance` goes the other way for pre-built instances
(the CLI's ``--csv`` preload) so they can be logged durably too.

Values inside rows must be JSON-native (strings, numbers, booleans,
None); :func:`require_json_scalars` is the one check, which
:func:`spec_of_instance` and :func:`delta_field` apply rather than let
a non-serializable value corrupt a WAL record at append time, or an
unhashable one reach an instance.

The payload readers are here too, and every one raises
:class:`PayloadError`, the 400 case of :class:`Refusal`: the one
exception a handler raises for a request it refuses, which carries the
response that says so.

The way back out is here too: :func:`render_rows` sorts a set of
answer rows (:func:`sorted_rows`) and encodes them once, the NULL
marker as ``null``, into a :class:`RenderedRows` that the HTTP layer
splices into a response verbatim.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence as SequenceABC
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..logic.parser import parse_denial, parse_fd, parse_inclusion
from ..relational.database import Database
from ..relational.nulls import is_null
from ..relational.schema import RelationSchema, Schema

__all__ = [
    "PayloadError",
    "Refusal",
    "RenderedRows",
    "delta_field",
    "int_field",
    "number_field",
    "parse_constraints",
    "parse_database",
    "render_rows",
    "require_json_scalars",
    "sorted_rows",
    "spec_of_instance",
    "string_field",
]

_JSON_VALUE_TYPES = (str, int, float, bool, type(None))


class Refusal(ReproError):
    """A request the service refuses, with the response that says so:
    an HTTP status, a JSON body whose ``error`` names the refusal, and
    headers.  A budgeted request counts it as ``serve.requests.`` +
    :attr:`outcome`."""

    outcome = "error"

    def __init__(
        self,
        status: int,
        body: Dict[str, object],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(body["error"])
        self.status = status
        self.body = body
        self.headers = {} if headers is None else headers


class PayloadError(Refusal):
    """The request payload is malformed; maps to HTTP 400."""

    def __init__(self, message: str) -> None:
        super().__init__(400, {"error": message})


def require_json_scalars(values: Sequence[object], where: str) -> None:
    """Raise :class:`PayloadError`, naming *where*, unless every value
    is a JSON scalar: a string, number, boolean or null."""
    for value in values:
        if not isinstance(value, _JSON_VALUE_TYPES):
            raise PayloadError(
                f"{where} holds non-scalar value {value!r}; values must "
                "be JSON strings, numbers, booleans or null"
            )


def int_field(
    payload: Dict[str, object], name: str, minimum: int,
    required: bool = False,
) -> Optional[int]:
    """The payload's integer *name*, at least *minimum*; None when it
    is absent and not *required*.  JSON ``true`` and ``false`` are not
    integers, though Python's bool is an int."""
    value = payload.get(name)
    if value is None and not required:
        return None
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < minimum
    ):
        sign = "positive" if minimum > 0 else "non-negative"
        raise PayloadError(f"'{name}' must be a {sign} integer")
    return value


def number_field(payload: Dict[str, object], name: str) -> Optional[float]:
    """The payload's number *name*: absent, or a number that a float
    holds (not NaN, not an integer past float range, not a boolean)."""
    value = payload.get(name)
    if value is None:
        return None
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            pass
    if math.isnan(number):
        raise PayloadError(f"'{name}' must be a number")
    return number


def string_field(payload: Dict[str, object], name: str) -> Optional[str]:
    """The payload's string *name*; None when it is absent."""
    value = payload.get(name)
    if value is not None and not isinstance(value, str):
        raise PayloadError(f"'{name}' must be a string")
    return value


def delta_field(payload: Dict[str, object], name: str) -> List[list]:
    """The payload's *name* facts as WAL entries, ``[relation, value,
    ...]`` (copies)."""
    entries = payload.get(name) or []
    if not isinstance(entries, list):
        raise PayloadError(f"'{name}' must be a list of fact lists")
    out: List[list] = []
    for index, entry in enumerate(entries):
        if (
            not isinstance(entry, list)
            or not entry
            or not isinstance(entry[0], str)
        ):
            raise PayloadError(
                f"every '{name}' entry must be [\"Relation\", value, ...]"
            )
        require_json_scalars(entry[1:], f"'{name}' entry {index}")
        out.append(list(entry))
    return out


def parse_constraints(block: object) -> List:
    """Parse a ``{"fd": [...], "ind": [...], "dc": [...]}`` block; an
    absent or empty block, or kind, holds no constraints."""
    if not block:
        return []
    if not isinstance(block, dict):
        raise PayloadError("'constraints' must be an object")
    constraints: List = []
    for kind, parse in (
        ("fd", parse_fd), ("ind", parse_inclusion), ("dc", parse_denial)
    ):
        texts = block.get(kind) or []
        if not isinstance(texts, list) or not all(
            isinstance(text, str) for text in texts
        ):
            raise PayloadError(
                f"'constraints.{kind}' must be a list of strings"
            )
        try:
            constraints.extend(parse(text) for text in texts)
        except ReproError as exc:
            raise PayloadError(str(exc)) from exc
    return constraints


def parse_database(spec: Dict[str, object]) -> Database:
    """Build a :class:`Database` from a JSON spec (validating shape)."""
    relations = spec.get("relations")
    if not isinstance(relations, dict) or not relations:
        raise PayloadError("payload needs a non-empty 'relations' object")
    rel_schemas = []
    rows: Dict[str, List[tuple]] = {}
    for name, rel in relations.items():
        if not isinstance(rel, dict):
            raise PayloadError(
                f"relation {name!r} must be an object with "
                "'columns' and 'rows'"
            )
        columns = rel.get("columns")
        if not isinstance(columns, list) or not columns:
            raise PayloadError(f"relation {name!r} needs 'columns'")
        key = rel.get("key")
        if key and isinstance(key, (int, float)):
            raise PayloadError(
                f"relation {name!r}: 'key' must be a list of column names"
            )
        try:
            rel_schemas.append(
                RelationSchema(
                    name,
                    tuple(str(c) for c in columns),
                    tuple(str(k) for k in key) if key else None,
                )
            )
        except ReproError as exc:
            raise PayloadError(str(exc)) from exc
        rel_rows = rel.get("rows", [])
        if not isinstance(rel_rows, list):
            raise PayloadError(f"relation {name!r}: 'rows' must be a list")
        for row in rel_rows:
            if not isinstance(row, list) or len(row) != len(columns):
                raise PayloadError(
                    f"relation {name!r}: every row needs "
                    f"{len(columns)} values"
                )
        rows[name] = [tuple(row) for row in rel_rows]
    try:
        return Database.from_dict(rows, schema=Schema.of(*rel_schemas))
    except ReproError as exc:
        raise PayloadError(str(exc)) from exc
    except Exception as exc:
        raise PayloadError(f"cannot build database: {exc}")


def spec_of_instance(
    db: Database, constraint_spec: Optional[Dict[str, List[str]]] = None
) -> Dict[str, object]:
    """The JSON spec of a pre-built instance (rows sorted for stability).

    ``constraint_spec`` is the textual constraint block the instance
    was built from — constraints do not round-trip from their objects,
    so the caller that parsed them must supply the source texts for
    the spec to be durable.
    """
    relations: Dict[str, object] = {}
    for name, rel in sorted(db.schema.relations.items()):
        rel_rows = sorted(db.relation(name), key=lambda r: tuple(map(repr, r)))
        for row in rel_rows:
            require_json_scalars(row, f"relation {name!r}")
        relations[name] = {
            "columns": list(rel.attributes),
            "key": list(rel.key) if rel.key else None,
            "rows": [list(row) for row in rel_rows],
        }
    spec: Dict[str, object] = {"relations": relations}
    if constraint_spec:
        spec["constraints"] = {
            kind: list(texts)
            for kind, texts in sorted(constraint_spec.items())
            if texts
        }
    return spec


def _value_order(value: object) -> Tuple:
    """A total order on answer values that agrees with Python's own
    wherever that is defined: the NULL marker first, then numbers, then
    strings, then anything else (JSON null included) by type and repr."""
    if is_null(value):
        return (0, "", 0)
    if isinstance(value, (int, float)):
        return (1, "", value)
    if isinstance(value, str):
        return (2, "", value)
    return (3, type(value).__name__, repr(value))


def sorted_rows(rows: Iterable[tuple]) -> List[tuple]:
    """*rows* sorted, also when they mix value types: in Python's order
    where it is defined (the fast path), else by :func:`_value_order`."""
    ordered = list(rows)
    try:
        ordered.sort()
    except TypeError:
        ordered.sort(key=lambda row: [_value_order(value) for value in row])
    return ordered


def _null_as_none(value: object) -> None:
    if is_null(value):
        return None
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


class RenderedRows(SequenceABC):
    """Rows in the order a response lists them, with their JSON text.

    ``json`` is what the HTTP layer sends for them.  In-process callers
    see the sorted list of row lists: it compares, iterates, indexes
    and tests membership as that list would, but it cannot be changed,
    since every row it hands out is a new list.
    """

    __slots__ = ("rows", "json")

    def __init__(self, rows: Tuple[tuple, ...], json_text: str) -> None:
        self.rows = rows
        self.json = json_text

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [list(row) for row in self.rows[index]]
        return list(self.rows[index])

    def __iter__(self):
        return (list(row) for row in self.rows)

    def __contains__(self, item: object) -> bool:
        return isinstance(item, list) and tuple(item) in self.rows

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RenderedRows):
            return self.rows == other.rows
        if isinstance(other, list):
            return len(other) == len(self.rows) and all(
                list(row) == item for row, item in zip(self.rows, other)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(list(self))


def render_rows(rows: Iterable[tuple]) -> RenderedRows:
    """*rows* sorted by :func:`sorted_rows` and encoded as the JSON
    array of arrays ``json.dumps(..., sort_keys=True, allow_nan=False)``
    writes, the NULL marker as ``null``.  Raises ``ValueError`` on a
    NaN or infinite float, which JSON cannot carry, and ``TypeError``
    on a value it cannot encode."""
    ordered = tuple(sorted_rows(rows))
    return RenderedRows(
        ordered,
        json.dumps(
            ordered, sort_keys=True, allow_nan=False, default=_null_as_none
        ),
    )
