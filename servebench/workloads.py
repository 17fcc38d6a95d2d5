"""Seeded instances, operation sequences and exact answers.

Everything a run sends to the server is generated here from the
workload seed; the server receives only the resulting JSON specs and
requests.  The exact answer of every instance is computed in this
process before the server starts:

* ``selfjoin-asp`` — by repair enumeration (``repro.cqa.certain``);
* the other workloads — by :func:`key_group_answers`, which
  :func:`cross_check` compares once per run with the program's
  rewriting and with repair enumeration on a small instance from the
  same generator.

Every database carries an ``Audit(Id, Note)`` relation that no query
reads.  Writes (``large-rw`` only) insert one unique ``Audit`` row, so
the exact answer of a read never depends on which writes landed before
it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

WORKLOADS = ("small-tenants", "large-rw", "selfjoin-asp")

JOIN_QUERY = "Q(X, Z) :- R(X, Y), S(Y, Z)"
PROJECTION_QUERY = "Q(X) :- R(X, Y)"
SELFJOIN_QUERY = "Q(X) :- Employee(X, Y), Employee(Z, Y)"
LOOKUP_QUERY = "Q(X, Y) :- Employee(X, Y)"

#: Main-phase operations per second of ``--seconds``.  Fixed per
#: workload, so a run's operation count depends only on its length:
#: every run sees the same number of worker recycles and compactions.
#: Sized so the timed phase lasts about ``--seconds`` on a 2-core host;
#: it took 24 to 50 s of a 30 s run, with the host's speed.
OPS_PER_SECOND = {
    "small-tenants": 170,
    "large-rw": 6,
    "selfjoin-asp": 8,
}

#: Writes that close a ``large-rw`` run after its main phase, so that
#: its store compacts (every 256 records) once per run.
CLOSING_WRITES = 200

#: Seconds of operations per slice.  The connections go idle at the
#: end of every slice while the benchmark times its host-speed loop
#: (``hostspeed.py``).
SLICE_SECONDS = 2

#: Closed-loop connections per workload.  The gated workloads have
#: one: with two, concurrent reads race in the dispatcher's shape cache
#: and on ``large-rw`` a few per run fail with HTTP 500, and queueing
#: behind the other connection's self-join made ``selfjoin-asp``'s p90
#: spread twice as wide (README.md, "Noise on this kind of host").
CONNECTIONS = {
    "small-tenants": 2,
    "large-rw": 1,
    "selfjoin-asp": 1,
}


Answers = FrozenSet[Tuple[object, ...]]


@dataclass(frozen=True)
class Instance:
    """One registered database and the queries read against it."""

    name: str
    spec: Dict[str, object]
    queries: Tuple[str, ...]
    facts: int


@dataclass(frozen=True)
class Op:
    """One request of the operation sequence."""

    kind: str  # "read" | "write"
    db: str
    payload: Dict[str, object]

    @property
    def answer_key(self) -> Tuple[str, str]:
        """Key of the exact answer a read must return."""
        return self.db, self.payload["query"]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    instances: Tuple[Instance, ...]
    ops: Tuple[Op, ...]
    #: ``(start, stop)`` op index ranges of the slices; no slice
    #: overlaps the next (see :func:`_slices`).
    slices: Tuple[Tuple[int, int], ...]
    connections: int

    @property
    def reads(self) -> int:
        return sum(op.kind == "read" for op in self.ops)

    @property
    def writes(self) -> int:
        return sum(op.kind == "write" for op in self.ops)


# -- instance generators ---------------------------------------------


def _audit() -> Dict[str, object]:
    return {"columns": ["Id", "Note"], "key": None, "rows": []}


def _keyed_rows(
    rng: random.Random,
    keys: Sequence[str],
    values: Sequence[str],
    violating: int,
) -> List[List[str]]:
    """One row per key, plus a second value for *violating* keys."""
    first = {key: rng.choice(values) for key in keys}
    rows = [[key, value] for key, value in first.items()]
    for key in rng.sample(list(keys), violating):
        second = rng.choice([v for v in values if v != first[key]])
        rows.append([key, second])
    rng.shuffle(rows)
    return rows


def join_spec(
    rng: random.Random, keys: int, violating: int
) -> Dict[str, object]:
    """``R(A, B)`` and ``S(B, C)``, keyed on the first column.

    ``R.B`` draws from the keys of ``S`` so the join is dense, and each
    relation gets *violating* key groups of two tuples.
    """
    r_keys = [f"a{i}" for i in range(keys)]
    s_keys = [f"b{i}" for i in range(keys)]
    c_values = [f"c{i}" for i in range(max(4, keys // 4))]
    return {
        "relations": {
            "R": {
                "columns": ["A", "B"],
                "key": ["A"],
                "rows": _keyed_rows(rng, r_keys, s_keys, violating),
            },
            "S": {
                "columns": ["B", "C"],
                "key": ["B"],
                "rows": _keyed_rows(rng, s_keys, c_values, violating),
            },
            "Audit": _audit(),
        },
        "constraints": {"fd": ["R: A -> B", "S: B -> C"]},
    }


def employee_spec(
    rng: random.Random, clean: int, groups: int
) -> Dict[str, object]:
    """``Employee(Name, Salary)`` with *groups* two-salary names."""
    salaries = [f"{k}K" for k in range(1, 9)]
    names = [f"e{i}" for i in range(clean + groups)]
    return {
        "relations": {
            "Employee": {
                "columns": ["Name", "Salary"],
                "key": ["Name"],
                "rows": _keyed_rows(rng, names, salaries, groups),
            },
            "Audit": _audit(),
        },
        "constraints": {"fd": ["Employee: Name -> Salary"]},
    }


def _instance(name: str, spec, *queries: str) -> Instance:
    facts = sum(len(rel["rows"]) for rel in spec["relations"].values())
    return Instance(name, spec, queries, facts)


def instances_for(name: str, seed: int) -> Tuple[Instance, ...]:
    """The databases a workload registers (sizes in README.md)."""
    rng = random.Random(f"{name}/{seed}")
    if name == "small-tenants":
        return tuple(
            _instance(f"t{i:02d}", join_spec(rng, 64, 6), JOIN_QUERY)
            for i in range(64)
        )
    if name == "large-rw":
        return (
            _instance("big", join_spec(rng, 5500, 550), PROJECTION_QUERY),
        )
    if name == "selfjoin-asp":
        return tuple(
            _instance(
                f"emp{i:02d}", employee_spec(rng, 20, 4),
                SELFJOIN_QUERY, LOOKUP_QUERY,
            )
            for i in range(96)
        )
    raise ValueError(f"unknown workload {name!r}")


# -- operation sequences ---------------------------------------------


def warm_up_ops(workload: Workload) -> List[Op]:
    """One read per instance (of its last, cheapest query), plus one of
    every other query on the first instance, so every code path the run
    takes has run once."""
    first = workload.instances[0]
    ops = [read_op(inst, inst.queries[-1]) for inst in workload.instances]
    return ops + [read_op(first, query) for query in first.queries[:-1]]


def read_op(instance: Instance, query: str) -> Op:
    return Op("read", instance.name, {
        "db": instance.name,
        "query": query,
        "tenant": instance.name,
    })


def _write(instance: Instance, seed: int, index: int) -> Op:
    return Op("write", instance.name, {
        "insert": [["Audit", f"w{seed}-{index}", f"op {index}"]],
    })


def build(name: str, seed: int, seconds: int) -> Workload:
    """The instances and the seeded operation sequence of one run."""
    instances = instances_for(name, seed)
    rng = random.Random(f"{name}/{seed}/ops")
    count = OPS_PER_SECOND[name] * seconds
    ops: List[Op] = []
    if name == "large-rw":
        # One durable write per two reads, in blocks of two writes and
        # four reads; then the closing writes, as a phase of their own.
        # The first read after a write finds a new instance version and
        # is slower than the three after it.  Fixed blocks make that
        # exactly a quarter of the reads on every seed, so the read p50
        # lies among the fast reads and the p90 among the slow ones.
        big = instances[0]
        while len(ops) < count:
            ops += [_write(big, seed, len(ops) + i) for i in range(2)]
            ops += [read_op(big, PROJECTION_QUERY)] * 4
        del ops[count:]
        ops.extend(_write(big, seed, count + i) for i in range(CLOSING_WRITES))
        slices = _slices(name, ((0, count), (count, len(ops))))
        return Workload(
            name, seed, instances, tuple(ops), slices, CONNECTIONS[name]
        )
    # The other workloads only read, every instance equally often (to
    # one read) in a seeded order, so that the seed changes which
    # instances a run reads but not how often it reads each.
    order = [instances[i % len(instances)] for i in range(count)]
    rng.shuffle(order)
    for index, instance in enumerate(order, 1):
        # selfjoin-asp: every eighth read is the key lookup.
        lookup = index % 8 == 0 and len(instance.queries) > 1
        ops.append(read_op(instance, instance.queries[lookup]))
    return Workload(
        name, seed, instances, tuple(ops), _slices(name, ((0, len(ops)),)),
        CONNECTIONS[name],
    )


def _slices(
    name: str, phases: Sequence[Tuple[int, int]]
) -> Tuple[Tuple[int, int], ...]:
    """Each phase cut into slices of ``SLICE_SECONDS`` worth of ops."""
    size = SLICE_SECONDS * OPS_PER_SECOND[name]
    return tuple(
        (start, min(start + size, stop))
        for first, stop in phases
        for start in range(first, stop, size)
    )


# -- exact answers ---------------------------------------------------


def _groups(spec, relation: str) -> Dict[object, set]:
    groups: Dict[object, set] = {}
    for key, value in spec["relations"][relation]["rows"]:
        groups.setdefault(key, set()).add(value)
    return groups


def key_group_answers(spec, query: str) -> Answers:
    """Certain answers of the two join-schema queries, directly.

    Under key constraints a repair keeps one tuple of every key group,
    independently per group.  So ``X`` is certain for ``Q(X) :- R(X, Y)``
    iff its group is non-empty, and ``(X, Z)`` is certain for the join
    iff every ``Y`` of ``X``'s group has a non-empty ``S`` group whose
    only ``C`` is ``Z``.
    """
    r_groups = _groups(spec, "R")
    if query == PROJECTION_QUERY:
        return frozenset((x,) for x in r_groups)
    if query != JOIN_QUERY:
        raise ValueError(f"no key-group oracle for {query}")
    s_groups = _groups(spec, "S")
    answers = set()
    for x, ys in r_groups.items():
        if all(y in s_groups for y in ys):
            zs = set().union(*(s_groups[y] for y in ys))
            if len(zs) == 1:
                answers.add((x, *zs))
    return frozenset(answers)


def _parsed(spec, query: str):
    from repro.logic.parser import parse_query
    from repro.serve.specs import parse_constraints, parse_database

    return (
        parse_database(spec),
        tuple(parse_constraints(spec.get("constraints"))),
        parse_query(query),
    )


def enumerated_answers(spec, query: str) -> Answers:
    """Certain answers by repair enumeration (``repro.cqa.certain``)."""
    from repro.cqa.certain import consistent_answers

    return frozenset(consistent_answers(*_parsed(spec, query)))


def rewritten_answers(spec, query: str) -> Answers:
    """Certain answers by in-memory evaluation of the program's
    Fuxman–Miller rewriting."""
    from repro.cqa.fuxman_miller import fuxman_miller_rewrite

    db, constraints, parsed = _parsed(spec, query)
    return frozenset(
        fuxman_miller_rewrite(parsed, constraints, db).answers(db)
    )


def expected_answers(workload: Workload) -> Dict[Tuple[str, str], Answers]:
    """The exact answer of every (database, query) pair."""
    oracle = (
        enumerated_answers
        if workload.name == "selfjoin-asp"
        else key_group_answers
    )
    return {
        (inst.name, query): oracle(inst.spec, query)
        for inst in workload.instances
        for query in inst.queries
    }


def cross_check(seed: int) -> None:
    """Raise unless the key-group oracle, the program's rewriting and
    repair enumeration agree on a small instance of the join generator
    (2^6 repairs), for both queries the oracle serves."""
    spec = join_spec(random.Random(f"cross-check/{seed}"), 12, 3)
    for query in (JOIN_QUERY, PROJECTION_QUERY):
        direct = key_group_answers(spec, query)
        if not direct or not (
            direct
            == rewritten_answers(spec, query)
            == enumerated_answers(spec, query)
        ):
            raise AssertionError(
                f"exact-answer oracles disagree on {query} (seed {seed})"
            )
