"""Probabilistic clean answers over dirty databases (Section 6, after [2]).

Andritsos, Fuxman & Miller weaken certain answers probabilistically: a
key-violating instance induces a distribution over its repairs (worlds),
each world keeping one alternative per key group (the tuples of one
right-hand side; a tuple with NULL in its key or as its whole
right-hand side conflicts with nothing and is in every world); tuples
may carry weights (source reliability), defaulting to uniform within
their group, and an alternative weighs what its tuples weigh.  The
*clean answer* probability of a row is the total probability of the
worlds where it is an answer — certain answers are exactly the rows with
probability 1, and "true in most repairs" (the paper's suggested
weakening) is a threshold query on the same distribution.

Two evaluation paths:

* ``world_probabilities`` / ``clean_answers`` enumerate the repair
  worlds exactly (the defining semantics; exponential);
* ``clean_answers_single_atom`` computes the same probabilities in
  polynomial time for single-atom projection queries, exploiting the
  independence of key groups.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..constraints.fd import FunctionalDependency
from ..errors import QueryError
from ..logic.formulas import is_var
from ..logic.queries import ConjunctiveQuery
from ..relational.database import Database, Fact, Row
from ..relational.nulls import is_null


@dataclass(frozen=True)
class DirtyDatabase:
    """A key-violating instance with per-tuple weights.

    Weights are positive reals; within each key group they normalize to
    the group's choice distribution.  Missing weights default to 1
    (uniform within the group).
    """

    db: Database
    key: FunctionalDependency
    weights: Mapping[Fact, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for f, w in self.weights.items():
            if w <= 0:
                raise QueryError(f"weight of {f!r} must be positive")
            if f not in self.db:
                raise QueryError(f"weighted fact {f!r} not in instance")

    def weight(self, f: Fact) -> float:
        return float(self.weights.get(f, 1.0))

    def groups(self) -> List[List[Tuple[Tuple[Fact, ...], float]]]:
        """The repair choices, each a list of (facts, probability): the
        facts every world keeps, with probability 1, then per key group
        with a conflict its alternatives (``key.split``), weighted by
        their facts, in ``repr`` order; ``SplitDeclinedError`` where
        the split declines.
        """
        kept, split = self.key.split(self.db)
        relation = self.key.relation
        fixed = [f for f in self.db.facts() if f.relation != relation]
        fixed += (Fact(relation, row) for row in kept)
        choices = []
        for rows in split.values():
            alternatives = sorted(
                (sorted((Fact(relation, r) for r in alt), key=repr)
                 for alt in rows),
                key=lambda facts: list(map(repr, facts)),
            )
            if len(alternatives) == 1:
                fixed += alternatives[0]
                continue
            weights = [sum(map(self.weight, facts)) for facts in alternatives]
            total = sum(weights)
            choices.append([
                (tuple(facts), w / total)
                for facts, w in zip(alternatives, weights)
            ])
        choices.sort(key=lambda group: repr(group[0][0][0]))
        return [[(tuple(fixed), 1.0)], *choices]


def world_probabilities(
    dirty: DirtyDatabase,
) -> List[Tuple[Database, float]]:
    """All repair worlds with their probabilities (sums to 1)."""
    worlds: List[Tuple[Database, float]] = []
    for combo in itertools.product(*dirty.groups()):
        kept = {f for facts, _ in combo for f in facts}
        world = dirty.db.delete([f for f in dirty.db if f not in kept])
        worlds.append((world, math.prod(p for _, p in combo)))
    return worlds


def clean_answers(
    dirty: DirtyDatabase,
    query,
    threshold: float = 0.0,
) -> List[Tuple[Row, float]]:
    """Rows with their answer probabilities, most probable first.

    ``threshold=1.0`` recovers the certain answers; intermediate values
    implement "true in most repairs".
    """
    probabilities: Dict[Row, float] = {}
    for world, p in world_probabilities(dirty):
        for row in query.answers(world):
            probabilities[row] = probabilities.get(row, 0.0) + p
    out = [
        (row, min(p, 1.0)) for row, p in probabilities.items()
        if p >= threshold - 1e-12
    ]
    out.sort(key=lambda item: (-item[1], repr(item[0])))
    return out


def clean_answers_single_atom(
    dirty: DirtyDatabase,
    query: ConjunctiveQuery,
    threshold: float = 0.0,
) -> List[Tuple[Row, float]]:
    """Polynomial clean answers for single-atom projection queries.

    Key groups choose independently, so for an answer row supported by
    tuple sets S_g per group g: P(row) = 1 − Π_g (1 − P(choice ∈ S_g)).
    """
    if len(query.atoms) != 1 or query.conditions:
        raise QueryError(
            "the polynomial path handles single-atom queries without "
            "comparisons; use clean_answers for the general case"
        )
    (atom_,) = query.atoms
    if atom_.predicate != dirty.key.relation:
        raise QueryError(
            "the query atom must range over the keyed relation"
        )
    support: Dict[Row, Dict[int, float]] = {}
    for g_index, group in enumerate(dirty.groups()):
        for facts, p in group:
            rows = {
                _project(atom_, f, query)
                for f in facts if f.relation == atom_.predicate
            }
            rows.discard(None)
            for row in rows:
                bucket = support.setdefault(row, {})
                bucket[g_index] = bucket.get(g_index, 0.0) + p
    out: List[Tuple[Row, float]] = []
    for row, per_group in support.items():
        miss = math.prod(1.0 - min(p, 1.0) for p in per_group.values())
        if 1.0 - miss >= threshold - 1e-12:
            out.append((row, 1.0 - miss))
    out.sort(key=lambda item: (-item[1], repr(item[0])))
    return out


def _project(atom_, f: Fact, query: ConjunctiveQuery) -> Optional[Row]:
    """Head projection of fact *f* under the atom pattern, or None.
    A repeated variable is a join, which a NULL never satisfies."""
    binding = {}
    for term, value in zip(atom_.terms, f.values):
        if is_var(term):
            if term in binding:
                if is_null(value) or binding[term] != value:
                    return None
            binding[term] = value
        elif term != value:
            return None
    try:
        return tuple(binding[v] for v in query.head)
    except KeyError:
        return None
