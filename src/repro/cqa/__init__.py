"""Consistent query answering: certain answers, rewritings, approximations."""

from .aggregates import (
    AggregateQuery,
    AggregateRange,
    fd_range_count_star,
    fd_range_max,
    fd_range_min,
    fd_range_sum,
    range_consistent_answer,
)
from .approximation import (
    approximation_gap,
    certain_core,
    overapproximate_answers,
    underapproximate_answers,
)
from .certain import (
    answer_frequencies,
    consistent_answers,
    consistent_answers_partial,
    is_consistently_true,
    is_possibly_true,
    repairs_for_semantics,
    repairs_for_semantics_partial,
)
from .fuxman_miller import consistent_answers_fm, fuxman_miller_rewrite
from .local import consistent_answers_local
from .rewriting import (
    atom_residues,
    consistent_answers_by_rewriting,
    constraint_clauses,
    fo_rewrite,
)
from .sqlgen import answers_via_sql, query_to_sql

__all__ = [
    "AggregateQuery",
    "AggregateRange",
    "fd_range_count_star",
    "fd_range_max",
    "fd_range_min",
    "fd_range_sum",
    "range_consistent_answer",
    "approximation_gap",
    "certain_core",
    "overapproximate_answers",
    "underapproximate_answers",
    "answer_frequencies",
    "consistent_answers",
    "consistent_answers_partial",
    "is_consistently_true",
    "is_possibly_true",
    "repairs_for_semantics",
    "repairs_for_semantics_partial",
    "consistent_answers_fm",
    "fuxman_miller_rewrite",
    "consistent_answers_local",
    "atom_residues",
    "consistent_answers_by_rewriting",
    "constraint_clauses",
    "fo_rewrite",
    "answers_via_sql",
    "query_to_sql",
]
