"""Database repairs: S-repairs, C-repairs, null-based and attribute-based."""

from .attribute import (
    AttributeRepair,
    attribute_repairs,
    attribute_repairs_partial,
    c_attribute_repairs,
)
from .base import Repair, cardinality_minimal, minimal_repairs, sort_repairs
from .checking import is_c_repair, is_s_repair
from .counting import (
    count_fd_repairs,
    count_repairs_per_group,
    count_s_repairs,
)
from .crepairs import c_repairs, c_repairs_partial, repair_distance
from .incremental import IncrementalRepairer
from .nullrepairs import null_tuple_repairs
from .prioritized import (
    PriorityRelation,
    globally_optimal_repairs,
    pareto_optimal_repairs,
    prioritized_consistent_answers,
)
from .optimal import one_c_repair, one_s_repair
from .product import ComponentProduct, minimum_hitting_sets_branch_and_bound
from .srepairs import (
    delete_only_repairs,
    delete_only_repairs_partial,
    s_repairs,
    s_repairs_partial,
)

__all__ = [
    "AttributeRepair",
    "attribute_repairs",
    "attribute_repairs_partial",
    "c_attribute_repairs",
    "Repair",
    "cardinality_minimal",
    "minimal_repairs",
    "sort_repairs",
    "is_c_repair",
    "is_s_repair",
    "count_fd_repairs",
    "count_repairs_per_group",
    "count_s_repairs",
    "c_repairs",
    "c_repairs_partial",
    "ComponentProduct",
    "minimum_hitting_sets_branch_and_bound",
    "repair_distance",
    "IncrementalRepairer",
    "null_tuple_repairs",
    "PriorityRelation",
    "globally_optimal_repairs",
    "pareto_optimal_repairs",
    "prioritized_consistent_answers",
    "one_c_repair",
    "one_s_repair",
    "delete_only_repairs",
    "delete_only_repairs_partial",
    "s_repairs",
    "s_repairs_partial",
]
