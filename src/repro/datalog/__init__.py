"""Classical function-free Datalog substrate.

Provides the non-temporal evaluation engine (naive and semi-naive), fact
storage with positional indexes, predicate dependency analysis, and the
boundedness utilities that back the Theorem 6.2 reduction.
"""

from .bounded import (is_k_bounded_on, iterations_to_fixpoint,
                      stage_sequence)
from .depgraph import (dependency_graph, derived_predicates,
                       is_mutual_recursion_free, is_recursive_rule,
                       is_stratifiable, negative_edges, predicate_levels,
                       recursive_predicates, strata_of_rules,
                       stratification, strongly_connected_components)
from .engine import (check_datalog, immediate_consequences,
                     naive_evaluate, plan_order, seminaive_evaluate)
from .facts import ArgTuple, FactStore

__all__ = [
    "FactStore", "ArgTuple",
    "naive_evaluate", "seminaive_evaluate", "immediate_consequences",
    "check_datalog", "plan_order",
    "dependency_graph", "strongly_connected_components",
    "derived_predicates", "recursive_predicates",
    "is_mutual_recursion_free", "is_recursive_rule", "predicate_levels",
    "stratification", "is_stratifiable", "strata_of_rules",
    "negative_edges",
    "stage_sequence", "iterations_to_fixpoint", "is_k_bounded_on",
]
