"""Evaluation: Pareto analysis, design-space exploration, reporting."""

from .pareto import (
    dominates,
    pareto_front,
    pareto_points,
    hypervolume,
)
from .dse import (
    ENV_STACK,
    ENV_WORKERS,
    DSECache,
    DSEEngine,
    DSEPoint,
    DSEResult,
    evaluator_name,
    objective_value,
    select_small_medium_large,
    stack_width_default,
    workers_default,
)
from .reporting import (
    format_table,
    format_failures,
)

__all__ = [
    "dominates",
    "pareto_front",
    "pareto_points",
    "hypervolume",
    "DSECache",
    "DSEEngine",
    "DSEPoint",
    "DSEResult",
    "evaluator_name",
    "objective_value",
    "select_small_medium_large",
    "ENV_STACK",
    "ENV_WORKERS",
    "stack_width_default",
    "workers_default",
    "format_table",
    "format_failures",
]
