"""Scheduler-policy autotuning: design-space search over the spec grammar.

``repro tune`` and :func:`tune` search the space PR 5's component grammar
opened — every legal ``pri=…,bind=…,steal=…,admit=…`` composition — with
budgeted successive halving over scaled-down evaluation rungs. See
docs/search.md for the architecture, the reproducibility guarantees and
a usage walkthrough.
"""

from repro.search.objectives import (
    OBJECTIVES,
    Objective,
    dominates,
    get_objective,
    pareto_frontier,
    resolve_objectives,
)
from repro.search.report import (
    ProgressPrinter,
    render_leaderboard,
    tune_to_obj,
    write_tune,
)
from repro.search.space import (
    dedup_names,
    enumerate_space,
    space_names,
)
from repro.search.tuner import (
    DEFAULT_EXTRA_OBJECTIVES,
    CandidateResult,
    Rung,
    TuneResult,
    default_rungs,
    plan_counts,
    tune,
)

__all__ = [
    "CandidateResult",
    "DEFAULT_EXTRA_OBJECTIVES",
    "OBJECTIVES",
    "Objective",
    "ProgressPrinter",
    "Rung",
    "TuneResult",
    "dedup_names",
    "default_rungs",
    "dominates",
    "enumerate_space",
    "get_objective",
    "pareto_frontier",
    "plan_counts",
    "render_leaderboard",
    "resolve_objectives",
    "space_names",
    "tune",
    "tune_to_obj",
    "write_tune",
]
