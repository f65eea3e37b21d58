"""Search objectives: scalar scoring and Pareto dominance over results.

An :class:`Objective` turns one simulation result into one number plus a
direction. It reads :class:`~repro.gpu.stats.SimStats` only, the one
thing a run produces or a cache returns, so a score is identical whether
the result was freshly simulated or loaded from the cache (this is what
keeps warm-cache reruns of a search deterministic).

Multi-objective searches rank their leaderboard by one *primary*
objective and report the :func:`pareto_frontier` over the full objective
set: the candidates no other candidate beats on every axis at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.gpu.stats import SimStats


@dataclass(frozen=True)
class Objective:
    """One scoring axis: a metric extractor plus an optimization direction."""

    name: str
    #: "max" (higher is better) or "min" (lower is better)
    direction: str
    describe: str
    extract: Callable[[SimStats], float]

    def __post_init__(self) -> None:
        if self.direction not in ("max", "min"):
            raise ValueError(f"direction must be 'max' or 'min', got {self.direction!r}")

    def score(self, stats: SimStats) -> float:
        """The raw metric value for one run (direction not applied)."""
        return float(self.extract(stats))

    def sort_key(self, value: float) -> float:
        """Monotone map under which *larger is always better*."""
        return value if self.direction == "max" else -value

    def better(self, a: float, b: float) -> bool:
        """True when raw value ``a`` is strictly better than ``b``."""
        return self.sort_key(a) > self.sort_key(b)

    def ratio_vs(self, value: float, baseline: float) -> float:
        """Improvement factor over a baseline value (>1 = better).

        Direction-aware: for ``max`` objectives it is ``value/baseline``,
        for ``min`` objectives ``baseline/value``. A zero denominator
        yields 0.0 (no claim is better than a divide-by-zero claim).
        """
        num, den = (value, baseline) if self.direction == "max" else (baseline, value)
        return num / den if den else 0.0


def _steal_rate(stats: SimStats) -> float:
    return stats.work_steals / stats.tbs_dispatched if stats.tbs_dispatched else 0.0


#: the built-in objective catalog, in report order
OBJECTIVES: dict[str, Objective] = {
    obj.name: obj
    for obj in (
        Objective("ipc", "max", "instructions per cycle", lambda s: s.ipc),
        Objective("l1-hit-rate", "max", "L1 hit rate", lambda s: s.l1_hit_rate),
        Objective("l2-hit-rate", "max", "L2 hit rate", lambda s: s.l2_hit_rate),
        Objective(
            "child-wait", "min", "mean dynamic-TB queueing delay (cycles)",
            lambda s: s.child_mean_wait,
        ),
        Objective(
            "gini", "min", "Gini coefficient of per-SMX busy cycles",
            lambda s: s.busy_cycles_gini,
        ),
        Objective(
            "utilization", "max", "mean SMX issue-port busy fraction",
            lambda s: s.smx_utilization,
        ),
        Objective("steal-rate", "min", "work steals per dispatched TB", _steal_rate),
    )
}


def get_objective(name: str) -> Objective:
    """Look an objective up by name, with a helpful error."""
    try:
        return OBJECTIVES[name]
    except KeyError:
        raise ValueError(
            f"unknown objective {name!r}; expected one of {sorted(OBJECTIVES)}"
        ) from None


def resolve_objectives(
    primary: str, extra: Sequence[str] = ()
) -> tuple[Objective, list[Objective]]:
    """``(primary objective, full deduped objective list)`` for a search."""
    first = get_objective(primary)
    objectives = [first]
    for name in extra:
        obj = get_objective(name)
        if obj not in objectives:
            objectives.append(obj)
    return first, objectives


def dominates(
    a: dict[str, float], b: dict[str, float], objectives: Sequence[Objective]
) -> bool:
    """True when ``a`` is at least as good as ``b`` on every objective and
    strictly better on at least one (values are raw metric dicts keyed by
    objective name)."""
    strictly = False
    for obj in objectives:
        ka, kb = obj.sort_key(a[obj.name]), obj.sort_key(b[obj.name])
        if ka < kb:
            return False
        if ka > kb:
            strictly = True
    return strictly


def pareto_frontier(
    points: dict[str, dict[str, float]], objectives: Sequence[Objective]
) -> list[str]:
    """Names of the non-dominated points, in the input's (ranked) order.

    ``points`` maps candidate name -> {objective name: raw value}. With a
    single objective the frontier is every candidate tied for the best
    value.
    """
    names = list(points)
    return [
        name
        for name in names
        if not any(
            other != name and dominates(points[other], points[name], objectives)
            for other in names
        )
    ]
