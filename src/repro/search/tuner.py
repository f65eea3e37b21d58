"""Budgeted successive-halving search over the scheduler-policy space.

The tuner evaluates a candidate set of scheduler specs on a ladder of
*rungs* — cheap, scaled-down evaluations first (tiny workloads, capped
cycle budgets), full-fidelity last — keeping only the top ``1/eta`` of
candidates at each rung (Hyperband-style successive halving). Every
evaluation is an ordinary :class:`~repro.harness.execution.RunSpec`
pushed through an ordinary executor, so evaluations deduplicate, fan out
over worker processes, and land in the content-addressed result cache;
the final rung runs unmodified full-size specs, which therefore share
cache addresses with ``repro run``/``compare``/``grid``.

Determinism and reproducibility guarantees (pinned by tests):

* The *plan* — candidate order, rung ladder, per-rung candidate counts,
  the budget trim — depends only on the arguments, never on cache state
  or timing. ``budget`` counts planned (candidate x workload)
  evaluations, and a cache hit costs exactly one unit of budget, same as
  a fresh simulation.
* Scores read :class:`~repro.gpu.stats.SimStats` only (see
  :mod:`repro.search.objectives`), and every ranking tie-breaks on the
  canonical candidate name.
* Consequently a warm-cache rerun of the same search returns the
  identical result while constructing zero engines.

*Protected* candidates (default: the baseline and the ``adaptive-bind``
preset) are exempt from elimination. They anchor the search — the final
leaderboard always contains the paper's best hand-designed point, so the
reported winner is at least as good as it by construction — and keep the
baseline's full-fidelity stats available for normalized reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.components import resolve_scheduler
from repro.gpu.config import GPUConfig
from repro.harness.cache import ResultCache
from repro.harness.execution import (
    DEFAULT_MAX_CYCLES,
    Executor,
    RunSpec,
    make_executor,
)
from repro.search.objectives import pareto_frontier, resolve_objectives
from repro.search.space import dedup_names, space_names
from repro.telemetry.events import NULL_SINK, SearchProgress, TelemetrySink

#: extra objective axes reported (and Pareto-ranked) alongside the primary
DEFAULT_EXTRA_OBJECTIVES = ("l1-hit-rate", "l2-hit-rate", "gini", "child-wait")

#: rung ladders per final scale: cheap fidelities first, the target last
_RUNG_LADDER = {
    "tiny": ("tiny",),
    "small": ("tiny", "small"),
    "paper": ("tiny", "small", "paper"),
}

#: cycle caps for the scaled-down rungs (the final rung runs uncapped at
#: the harness default, so its specs match ordinary runs byte-for-byte)
_RUNG_CYCLE_CAPS = {"tiny": 2_000_000, "small": 20_000_000}


@dataclass(frozen=True)
class Rung:
    """One fidelity level of the ladder.

    ``config_overrides`` optionally scales the *machine* down as well
    (e.g. ``{"num_smx": 4}``) via :meth:`RunSpec.with_rung`; the default
    ladder scales only the workload and the cycle budget so that the
    final rung is byte-identical to a normal harness run.
    """

    scale: str
    max_cycles: Optional[int] = DEFAULT_MAX_CYCLES
    config_overrides: Optional[dict] = None


def default_rungs(scale: str) -> list[Rung]:
    """The standard ladder ending at ``scale`` (tiny → … → scale)."""
    ladder = _RUNG_LADDER.get(scale)
    if ladder is None:
        raise ValueError(
            f"unknown scale {scale!r}; expected one of {sorted(_RUNG_LADDER)}"
        )
    rungs = [Rung(scale=s, max_cycles=_RUNG_CYCLE_CAPS[s]) for s in ladder[:-1]]
    rungs.append(Rung(scale=ladder[-1]))
    return rungs


def plan_counts(n0: int, num_rungs: int, eta: int, floor: int) -> list[int]:
    """Candidates evaluated per rung: ``n0`` shrunk by ``eta`` each rung,
    never below ``floor`` (the protected candidates)."""
    counts = [n0]
    for _ in range(num_rungs - 1):
        counts.append(max(floor, math.ceil(counts[-1] / eta)))
    return counts


@dataclass(frozen=True)
class CandidateResult:
    """One candidate's final standing in a search."""

    name: str
    #: canonical spec string (all four axes)
    spec: str
    #: last rung this candidate was evaluated at (0-based)
    rung: int
    scale: str
    #: primary-objective value, averaged over the benchmarks
    score: float
    #: mean per-benchmark improvement factor over the baseline (primary
    #: objective, direction-aware; None for candidates eliminated before
    #: the final rung)
    vs_baseline: Optional[float]
    #: mean raw value per objective name, at this candidate's last rung
    metrics: dict[str, float] = field(default_factory=dict)
    #: primary-objective value per benchmark
    per_benchmark: dict[str, float] = field(default_factory=dict)


@dataclass
class TuneResult:
    """Everything a search decided and measured."""

    objective: str
    objectives: list[str]
    benchmarks: list[str]
    model: str
    scale: str
    seed: int
    budget: int
    eta: int
    baseline: str
    #: canonical candidate names actually searched (after the budget trim)
    candidates: list[str]
    #: candidates cut by the budget before any evaluation
    dropped: list[str]
    #: per-rung digest: scale, cycle cap, candidates, cumulative evaluations
    rungs: list[dict]
    #: final-rung candidates, best first
    leaderboard: list[CandidateResult]
    #: candidates eliminated before the final rung (latest rung first,
    #: then rank order within a rung)
    eliminated: list[CandidateResult]
    #: non-dominated final-rung candidates over the full objective set
    pareto: list[str]
    #: planned (candidate x workload) evaluations — cache-independent
    evaluations: int

    @property
    def best(self) -> CandidateResult:
        return self.leaderboard[0]

    def candidate(self, name: str) -> CandidateResult:
        """Look any searched candidate up by canonical name."""
        for row in self.leaderboard + self.eliminated:
            if row.name == name:
                return row
        raise KeyError(
            f"candidate {name!r} was not searched; this tune ran {self.candidates}"
        )


def tune(
    benchmarks: Sequence[str],
    *,
    objective: str = "ipc",
    extra_objectives: Optional[Sequence[str]] = None,
    model: str = "dtbl",
    scale: str = "small",
    seed: int = 7,
    budget: int = 96,
    eta: int = 3,
    include_throttle: bool = True,
    candidates: Optional[Sequence[str]] = None,
    protected: Optional[Sequence[str]] = None,
    baseline: str = "rr",
    config: Optional[GPUConfig] = None,
    rungs: Optional[Sequence[Rung]] = None,
    executor: Optional[Executor] = None,
    jobs: int = 1,
    cache: Optional[ResultCache | str] = None,
    telemetry: TelemetrySink = NULL_SINK,
) -> TuneResult:
    """Search the scheduler-policy space with successive halving.

    ``benchmarks`` are Table II names; ``candidates`` defaults to the
    whole legal spec space (spelling variants are canonicalized and
    deduped, so no policy is ever evaluated twice under two names).
    ``budget`` caps planned (candidate x workload) evaluations; when the
    full candidate set does not fit, the tail of the (named-compositions
    -first) candidate order is dropped *before* evaluating anything and
    reported in ``TuneResult.dropped``.

    Pass ``jobs``/``cache`` to build an executor, or ``executor`` to
    share one.
    """
    benchmarks = list(benchmarks)
    if not benchmarks:
        raise ValueError("tune needs at least one benchmark")
    if eta < 2:
        raise ValueError(f"eta must be >= 2, got {eta}")
    if extra_objectives is None:
        extra_objectives = DEFAULT_EXTRA_OBJECTIVES
    primary, objective_list = resolve_objectives(objective, extra_objectives)
    baseline = dedup_names([baseline])[0]
    if protected is None:
        protected = (baseline, "adaptive-bind")
    protected_names = dedup_names([baseline, *protected])
    pool = list(candidates) if candidates is not None else space_names(include_throttle)
    names = dedup_names([*protected_names, *pool])
    protected_set = set(protected_names)

    rung_list = list(rungs) if rungs is not None else default_rungs(scale)
    if not rung_list:
        raise ValueError("tune needs at least one rung")
    floor = len(protected_names)
    width = len(benchmarks)

    # budget trim: largest initial candidate count whose full plan fits
    n0 = None
    for n in range(len(names), floor - 1, -1):
        if width * sum(plan_counts(n, len(rung_list), eta, floor)) <= budget:
            n0 = n
            break
    if n0 is None:
        minimum = width * sum(plan_counts(floor, len(rung_list), eta, floor))
        raise ValueError(
            f"budget {budget} cannot cover the {len(protected_names)} protected "
            f"candidate(s) over {len(rung_list)} rung(s) x {width} benchmark(s); "
            f"need at least {minimum}"
        )
    counts = plan_counts(n0, len(rung_list), eta, floor)
    dropped = names[n0:]
    survivors = names[:n0]

    if executor is None:
        executor = make_executor(jobs=jobs, cache=cache)

    evaluations = 0
    eliminated: list[CandidateResult] = []
    rung_meta: list[dict] = []
    leaderboard: list[CandidateResult] = []
    pareto: list[str] = []
    best_name, best_score = "", 0.0

    def emit(phase: str, rung_index: int, rung: Rung, n_candidates: int, n_survivors: int) -> None:
        if telemetry.enabled:
            telemetry.emit(
                SearchProgress(
                    time=evaluations,
                    phase=phase,
                    rung=rung_index,
                    scale=rung.scale,
                    candidates=n_candidates,
                    survivors=n_survivors,
                    best=best_name,
                    best_score=best_score,
                )
            )

    for rung_index, rung in enumerate(rung_list):
        final = rung_index == len(rung_list) - 1
        emit("rung-start", rung_index, rung, len(survivors), len(survivors))

        # one RunSpec per (candidate, benchmark), derived from the
        # full-fidelity spec via the rung-scaling hook
        specs: dict[tuple[str, str], RunSpec] = {}
        for name in survivors:
            for bench in benchmarks:
                full = RunSpec.create(
                    bench, name, model, scale=scale, seed=seed, config=config
                )
                specs[(name, bench)] = full.with_rung(
                    scale=rung.scale,
                    max_cycles=rung.max_cycles,
                    config_overrides=rung.config_overrides,
                )
        results = executor.run(list(specs.values()))
        evaluations += len(survivors) * width

        # aggregate every objective over the benchmarks (plain means)
        metrics: dict[str, dict[str, float]] = {}
        per_benchmark: dict[str, dict[str, float]] = {}
        for name in survivors:
            rows = {bench: results[specs[(name, bench)]] for bench in benchmarks}
            metrics[name] = {
                obj.name: _mean([obj.score(stats) for stats in rows.values()])
                for obj in objective_list
            }
            per_benchmark[name] = {bench: primary.score(stats) for bench, stats in rows.items()}

        ranking = sorted(
            survivors,
            key=lambda n: (-primary.sort_key(metrics[n][primary.name]), n),
        )
        best_name = ranking[0]
        best_score = metrics[best_name][primary.name]
        rung_meta.append(
            {
                "rung": rung_index,
                "scale": rung.scale,
                "max_cycles": rung.max_cycles,
                "candidates": len(survivors),
                "evaluations": evaluations,
            }
        )

        def row(name: str, vs: Optional[float]) -> CandidateResult:
            return CandidateResult(
                name=name,
                spec=resolve_scheduler(name)[1].canonical,
                rung=rung_index,
                scale=rung.scale,
                score=metrics[name][primary.name],
                vs_baseline=vs,
                metrics=dict(metrics[name]),
                per_benchmark=dict(per_benchmark[name]),
            )

        if final:
            base_scores = per_benchmark[baseline]
            leaderboard = [
                row(
                    name,
                    _mean(
                        [
                            primary.ratio_vs(per_benchmark[name][b], base_scores[b])
                            for b in benchmarks
                        ]
                    ),
                )
                for name in ranking
            ]
            pareto = pareto_frontier(
                {name: metrics[name] for name in ranking}, objective_list
            )
            emit("search-end", rung_index, rung, len(survivors), len(survivors))
            break

        # promote: every protected candidate plus the best of the rest,
        # in rank order, down to the planned next-rung count
        keep = counts[rung_index + 1]
        open_slots = keep - len(protected_set & set(survivors))
        promoted: list[str] = []
        for name in ranking:
            if name in protected_set:
                promoted.append(name)
            elif open_slots > 0:
                promoted.append(name)
                open_slots -= 1
        eliminated[:0] = [row(name, None) for name in ranking if name not in promoted]
        emit("rung-end", rung_index, rung, len(ranking), len(promoted))
        survivors = promoted

    return TuneResult(
        objective=primary.name,
        objectives=[obj.name for obj in objective_list],
        benchmarks=benchmarks,
        model=model,
        scale=scale,
        seed=seed,
        budget=budget,
        eta=eta,
        baseline=baseline,
        candidates=names[:n0],
        dropped=dropped,
        rungs=rung_meta,
        leaderboard=leaderboard,
        eliminated=eliminated,
        pareto=pareto,
        evaluations=evaluations,
    )


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
