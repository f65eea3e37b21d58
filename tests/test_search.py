"""Scheduler-policy autotuner: space, objectives, tuner, CLI.

Includes the acceptance proofs from the search subsystem's spec: the
legal space enumerates to 28/14 points with no duplicate canonical
names; ``parse_spec -> canonical_scheduler_name -> parse_spec`` is
idempotent over every legal spec and each of its spellings; a
fixed-seed ``tune`` is deterministic, its top candidate scores at least
as well as the ``adaptive-bind`` preset, and an immediate warm-cache
rerun constructs zero engines.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.core.components import (
    NAMED_COMPOSITIONS,
    canonical_name,
    canonical_scheduler_name,
    parse_spec,
    resolve_scheduler,
)
from repro.gpu.engine import Engine
from repro.harness.execution import DEFAULT_MAX_CYCLES, RunSpec, make_executor
from repro.harness.registry import experiment_config
from repro.search import (
    OBJECTIVES,
    ProgressPrinter,
    Rung,
    dedup_names,
    default_rungs,
    dominates,
    enumerate_space,
    get_objective,
    pareto_frontier,
    plan_counts,
    resolve_objectives,
    sample_specs,
    space_names,
    spec_names,
    tune,
    tune_to_obj,
    write_tune,
)
from repro.telemetry.events import RecordingSink, SearchProgress

TINY_CONFIG = experiment_config(num_smx=4, max_threads_per_smx=256)


@pytest.fixture
def engine_runs(monkeypatch):
    """Counts Engine.run calls in this process."""
    calls = {"n": 0}
    real_run = Engine.run

    def counting_run(self):
        calls["n"] += 1
        return real_run(self)

    monkeypatch.setattr(Engine, "run", counting_run)
    return calls


def tiny_tune(**overrides):
    kwargs = dict(
        benchmarks=["amr", "join-gaussian"],
        scale="tiny",
        budget=24,
        config=TINY_CONFIG,
    )
    kwargs.update(overrides)
    return tune(kwargs.pop("benchmarks"), **kwargs)


class TestSpace:
    def test_full_space_size(self):
        assert len(enumerate_space(include_throttle=True)) == 28

    def test_unthrottled_space_size(self):
        assert len(enumerate_space(include_throttle=False)) == 14

    def test_no_duplicate_canonical_names(self):
        names = [spec.canonical for spec in enumerate_space()]
        assert len(names) == len(set(names))

    def test_space_contains_every_named_composition(self):
        canonicals = {spec.canonical for spec in enumerate_space()}
        for name in NAMED_COMPOSITIONS:
            assert resolve_scheduler(name)[1].canonical in canonicals
            assert resolve_scheduler(f"{name}+throttle")[1].canonical in canonicals

    def test_space_names_lead_with_named_compositions(self):
        names = space_names()
        assert names[0] == canonical_scheduler_name("rr")
        head = names[: 2 * len(NAMED_COMPOSITIONS)]
        for name in NAMED_COMPOSITIONS:
            assert canonical_scheduler_name(name) in head
            assert canonical_scheduler_name(f"{name}+throttle") in head

    def test_space_names_cover_the_space(self):
        assert len(space_names()) == 28
        assert len(space_names(include_throttle=False)) == 14

    def test_enumeration_is_deterministic(self):
        assert enumerate_space() == enumerate_space()

    def test_only_legal_specs(self):
        for spec in enumerate_space():
            if spec.steal != "none":
                assert spec.bind != "any"


class TestDedupNames:
    def test_spelling_variants_collapse(self):
        out = dedup_names(["rr", "pri=fifo,bind=any", "adaptive-bind"])
        assert out == [
            canonical_scheduler_name("rr"),
            canonical_scheduler_name("adaptive-bind"),
        ]

    def test_first_spelling_wins_position(self):
        smx_spec = resolve_scheduler("smx-bind")[1].canonical
        out = dedup_names(["smx-bind", "rr", smx_spec])
        assert out[0] == canonical_scheduler_name("smx-bind")
        assert len(out) == 2


class TestSampling:
    def test_seeded_sampling_is_deterministic(self):
        assert sample_specs(10, seed=42) == sample_specs(10, seed=42)

    def test_different_seeds_differ(self):
        assert sample_specs(20, seed=1) != sample_specs(20, seed=2)

    def test_oversized_k_returns_whole_space(self):
        assert len(sample_specs(1000)) == 28

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            sample_specs(-1)

    def test_samples_are_distinct(self):
        names = spec_names(sample_specs(15, seed=3))
        assert len(names) == 15


class TestSpellingRoundTrip:
    """Satellite 3: parse -> canonicalize -> parse is idempotent."""

    def test_parse_canonical_parse_idempotent(self):
        for spec in enumerate_space():
            parsed = parse_spec(spec.canonical)
            assert parsed == spec
            # parsing the canonical spec string is idempotent
            assert parse_spec(parsed.canonical) == spec
            # canonicalization of the scheduler name is a fixed point
            name = canonical_scheduler_name(spec.canonical)
            assert canonical_scheduler_name(name) == name
            assert resolve_scheduler(name)[1] == spec

    def test_every_spelling_resolves_to_same_point(self):
        for spec in enumerate_space():
            name = canonical_name(spec)
            spellings = [spec.canonical, name]
            if spec.admit == "throttle":
                spellings.append(f"{canonical_name(replace(spec, admit='none'))}+throttle")
            for spelling in spellings:
                assert resolve_scheduler(spelling) == (name, spec)
            assert canonical_scheduler_name(name) == name

    def test_throttle_suffix_spelling_round_trips(self):
        throttled = [s for s in enumerate_space() if s.admit == "throttle"]
        for spec in throttled:
            unthrottled = replace(spec, admit="none")
            spelling = f"{unthrottled.canonical}+throttle"
            assert resolve_scheduler(spelling)[1] == spec


class TestObjectives:
    def test_directions(self):
        assert get_objective("ipc").direction == "max"
        assert get_objective("child-wait").direction == "min"
        assert get_objective("gini").direction == "min"

    def test_unknown_objective_names_catalog(self):
        with pytest.raises(ValueError, match="unknown objective 'throughput'.*ipc"):
            get_objective("throughput")

    def test_sort_key_flips_min_objectives(self):
        gini = get_objective("gini")
        assert gini.better(0.1, 0.5)
        ipc = get_objective("ipc")
        assert ipc.better(2.0, 1.0)

    def test_ratio_vs_direction_aware(self):
        assert get_objective("ipc").ratio_vs(2.0, 1.0) == pytest.approx(2.0)
        assert get_objective("child-wait").ratio_vs(5.0, 10.0) == pytest.approx(2.0)
        assert get_objective("ipc").ratio_vs(2.0, 0.0) == 0.0

    def test_resolve_objectives_dedups(self):
        primary, objs = resolve_objectives("ipc", ["gini", "ipc", "gini"])
        assert primary.name == "ipc"
        assert [o.name for o in objs] == ["ipc", "gini"]

    def test_bad_direction_rejected(self):
        from repro.search import Objective

        with pytest.raises(ValueError, match="direction"):
            Objective("x", "sideways", "", lambda s, t: 0.0)


class TestPareto:
    OBJS = None

    def objs(self):
        return [get_objective("ipc"), get_objective("gini")]

    def test_dominance(self):
        objs = self.objs()
        a = {"ipc": 2.0, "gini": 0.1}
        b = {"ipc": 1.0, "gini": 0.5}
        assert dominates(a, b, objs)
        assert not dominates(b, a, objs)
        assert not dominates(a, a, objs)  # equal points never dominate

    def test_frontier(self):
        points = {
            "fast-unfair": {"ipc": 3.0, "gini": 0.5},
            "slow-fair": {"ipc": 1.0, "gini": 0.1},
            "dominated": {"ipc": 0.9, "gini": 0.6},
            "balanced": {"ipc": 2.0, "gini": 0.2},
        }
        frontier = pareto_frontier(points, self.objs())
        assert frontier == ["fast-unfair", "slow-fair", "balanced"]

    def test_single_objective_frontier_is_the_tied_best(self):
        points = {"a": {"ipc": 2.0}, "b": {"ipc": 2.0}, "c": {"ipc": 1.0}}
        assert pareto_frontier(points, [get_objective("ipc")]) == ["a", "b"]


class TestRungs:
    def test_default_ladders(self):
        assert [r.scale for r in default_rungs("tiny")] == ["tiny"]
        assert [r.scale for r in default_rungs("small")] == ["tiny", "small"]
        assert [r.scale for r in default_rungs("paper")] == ["tiny", "small", "paper"]

    def test_final_rung_is_uncapped_default(self):
        for scale in ("tiny", "small", "paper"):
            final = default_rungs(scale)[-1]
            assert final.max_cycles == DEFAULT_MAX_CYCLES
            assert final.config_overrides is None

    def test_lower_rungs_are_capped(self):
        rungs = default_rungs("paper")
        for rung in rungs[:-1]:
            assert rung.max_cycles < DEFAULT_MAX_CYCLES

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown scale"):
            default_rungs("huge")

    def test_plan_counts(self):
        assert plan_counts(27, 3, 3, 2) == [27, 9, 3]
        assert plan_counts(10, 3, 3, 2) == [10, 4, 2]
        assert plan_counts(2, 3, 3, 2) == [2, 2, 2]
        assert plan_counts(5, 1, 3, 2) == [5]


class TestWithRung:
    def test_keeps_fields_by_default(self):
        spec = RunSpec.create("amr", "rr", "dtbl", scale="small", config=TINY_CONFIG)
        assert spec.with_rung() == spec

    def test_scales_down(self):
        spec = RunSpec.create("amr", "rr", "dtbl", scale="small", config=TINY_CONFIG)
        rung = spec.with_rung(scale="tiny", max_cycles=1000)
        assert rung.scale == "tiny"
        assert rung.max_cycles == 1000
        assert rung.config_json == spec.config_json

    def test_none_max_cycles_means_uncapped(self):
        spec = RunSpec.create("amr", "rr", "dtbl", scale="tiny", config=TINY_CONFIG)
        assert spec.with_rung(max_cycles=None).max_cycles is None

    def test_config_overrides(self):
        spec = RunSpec.create("amr", "rr", "dtbl", scale="tiny", config=TINY_CONFIG)
        rung = spec.with_rung(config_overrides={"num_smx": 2})
        assert rung.gpu_config().num_smx == 2
        assert rung != spec

    def test_config_and_overrides_are_exclusive(self):
        spec = RunSpec.create("amr", "rr", "dtbl", scale="tiny", config=TINY_CONFIG)
        with pytest.raises(ValueError, match="either config or config_overrides"):
            spec.with_rung(config=TINY_CONFIG, config_overrides={"num_smx": 2})

    def test_identity_rung_shares_cache_key(self):
        spec = RunSpec.create("amr", "rr", "dtbl", scale="small", config=TINY_CONFIG)
        assert spec.with_rung().cache_key() == spec.cache_key()


class TestTune:
    def test_deterministic_under_fixed_seed(self):
        a = tiny_tune()
        b = tiny_tune()
        assert [r.name for r in a.leaderboard] == [r.name for r in b.leaderboard]
        assert [r.score for r in a.leaderboard] == [r.score for r in b.leaderboard]
        assert a.dropped == b.dropped
        assert a.evaluations == b.evaluations
        assert a.pareto == b.pareto

    def test_top_at_least_adaptive_bind(self):
        result = tiny_tune()
        adaptive = result.candidate(canonical_scheduler_name("adaptive-bind"))
        primary = get_objective(result.objective)
        assert primary.sort_key(result.best.score) >= primary.sort_key(adaptive.score)
        # protection guarantees adaptive-bind reaches the final leaderboard
        assert any(
            r.name == canonical_scheduler_name("adaptive-bind")
            for r in result.leaderboard
        )

    def test_warm_cache_rerun_runs_zero_engines(self, tmp_path, engine_runs):
        kwargs = dict(cache=str(tmp_path / "cache"))
        cold = tiny_tune(**kwargs)
        assert engine_runs["n"] > 0
        engine_runs["n"] = 0
        warm = tiny_tune(**kwargs)
        assert engine_runs["n"] == 0
        assert [r.name for r in warm.leaderboard] == [r.name for r in cold.leaderboard]
        assert [r.score for r in warm.leaderboard] == [r.score for r in cold.leaderboard]
        assert warm.evaluations == cold.evaluations

    def test_budget_trims_candidate_tail(self):
        result = tiny_tune(budget=20)
        assert result.evaluations <= 20
        assert result.dropped  # 28-candidate space cannot fit in 20 evals
        assert len(result.candidates) + len(result.dropped) == 28
        # protected candidates are never dropped
        for name in ("rr", "adaptive-bind"):
            assert canonical_scheduler_name(name) in result.candidates

    def test_budget_too_small_raises_with_minimum(self):
        with pytest.raises(ValueError, match="need at least"):
            tiny_tune(budget=2)

    def test_baseline_normalization_on_final_rung(self):
        result = tiny_tune()
        baseline_row = result.candidate(result.baseline)
        assert baseline_row.vs_baseline == pytest.approx(1.0)
        for row in result.leaderboard:
            assert row.vs_baseline is not None
        for row in result.eliminated:
            assert row.vs_baseline is None

    def test_baseline_spelling_is_canonicalized(self):
        result = tiny_tune(budget=12, candidates=["rr", "adaptive-bind"],
                           baseline="pri=fifo,bind=any")
        assert result.baseline == canonical_scheduler_name("rr")

    def test_explicit_candidates_deduped(self):
        smx_spec = resolve_scheduler("smx-bind")[1].canonical
        result = tiny_tune(budget=24, candidates=["smx-bind", smx_spec, "rr"])
        # the spelling variant of smx-bind collapses; rr + adaptive-bind
        # are injected as protected
        assert len(result.candidates) == 3

    def test_multi_rung_eliminates(self):
        rungs = [Rung(scale="tiny", max_cycles=1_000_000), Rung(scale="tiny")]
        result = tiny_tune(budget=40, rungs=rungs, eta=3)
        assert len(result.rungs) == 2
        assert result.eliminated  # halving dropped someone
        assert all(row.rung == 0 for row in result.eliminated)
        # every candidate is accounted for exactly once
        names = [r.name for r in result.leaderboard] + [r.name for r in result.eliminated]
        assert sorted(names) == sorted(result.candidates)

    def test_unknown_candidate_lookup_raises(self):
        result = tiny_tune(budget=12, candidates=["rr", "adaptive-bind"])
        with pytest.raises(KeyError, match="was not searched"):
            result.candidate("l2-bind")

    def test_no_benchmarks_rejected(self):
        with pytest.raises(ValueError, match="at least one benchmark"):
            tune([])

    def test_bad_eta_rejected(self):
        with pytest.raises(ValueError, match="eta must be >= 2"):
            tiny_tune(eta=1)

    def test_progress_events(self):
        sink = RecordingSink()
        rungs = [Rung(scale="tiny", max_cycles=1_000_000), Rung(scale="tiny")]
        result = tiny_tune(budget=40, rungs=rungs, telemetry=sink)
        events = [e for e in sink.events if isinstance(e, SearchProgress)]
        phases = [e.phase for e in events]
        assert phases == ["rung-start", "rung-end", "rung-start", "search-end"]
        assert events[-1].best == result.best.name
        assert events[-1].best_score == pytest.approx(result.best.score)
        assert events[-1].time == result.evaluations

    def test_shared_executor(self, tmp_path, engine_runs):
        executor = make_executor(jobs=1, cache=str(tmp_path / "c"), collect_telemetry=True)
        tiny_tune(executor=executor)
        ran = engine_runs["n"]
        assert ran > 0
        tiny_tune(executor=executor)
        assert engine_runs["n"] == ran  # second search fully cache-served


class TestReport:
    def test_json_roundtrip(self, tmp_path):
        result = tiny_tune(budget=12, candidates=["rr", "adaptive-bind"])
        path = tmp_path / "tune.json"
        write_tune(result, path)
        obj = json.loads(path.read_text())
        assert obj["best"] == result.best.name
        assert obj["objective"] == "ipc"
        assert [row["name"] for row in obj["leaderboard"]] == [
            r.name for r in result.leaderboard
        ]
        assert obj == tune_to_obj(result)

    def test_progress_printer_filters_other_events(self, capsys):
        import io

        from repro.telemetry.events import ChildLaunched

        buf = io.StringIO()
        sink = ProgressPrinter(buf)
        sink.emit(
            ChildLaunched(time=0, smx_id=0, parent_tb_id=1, kernel="k", num_tbs=2)
        )
        assert buf.getvalue() == ""
        sink.emit(
            SearchProgress(
                time=4, phase="rung-start", rung=0, scale="tiny",
                candidates=2, survivors=2, best="", best_score=0.0,
            )
        )
        assert "[tune] rung 0 (tiny) rung-start" in buf.getvalue()


class TestTuneCLI:
    def test_tune_smoke(self, capsys, tmp_path):
        code = __import__("repro.cli", fromlist=["main"]).main(
            [
                "tune", "amr",
                "--scale", "tiny",
                "--budget", "12",
                "--cache-dir", str(tmp_path / "cache"),
                "-o", str(tmp_path / "tune.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scheduler" in out and "vs rr" in out
        assert "pareto frontier" in out
        obj = json.loads((tmp_path / "tune.json").read_text())
        assert obj["best"] in obj["candidates"]

    def test_tune_unknown_benchmark_one_line_error(self, capsys):
        from repro.cli import main

        assert main(["tune", "nope", "--scale", "tiny", "--budget", "12"]) == 2
        err = capsys.readouterr().err
        assert "unknown benchmark" in err

    def test_tune_unknown_objective_one_line_error(self, capsys):
        from repro.cli import main

        code = main(
            ["tune", "amr", "--scale", "tiny", "--budget", "12",
             "--objective", "speed", "--no-cache"]
        )
        assert code == 2
        assert "unknown objective" in capsys.readouterr().err
