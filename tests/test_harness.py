"""Harness: registry, grid runner, and report rendering."""

import pytest

from repro.analysis import analyze_footprint
from repro.gpu.config import GPUConfig
from repro.harness.execution import simulate
from repro.harness.registry import (
    BENCHMARKS,
    benchmark_names,
    experiment_config,
    iter_benchmarks,
    load_benchmark,
)
from repro.harness.report import (
    render_config,
    render_footprints,
    render_l1_hit_rates,
    render_l2_hit_rates,
    render_latency_sweep,
    render_normalized_ipc,
    render_table,
)
from repro.harness.runner import GridResult, run_grid
from tests.conftest import tiny_workload


class TestRegistry:
    def test_sixteen_benchmarks(self):
        assert len(BENCHMARKS) == 16

    def test_names_unique(self):
        names = benchmark_names()
        assert len(set(names)) == 16

    def test_load_benchmark_roundtrip(self):
        for name in ("bfs-citation", "amr", "join-gaussian"):
            w = load_benchmark(name, scale="tiny")
            assert w.full_name == name

    def test_load_unknown(self):
        with pytest.raises(ValueError):
            load_benchmark("bfs-twitter")

    def test_iter_benchmarks_covers_registry(self):
        names = [w.full_name for w in iter_benchmarks(scale="tiny")]
        assert names == benchmark_names()

    def test_experiment_config_shape(self):
        config = experiment_config()
        assert isinstance(config, GPUConfig)
        assert config.num_smx == 13

    def test_experiment_config_overrides(self):
        assert experiment_config(num_smx=4).num_smx == 4


class TestSimulate:
    def test_single_run(self):
        stats = simulate(tiny_workload("bfs", "citation").kernel(), "rr", "dtbl")
        assert stats.cycles > 0

    def test_default_config_used(self):
        stats = simulate(tiny_workload("amr").kernel())
        assert len(stats.per_smx_instructions) == 13


class TestGrid:
    @pytest.fixture(scope="class")
    def grid(self):
        workloads = [tiny_workload("bfs", "citation"), tiny_workload("join", "gaussian")]
        return run_grid(
            workloads,
            schedulers=("rr", "adaptive-bind"),
            models=("dtbl",),
            config=experiment_config(num_smx=4, max_threads_per_smx=256),
        )

    def test_all_cells_present(self, grid):
        assert len(grid.stats) == 2 * 2 * 1

    def test_normalized_ipc_baseline_is_one(self, grid):
        for b in grid.benchmarks:
            assert grid.normalized_ipc(b, "rr", "dtbl") == pytest.approx(1.0)

    def test_mean_metrics(self, grid):
        mean = grid.mean_normalized_ipc("adaptive-bind", "dtbl")
        assert mean > 0
        assert grid.mean_metric("rr", "dtbl", "l2_hit_rate") > 0

    def test_metric_accessor(self, grid):
        value = grid.metric(grid.benchmarks[0], "rr", "dtbl", "ipc")
        assert value == grid.get(grid.benchmarks[0], "rr", "dtbl").ipc

    def test_mean_metric_rejects_unknown_scheduler(self, grid):
        """A typo'd (scheduler, model) pair must raise, not return 0.0."""
        with pytest.raises(KeyError, match="unknown scheduler 'adaptive'.*rr"):
            grid.mean_metric("adaptive", "dtbl", "ipc")
        with pytest.raises(KeyError, match="unknown model 'dtlb'.*dtbl"):
            grid.mean_normalized_ipc("adaptive-bind", "dtlb")

    def test_mean_normalized_ipc_rejects_unknown_baseline(self, grid):
        with pytest.raises(KeyError, match="unknown scheduler 'fcfs'"):
            grid.mean_normalized_ipc("adaptive-bind", "dtbl", baseline="fcfs")

    def test_get_rejects_unknown_benchmark(self, grid):
        with pytest.raises(KeyError, match="unknown benchmark 'bfs-twitter'"):
            grid.get("bfs-twitter", "rr", "dtbl")

    def test_get_accepts_grammar_spellings(self, grid):
        """Grids are keyed by canonical label, but any spelling of the
        same policy must resolve to the same cell."""
        from repro.core.components import resolve_scheduler

        spec = resolve_scheduler("adaptive-bind")[1].canonical
        b = grid.benchmarks[0]
        assert grid.get(b, spec, "dtbl") is grid.get(b, "adaptive-bind", "dtbl")

    def test_missing_cell_names_available_keys(self, grid):
        """A valid-but-absent cell must name what the grid does hold,
        not claim the key is unknown."""
        sparse = GridResult(schedulers=["rr"], models=["dtbl"], benchmarks=["amr"])
        with pytest.raises(KeyError, match=r"no result for.*'amr'.*\['rr'\].*\['dtbl'\]"):
            sparse.get("amr", "rr", "dtbl")


class TestReports:
    @pytest.fixture(scope="class")
    def grid(self):
        return run_grid(
            [tiny_workload("bfs", "citation")],
            schedulers=("rr", "tb-pri"),
            models=("dtbl",),
            config=experiment_config(num_smx=4, max_threads_per_smx=256),
        )

    def test_render_table(self):
        text = render_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        assert "T" in text and "333" in text

    def test_render_config(self):
        text = render_config(experiment_config())
        assert "Table I" in text and "SMXs" in text

    def test_render_footprints(self):
        results = {"bfs-citation": analyze_footprint(tiny_workload("bfs", "citation").kernel())}
        text = render_footprints(results)
        assert "parent-child" in text and "AVERAGE" in text

    def test_render_figures(self, grid):
        assert "Figure 7" in render_l2_hit_rates(grid)
        assert "Figure 8" in render_l1_hit_rates(grid)
        fig9 = render_normalized_ipc(grid)
        assert "Figure 9" in fig9 and "MEAN" in fig9

    def test_render_latency_sweep(self):
        text = render_latency_sweep([(250, 1.2, 100.0), (4000, 1.05, 900.0)])
        assert "250" in text and "1.200" in text


class TestSeedSweep:
    def test_runs_and_aggregates(self):
        from repro.harness.runner import run_seed_sweep

        r = run_seed_sweep(
            "amr", "tb-pri", seeds=(1, 2), scale="tiny",
            config=experiment_config(num_smx=4, max_threads_per_smx=256),
        )
        assert len(r.speedups) == 2
        assert r.min <= r.mean <= r.max
        assert r.std >= 0.0

    def test_empty_statistics(self):
        from repro.harness.runner import SeedSweepResult

        r = SeedSweepResult("x", "dtbl", ())
        assert r.mean == r.std == r.min == r.max == 0.0

    def test_single_seed_std_zero(self):
        from repro.harness.runner import SeedSweepResult

        r = SeedSweepResult("x", "dtbl", (1.2,))
        assert r.std == 0.0
        assert r.mean == 1.2


class TestExport:
    @pytest.fixture(scope="class")
    def grid(self):
        return run_grid(
            [tiny_workload("amr")],
            schedulers=("rr", "adaptive-bind"),
            models=("dtbl",),
            config=experiment_config(num_smx=4, max_threads_per_smx=256),
        )

    def test_records_complete(self, grid):
        from repro.harness.export import METRICS, grid_records

        records = grid_records(grid)
        assert len(records) == 2
        for record in records:
            for metric in METRICS:
                assert metric in record
            assert "normalized_ipc" in record

    def test_json_roundtrip(self, grid):
        import json as json_mod

        from repro.harness.export import grid_to_json

        parsed = json_mod.loads(grid_to_json(grid))
        assert parsed[0]["benchmark"] == "amr"

    def test_csv_shape(self, grid):
        from repro.harness.export import grid_to_csv

        lines = grid_to_csv(grid).strip().splitlines()
        assert len(lines) == 3  # header + 2 records
        assert lines[0].startswith("benchmark,scheduler,model")

    def test_write_grid(self, grid, tmp_path):
        from repro.harness.export import write_grid

        path = tmp_path / "out.json"
        write_grid(grid, str(path))
        assert path.exists()
        with pytest.raises(ValueError):
            write_grid(grid, str(tmp_path / "out.xlsx"))

    def test_empty_csv(self):
        from repro.harness.export import grid_to_csv

        assert grid_to_csv(GridResult(schedulers=[], models=[])) == ""

    def test_csv_quotes_awkward_benchmark_names(self):
        """Commas and spaces in benchmark names must not shift columns."""
        import csv as csv_mod
        import io

        from repro.gpu.stats import SimStats
        from repro.harness.export import METRICS, grid_to_csv

        names = ["join, uniform (v2)", "my custom bench"]
        grid = GridResult(schedulers=["rr"], models=["dtbl"], benchmarks=list(names))
        for name in names:
            grid.stats[(name, "rr", "dtbl")] = SimStats(cycles=100, instructions=250)
        rows = list(csv_mod.reader(io.StringIO(grid_to_csv(grid))))
        assert len(rows) == 3
        expected_fields = 3 + len(METRICS) + 1  # keys + metrics + normalized_ipc
        assert all(len(row) == expected_fields for row in rows)
        assert sorted(row[0] for row in rows[1:]) == sorted(names)

    def test_stats_roundtrip_through_export_dicts(self):
        """SimStats -> to_dict -> from_dict preserves every metric."""
        from repro.gpu.stats import SimStats
        from repro.harness.export import stats_record

        workloads = [tiny_workload("bfs", "citation")]
        grid = run_grid(
            workloads,
            schedulers=("rr",),
            models=("dtbl",),
            config=experiment_config(num_smx=4, max_threads_per_smx=256),
        )
        stats = grid.get(workloads[0].full_name, "rr", "dtbl")
        clone = SimStats.from_dict(stats.to_dict())
        assert clone == stats
        assert clone.summary() == stats.summary()
        assert stats_record(clone) == stats_record(stats)
