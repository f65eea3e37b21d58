"""Command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.harness.cache import ResultCache


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "bfs-citation"])
        assert args.scheduler == "adaptive-bind"
        assert args.model == "dtbl"
        assert args.scale == "small"

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nonexistent"])

    def test_grid_model_subset(self):
        args = build_parser().parse_args(["grid", "--models", "dtbl"])
        assert args.models == ["dtbl"]


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bfs-citation" in out
        assert "adaptive-bind" in out
        assert "dtbl" in out

    def test_config(self, capsys):
        assert main(["config"]) == 0
        out = capsys.readouterr().out
        assert "Kepler K20c" in out
        assert "Scaled machine" in out

    def test_run_tiny(self, capsys):
        assert main(["run", "bfs-citation", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "ipc=" in out

    def test_run_with_throttle_modifier(self, capsys):
        assert main(["run", "amr", "--scale", "tiny", "-s", "rr+throttle"]) == 0
        assert "ipc=" in capsys.readouterr().out

    def test_compare_tiny(self, capsys):
        assert main(["compare", "join-gaussian", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        for scheduler in ("rr", "tb-pri", "smx-bind", "adaptive-bind"):
            assert scheduler in out

    def test_grid_subset_tiny(self, capsys):
        code = main(
            ["grid", "--scale", "tiny", "--benchmarks", "amr", "--models", "dtbl"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out and "Figure 9" in out

    def test_grid_reports_cells_simulated_then_cached(self, capsys, tmp_path):
        argv = ["grid", "--scale", "tiny", "--benchmarks", "amr", "--models", "dtbl",
                "--schedulers", "rr", "adaptive-bind", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().err
        assert "grid: 0 of 2 cells from cache, 2 simulated" in cold
        assert "takes a few minutes" not in cold
        assert main(argv) == 0
        assert "grid: 2 of 2 cells from cache, 0 simulated" in capsys.readouterr().err

    def test_footprint_tiny(self, capsys):
        assert main(["footprint", "--scale", "tiny"]) == 0
        assert "parent-child" in capsys.readouterr().out


class TestDefaultCacheDir:
    def test_run_without_cache_dir_writes_to_session_cache(
        self, capsys, tmp_path, monkeypatch, hermetic_cache_dir
    ):
        """A bare ``repro run`` caches into ``$REPRO_CACHE_DIR``, which the
        autouse ``hermetic_cache_dir`` fixture points away from the
        working directory."""
        monkeypatch.chdir(tmp_path)
        cache = ResultCache(hermetic_cache_dir)
        before = set(cache.record_paths())
        # a seed no other test runs, so the record cannot exist yet
        assert main(["--seed", "23", "run", "amr", "--scale", "tiny", "-s", "rr"]) == 0
        assert "ipc=" in capsys.readouterr().out
        assert set(cache.record_paths()) - before
        assert list(tmp_path.iterdir()) == []


class TestNewCommands:
    def test_run_timeline(self, capsys):
        assert main(["run", "bfs-citation", "--scale", "tiny", "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "SMX0" in out

    def test_validate_tiny(self, capsys):
        code = main(["validate", "--scale", "tiny"])
        out = capsys.readouterr().out
        assert "SMX-Bind co-locates every child" in out
        assert code in (0, 1)  # tiny scale: shapes may be degenerate

    def test_validate_parser(self):
        args = build_parser().parse_args(["validate", "--scale", "small"])
        assert args.scale == "small"
        assert args.benchmark == "bfs-citation"


class TestTraceCommand:
    def test_trace_writes_valid_trace(self, capsys, tmp_path):
        import json

        from repro.harness.execution import RunSpec, run_spec
        from repro.harness.registry import experiment_config
        from repro.telemetry import validate_trace

        path = str(tmp_path / "t.json")
        assert main(["trace", "bfs-citation", "--scale", "tiny", "-o", path]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        # the printed figures are the stats of the same run, untraced
        stats = run_spec(RunSpec.create("bfs-citation", "adaptive-bind", "dtbl", scale="tiny"))
        assert (
            f"steals={stats.work_steals}  busy-cycle gini={stats.busy_cycles_gini:.3f}  "
            f"queue high water={stats.scheduler_queue_high_water}"
        ) in out.splitlines()
        trace = json.loads(open(path).read())
        assert validate_trace(trace) == []
        slice_tids = {e["tid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert slice_tids == set(range(experiment_config().num_smx))

    def test_trace_scheduler_flag(self, capsys, tmp_path):
        import json

        path = str(tmp_path / "rr.json")
        assert main(["trace", "amr", "--scale", "tiny", "-s", "rr", "-o", path]) == 0
        trace = json.loads(open(path).read())
        names = [e["name"] for e in trace["traceEvents"] if e["ph"] == "i"]
        assert not any(n == "steal" for n in names)  # rr never steals


class TestSnapshotCommand:
    def test_save_and_load_roundtrip(self, capsys, tmp_path):
        path = str(tmp_path / "t.trace")
        assert main(["snapshot", "amr", "--scale", "tiny", "-o", path]) == 0
        assert main(["snapshot", "--load", path]) == 0
        out = capsys.readouterr().out
        assert "ipc=" in out

    def test_load_format_1_file_one_line_error(self, capsys, tmp_path):
        import gzip

        path = tmp_path / "old.json.gz"
        path.write_bytes(gzip.compress(b'{"version": 1}'))
        assert main(["snapshot", "--load", str(path)]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        assert "format 1" in err and "re-snapshot" in err


class TestErrorExits:
    def test_trace_unknown_benchmark_one_line_error(self, capsys):
        code = main(["trace", "no-such-benchmark"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == "repro: error: unknown benchmark 'no-such-benchmark'"
        assert "Traceback" not in captured.err

    def test_validate_unknown_benchmark_one_line_error(self, capsys):
        code = main(["validate", "no-such-benchmark", "--scale", "tiny"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.strip().startswith("repro: error: unknown benchmark")

    def test_snapshot_without_benchmark(self, capsys):
        assert main(["snapshot"]) == 2
        assert "repro: error:" in capsys.readouterr().err


class TestCacheCommands:
    @staticmethod
    def _warm(tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(
            ["run", "amr", "--scale", "tiny", "--cache-dir", cache_dir]
        ) == 0
        return cache_dir

    def test_stats(self, capsys, tmp_path):
        cache_dir = self._warm(tmp_path)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert cache_dir in out
        assert "records" in out and "total bytes" in out
        assert "v4: 1" in out

    def test_stats_empty_dir(self, capsys, tmp_path):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "none")]) == 0
        assert "records          0" in capsys.readouterr().out

    def test_prune(self, capsys, tmp_path):
        cache_dir = self._warm(tmp_path)
        capsys.readouterr()
        assert main(["cache", "prune", "--max-bytes", "0", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "pruned 1 record(s)" in out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "records          0" in capsys.readouterr().out

    def test_prune_requires_max_bytes(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "prune"])

    def test_prune_bad_size_one_line_error(self, capsys, tmp_path):
        code = main(
            ["cache", "prune", "--max-bytes", "lots",
             "--cache-dir", str(tmp_path / "c")]
        )
        assert code == 2
        assert "bad size 'lots'" in capsys.readouterr().err

    def test_parse_bytes_suffixes(self):
        from repro.cli import _parse_bytes

        assert _parse_bytes("4096") == 4096
        assert _parse_bytes("64K") == 64 * 1024
        assert _parse_bytes("64m") == 64 * 1024**2
        assert _parse_bytes(" 2G ") == 2 * 1024**3
        with pytest.raises(ValueError, match="bad size"):
            _parse_bytes("1T")
        with pytest.raises(ValueError, match=">= 0"):
            _parse_bytes("-1")


class TestTuneParser:
    def test_defaults(self):
        args = build_parser().parse_args(["tune"])
        assert args.benchmarks == ["bfs-citation", "amr"]
        assert args.objective == "ipc"
        assert args.budget == 96
        assert args.eta == 3

    def test_pareto_and_candidates(self):
        args = build_parser().parse_args(
            ["tune", "amr", "--pareto", "gini", "--candidates", "rr", "smx-bind"]
        )
        assert args.pareto == ["gini"]
        assert args.candidates == ["rr", "smx-bind"]


class TestServiceCommands:
    def test_list_json_is_machine_readable(self, capsys):
        import json

        from repro.harness.registry import catalog_dict

        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == json.loads(json.dumps(catalog_dict()))
        assert "amr" in payload["benchmarks"]
        assert payload["scales"] == ["tiny", "small", "paper"]
        assert "launch_models" in payload and "spec_grammar" in payload

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8642
        assert args.jobs == 2
        assert args.queue_limit == 64
        assert args.deadline is None

    def test_submit_parser_defaults(self):
        args = build_parser().parse_args(["submit", "amr", "--scale", "tiny"])
        assert args.scheduler == "adaptive-bind"
        assert args.model == "dtbl"
        assert args.port == 8642
        assert not args.follow and not args.no_wait

    def test_submit_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "nonexistent"])

    def test_submit_connection_refused_is_clean_error(self, capsys):
        # port 1 is never listening; the CLI must exit 2 with one line
        code = main(["submit", "amr", "--scale", "tiny", "--port", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert "Traceback" not in err

    def test_submit_end_to_end_against_service_thread(self, tmp_path, capsys):
        from repro.service import ServiceThread

        with ServiceThread(jobs=1, cache_dir=tmp_path) as svc:
            code = main([
                "submit", "amr", "-s", "rr", "--scale", "tiny", "--seed", "55",
                "--port", str(svc.port),
            ])
            captured = capsys.readouterr()
            assert code == 0
            assert "cycles=" in captured.out
            assert "source=executed" in captured.err
            # resubmit: answered from the shared result cache
            code = main([
                "submit", "amr", "-s", "rr", "--scale", "tiny", "--seed", "55",
                "--port", str(svc.port),
            ])
            captured = capsys.readouterr()
            assert code == 0
            assert "source=cache" in captured.err
