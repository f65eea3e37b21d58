"""RunSpec execution layer: dedup, process parallelism, result caching.

Includes the determinism acceptance proof: for a 2-benchmark tiny grid,
serial, parallel (jobs=4) and warm-cache executions produce identical
``grid_to_json`` output; a warm-cache rerun constructs zero engines; and
changing the config fingerprint invalidates the cache.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.gpu.engine import Engine
from repro.gpu.serialize import config_fingerprint
from repro.harness.cache import ResultCache
from repro.harness.execution import (
    ENGINE_VERSION,
    ParallelExecutor,
    RunSpec,
    SerialExecutor,
    make_executor,
)
from repro.harness.export import grid_to_json
from repro.harness.registry import experiment_config, load_benchmark
from repro.harness.runner import run_grid, run_latency_sweep, run_seed_sweep
from tests.fault_injection import (
    SLOW_LOG_ENV,
    kill_first_busy_worker,
    logged_jobs,
    slow_worker_run,
)

TINY_CONFIG = experiment_config(num_smx=4, max_threads_per_smx=256)
GRID_KWARGS = dict(schedulers=("rr", "adaptive-bind"), models=("dtbl",), config=TINY_CONFIG)


def tiny_workloads():
    return [
        load_benchmark("amr", scale="tiny"),
        load_benchmark("join-gaussian", scale="tiny"),
    ]


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


class TestRunSpec:
    def test_hashable_and_equal(self):
        a = RunSpec.create("amr", "rr", "dtbl", scale="tiny", config=TINY_CONFIG)
        b = RunSpec.create("amr", "rr", "dtbl", scale="tiny", config=TINY_CONFIG)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_default_config_normalizes(self):
        assert RunSpec("amr", "rr", "dtbl") == RunSpec.create("amr", "rr", "dtbl")
        assert RunSpec("amr", "rr", "dtbl").gpu_config() == experiment_config()

    def test_dict_roundtrip(self):
        spec = RunSpec.create(
            "bfs-citation", "tb-pri", "cdp", scale="tiny", seed=3,
            config=TINY_CONFIG, max_cycles=None,
        )
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.max_cycles is None
        assert json.dumps(spec.to_dict())  # JSON-safe

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown RunSpec fields"):
            RunSpec.from_dict({"benchmark": "amr", "scheduler": "rr", "model": "dtbl", "gpu": 1})

    def test_gpu_config_roundtrip(self):
        spec = RunSpec.create("amr", "rr", "dtbl", config=TINY_CONFIG)
        assert spec.gpu_config() == TINY_CONFIG

    def test_fingerprint_tracks_config(self):
        a = RunSpec.create("amr", "rr", "dtbl", config=TINY_CONFIG)
        b = RunSpec.create("amr", "rr", "dtbl", config=TINY_CONFIG.with_overrides(num_smx=8))
        assert a.config_fingerprint != b.config_fingerprint
        assert a.config_fingerprint == config_fingerprint(TINY_CONFIG)

    def test_cache_key_covers_every_field(self):
        base = RunSpec.create("amr", "rr", "dtbl", scale="tiny", config=TINY_CONFIG)
        variants = [
            RunSpec.create("bht", "rr", "dtbl", scale="tiny", config=TINY_CONFIG),
            RunSpec.create("amr", "tb-pri", "dtbl", scale="tiny", config=TINY_CONFIG),
            RunSpec.create("amr", "rr", "cdp", scale="tiny", config=TINY_CONFIG),
            RunSpec.create("amr", "rr", "dtbl", scale="small", config=TINY_CONFIG),
            RunSpec.create("amr", "rr", "dtbl", scale="tiny", seed=9, config=TINY_CONFIG),
            RunSpec.create("amr", "rr", "dtbl", scale="tiny", config=TINY_CONFIG, max_cycles=10),
        ]
        keys = {base.cache_key()} | {v.cache_key() for v in variants}
        assert len(keys) == len(variants) + 1

    def test_cache_key_is_stable(self):
        # a literal address: any change to the spec's fields or their
        # encoding sends every stored result cold, so it must be deliberate
        spec = RunSpec(
            benchmark="bfs-citation", scheduler="adaptive-bind", model="dtbl", scale="tiny", seed=7
        )
        assert spec.cache_key() == (
            "80604c6d96e111c181405e92ccc3373a628d9c9de250cb05de1b3d9acbc2a7eb"
        )


class TestResultCache:
    def test_store_load_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        record = {"spec": {"x": 1}, "stats": {"cycles": 5}}
        assert cache.load(key) is None
        cache.store(key, record)
        assert cache.load(key) == record
        assert len(cache) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_record_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "1" * 62
        cache.store(key, {"ok": True})
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        assert cache.load(key) is None

    def test_rejects_path_like_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        for bad in ("", "../evil", "a/b", "x.json"):
            with pytest.raises(ValueError):
                cache.path_for(bad)

    def test_missing_root_is_empty(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert len(cache) == 0
        assert cache.load("ee" + "2" * 62) is None

    @staticmethod
    def _fill(cache, n, version=2):
        keys = [f"{i:02x}" + f"{i:062x}" for i in range(n)]
        for key in keys:
            cache.store(key, {"engine_version": version, "stats": {"i": key}})
        return keys

    def test_disk_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, 3)
        cache.store("aa" + "3" * 62, {"stats": {}})  # no engine_version
        stats = cache.disk_stats()
        assert stats["records"] == 4
        assert stats["total_bytes"] == sum(p.stat().st_size for p in cache.record_paths())
        assert stats["engine_versions"] == {"2": 3, "unknown": 1}
        assert stats["root"] == str(tmp_path)

    def test_disk_stats_count_what_prune_frees(self, tmp_path):
        cache = ResultCache(tmp_path)
        (key,) = self._fill(cache, 1)
        corrupt = cache.path_for("ff" + "0" * 62)
        corrupt.parent.mkdir()
        corrupt.write_text("{not json", encoding="utf-8")
        stats = cache.disk_stats()
        assert stats["records"] == 2
        assert stats["engine_versions"] == {"2": 1}  # only the record that parses
        assert cache.prune(0) == (2, stats["total_bytes"])

    def test_disk_stats_empty(self, tmp_path):
        stats = ResultCache(tmp_path / "nothing").disk_stats()
        assert stats["records"] == 0
        assert stats["total_bytes"] == 0
        assert stats["engine_versions"] == {}

    def test_prune_evicts_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = self._fill(cache, 4)
        # age the records deterministically: keys[0] oldest
        for age, key in enumerate(keys):
            path = cache.path_for(key)
            ts = 1_000_000_000 + age
            os.utime(path, (ts, ts))
        sizes = {key: cache.path_for(key).stat().st_size for key in keys}
        keep_two = sizes[keys[2]] + sizes[keys[3]]
        removed, freed = cache.prune(keep_two)
        assert removed == 2
        assert freed == sizes[keys[0]] + sizes[keys[1]]
        assert cache.load(keys[0]) is None
        assert cache.load(keys[3]) is not None
        assert cache.disk_stats()["total_bytes"] <= keep_two

    def test_prune_noop_when_under_cap(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, 2)
        assert cache.prune(10**9) == (0, 0)
        assert len(cache) == 2

    def test_prune_to_zero_removes_shards(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, 3)
        removed, _ = cache.prune(0)
        assert removed == 3
        assert len(cache) == 0
        assert not any(p.is_dir() for p in tmp_path.iterdir())

    def test_prune_rejects_negative_cap(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes must be >= 0"):
            ResultCache(tmp_path).prune(-1)


class TestExecutors:
    def test_dedupes_identical_specs(self, engine_runs):
        spec = RunSpec.create("amr", "rr", "dtbl", scale="tiny", config=TINY_CONFIG)
        results = SerialExecutor().run([spec, spec, spec])
        assert engine_runs["n"] == 1
        assert list(results) == [spec]
        assert results[spec].cycles > 0

    def test_cache_hit_skips_simulation(self, tmp_path, engine_runs):
        spec = RunSpec.create("amr", "rr", "dtbl", scale="tiny", config=TINY_CONFIG)
        cold = make_executor(cache=ResultCache(tmp_path))
        first = cold.run_one(spec)
        assert engine_runs["n"] == 1
        warm = make_executor(cache=ResultCache(tmp_path))
        second = warm.run_one(spec)
        assert engine_runs["n"] == 1  # no new engine
        assert warm.hits == 1
        assert second.to_dict() == first.to_dict()

    def test_engine_version_mismatch_invalidates(self, tmp_path, engine_runs):
        spec = RunSpec.create("amr", "rr", "dtbl", scale="tiny", config=TINY_CONFIG)
        cache = ResultCache(tmp_path)
        make_executor(cache=cache).run_one(spec)
        record = cache.load(spec.cache_key())
        record["engine_version"] = ENGINE_VERSION + 1
        cache.store(spec.cache_key(), record)
        executor = make_executor(cache=cache)
        executor.run_one(spec)
        assert executor.misses == 1
        assert engine_runs["n"] == 2

    def test_record_with_a_telemetry_key_still_hits(self, tmp_path, engine_runs):
        spec = RunSpec.create("amr", "rr", "dtbl", scale="tiny", config=TINY_CONFIG)
        cache = ResultCache(tmp_path)
        stats = make_executor(cache=cache).run_one(spec)
        record = cache.load(spec.cache_key())
        assert sorted(record) == ["engine_version", "spec", "stats"]
        # earlier versions could add a "telemetry" summary beside the
        # stats; such a record answers as a hit with the same stats
        record["telemetry"] = {
            "tbs_dispatched": stats.tbs_dispatched,
            "work_steals": stats.work_steals,
            "steal_rate": 0.0,
            "queue_overflows": 0,
            "child_launches": stats.launches,
            "queued_tbs_high_water": 0.0,
            "busy_cycles_gini": stats.busy_cycles_gini,
            "queue_entry_high_water": stats.scheduler_queue_high_water,
            "scheduler": "rr",
        }
        cache.store(spec.cache_key(), record)
        executor = make_executor(cache=cache)
        assert executor.run_one(spec).to_dict() == stats.to_dict()
        assert executor.hits == 1 and executor.misses == 0
        assert engine_runs["n"] == 1

    def test_make_executor_selects_strategy(self, tmp_path):
        assert isinstance(make_executor(), SerialExecutor)
        assert isinstance(make_executor(jobs=4), ParallelExecutor)
        assert make_executor(cache=str(tmp_path)).cache is not None
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=0)


class TestGridDeterminism:
    """The acceptance proof from ISSUE 1."""

    def test_serial_parallel_and_cache_are_byte_identical(self, tmp_path, engine_runs):
        workloads = tiny_workloads()
        serial = grid_to_json(run_grid(workloads, **GRID_KWARGS))
        runs_serial = engine_runs["n"]
        assert runs_serial == 4  # 2 benchmarks x 2 schedulers x 1 model

        parallel = grid_to_json(run_grid(workloads, **GRID_KWARGS, jobs=4))
        assert parallel == serial

        cache = ResultCache(tmp_path)
        cold = grid_to_json(run_grid(workloads, **GRID_KWARGS, cache=cache))
        assert cold == serial

        engine_runs["n"] = 0
        warm = grid_to_json(run_grid(workloads, **GRID_KWARGS, cache=cache))
        assert warm == serial
        assert engine_runs["n"] == 0  # fully answered from the cache

    def test_config_change_invalidates_cache(self, tmp_path, engine_runs):
        workloads = tiny_workloads()
        cache = ResultCache(tmp_path)
        run_grid(workloads, **GRID_KWARGS, cache=cache)
        baseline_runs = engine_runs["n"]

        other = TINY_CONFIG.with_overrides(dtbl_launch_latency=999)
        run_grid(
            workloads,
            schedulers=GRID_KWARGS["schedulers"],
            models=GRID_KWARGS["models"],
            config=other,
            cache=cache,
        )
        assert engine_runs["n"] == 2 * baseline_runs  # every cell re-simulated


class TestSweepComposition:
    def test_seed_sweep_baseline_short_circuits(self, engine_runs):
        """Regression: scheduler == baseline used to simulate every seed
        twice and report speedups of exactly 1.0 at double the cost."""
        result = run_seed_sweep(
            "amr", "rr", baseline="rr", seeds=(1, 2), scale="tiny", config=TINY_CONFIG
        )
        assert result.speedups == (1.0, 1.0)
        assert engine_runs["n"] == 2  # one simulation per seed, not two

    def test_seed_sweep_runs_baseline_once_per_seed(self, engine_runs):
        run_seed_sweep(
            "amr", "tb-pri", seeds=(1, 2), scale="tiny", config=TINY_CONFIG
        )
        assert engine_runs["n"] == 4  # (baseline + subject) x 2 seeds

    def test_seed_sweep_with_cache_shares_baseline_across_subjects(self, tmp_path, engine_runs):
        cache = ResultCache(tmp_path)
        run_seed_sweep(
            "amr", "tb-pri", seeds=(1, 2), scale="tiny", config=TINY_CONFIG, cache=cache
        )
        assert engine_runs["n"] == 4
        run_seed_sweep(
            "amr", "adaptive-bind", seeds=(1, 2), scale="tiny", config=TINY_CONFIG, cache=cache
        )
        assert engine_runs["n"] == 6  # only the two new subject runs

    def test_latency_sweep_rows(self):
        rows = run_latency_sweep("amr", (250, 4000), scale="tiny", config=TINY_CONFIG)
        assert [latency for latency, _, _ in rows] == [250, 4000]
        for _, speedup, wait in rows:
            assert speedup > 0
            assert wait >= 0


# -- concurrent writers ------------------------------------------------------


class TestResultCacheConcurrency:
    """Many writers racing on the same key must never corrupt a record
    or leak temp files (the service's coalescing makes this routine)."""

    def test_same_key_thread_storm(self, tmp_path):
        import threading

        cache = ResultCache(tmp_path)
        key = "aa" + "7" * 62
        barrier = threading.Barrier(8)
        errors = []

        def writer(i):
            try:
                barrier.wait()
                for _ in range(25):
                    cache.store(key, {"engine_version": 2, "stats": {"writer": i}})
            except Exception as exc:  # pragma: no cover - the failure under test
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        record = cache.load(key)
        assert record is not None and record["engine_version"] == 2
        assert not list(tmp_path.rglob("*.tmp")), "leaked temp files"

    def test_atomic_write_cleans_up_on_failure(self, tmp_path):
        from repro.harness.cache import atomic_write_bytes

        target = tmp_path / "out.json"
        atomic_write_bytes(target, b"{}")
        assert target.read_text(encoding="utf-8") == "{}"
        assert not list(tmp_path.glob(".*tmp"))


# -- worker crash recovery ---------------------------------------------------

_REAL_WORKER_RUN = None  # set by the fixture; module-level for picklability


def _crash_once_worker_run(payload):
    """Claims the flag file exactly once and dies; runs normally after."""
    flag = os.environ.get("REPRO_TEST_CRASH_FLAG", "")
    if flag:
        try:
            os.unlink(flag)  # atomic claim: exactly one worker wins
        except FileNotFoundError:
            pass
        else:
            os._exit(1)
    return _REAL_WORKER_RUN(payload)


def _always_crash_worker_run(payload):
    os._exit(1)


class TestParallelCrashRecovery:
    """ParallelExecutor retries specs lost to a broken pool exactly once."""

    @staticmethod
    def _specs(n=4):
        return [
            RunSpec.create("amr", "rr", "dtbl", scale="tiny", seed=seed, config=TINY_CONFIG)
            for seed in range(1, n + 1)
        ]

    def test_single_crash_is_retried_transparently(self, tmp_path, monkeypatch):
        from repro.harness import execution

        global _REAL_WORKER_RUN
        _REAL_WORKER_RUN = execution._worker_run
        flag = tmp_path / "crash-once"
        flag.write_text("armed", encoding="utf-8")
        monkeypatch.setenv("REPRO_TEST_CRASH_FLAG", str(flag))
        monkeypatch.setattr(execution, "_worker_run", _crash_once_worker_run)

        specs = self._specs()
        results = ParallelExecutor(jobs=2).run(specs)
        assert len(results) == len(specs)
        assert not flag.exists(), "the crash flag was never claimed"
        expected = SerialExecutor().run(specs)
        assert {s: r.cycles for s, r in results.items()} == {
            s: r.cycles for s, r in expected.items()
        }

    def test_double_crash_names_the_failing_specs(self, monkeypatch):
        from repro.harness import execution

        monkeypatch.delenv("REPRO_TEST_CRASH_FLAG", raising=False)
        monkeypatch.setattr(execution, "_worker_run", _always_crash_worker_run)

        specs = self._specs()
        with pytest.raises(RuntimeError, match="crashed twice") as err:
            ParallelExecutor(jobs=2).run(specs)
        assert "amr/rr/dtbl" in str(err.value)

    def test_outside_sigkill_of_a_busy_worker_is_retried(self, tmp_path, monkeypatch):
        import multiprocessing

        from repro.harness import execution

        log = tmp_path / "jobs.log"
        monkeypatch.setenv(SLOW_LOG_ENV, str(log))
        monkeypatch.setattr(execution, "_worker_run", slow_worker_run)

        specs = self._specs()
        killer = kill_first_busy_worker(log, delay=0.2)
        results = ParallelExecutor(jobs=2).run(specs)
        killer.join(timeout=5)
        # four jobs, one of them started twice: the kill hit a busy worker
        assert len(logged_jobs(log)) == len(specs) + 1
        expected = SerialExecutor().run(specs)
        assert {s: r.to_dict() for s, r in results.items()} == {
            s: r.to_dict() for s, r in expected.items()
        }
        assert multiprocessing.active_children() == []
