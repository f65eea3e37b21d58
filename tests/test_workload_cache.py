"""The content-addressed on-disk workload cache.

Pins the end-to-end property the harness optimization promises: once a
workload trace is stored, a warm ``repro grid`` (cold in-memory caches,
cold *result* cache) executes **zero** datagen steps, and the simulated
statistics are bit-for-bit identical to a freshly generated run.
"""

import asyncio
import errno
import gzip
import json
import os
import shutil
import struct
import zlib

import pytest

import repro.harness.registry as registry
from repro.gpu import serialize
from repro.gpu.kernel import KernelSpec
from repro.gpu.trace import walk_bodies
from repro.harness import execution
from repro.harness import workload_cache as wc
from repro.harness.cache import ResultCache
from repro.harness.execution import (
    _KERNEL_CACHE,
    ParallelExecutor,
    RunSpec,
    SerialExecutor,
    kernel_for,
    make_executor,
    run_spec,
    seed_kernel_cache,
)
from repro.harness.export import grid_to_json
from repro.harness.registry import load_benchmark
from repro.harness.runner import run_grid
from repro.harness.workload_cache import TRACE_VERSION, WorkloadCache
from repro.gpu.serialize import stats_from_obj, stats_to_obj
from repro.service import DONE, Broker, WorkerFleet
from tests.test_serialize import traces_equal

BENCH = "join-uniform"
SPEC = RunSpec(benchmark=BENCH, scheduler="rr", model="dtbl", scale="tiny", seed=7)


@pytest.fixture(autouse=True)
def _isolated_caches():
    """Tests own the in-memory kernel LRU."""
    saved_kernels = dict(_KERNEL_CACHE)
    _KERNEL_CACHE.clear()
    try:
        yield
    finally:
        _KERNEL_CACHE.clear()
        _KERNEL_CACHE.update(saved_kernels)


# --- unit: keys, files, maintenance ------------------------------------------


def test_key_is_deterministic_and_version_sensitive(monkeypatch):
    key = WorkloadCache.key_for(BENCH, "tiny", 7)
    assert key == WorkloadCache.key_for(BENCH, "tiny", 7)
    assert key != WorkloadCache.key_for(BENCH, "tiny", 8)
    assert key != WorkloadCache.key_for(BENCH, "small", 7)
    monkeypatch.setattr(wc, "TRACE_VERSION", TRACE_VERSION + 1)
    assert key != WorkloadCache.key_for(BENCH, "tiny", 7)


def test_path_for_rejects_traversal(tmp_path):
    cache = WorkloadCache(tmp_path)
    for bad in ("", "../x", "a.b", "a/b"):
        with pytest.raises(ValueError):
            cache.path_for(bad)


def test_roundtrip_preserves_simulated_stats(tmp_path):
    cache = WorkloadCache(tmp_path)
    assert cache.load(BENCH, "tiny", 7) is None  # cold
    built = load_benchmark(BENCH, scale="tiny", seed=7).kernel()
    cache.store(BENCH, "tiny", 7, built)
    loaded = cache.load(BENCH, "tiny", 7)
    assert loaded is not None and loaded is not built
    assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1

    def stats_for(spec):
        from repro.harness.execution import simulate

        return stats_to_obj(simulate(spec, "adaptive-bind", "dtbl"))

    assert stats_for(loaded) == stats_for(built)


def test_corrupt_record_is_a_miss(tmp_path):
    cache = WorkloadCache(tmp_path)
    built = load_benchmark(BENCH, scale="tiny", seed=7).kernel()
    cache.store(BENCH, "tiny", 7, built)
    path = cache.path_for(cache.key_for(BENCH, "tiny", 7))
    path.write_bytes(b"not a gzip trace")
    assert cache.load(BENCH, "tiny", 7) is None


def _payload_edit(cut):
    """Truncate the decompressed body at ``cut(body, header_end)`` and
    recompress it, so the record is a well-formed zlib stream whose
    content stops early."""

    def edit(data: bytes) -> bytes:
        body = zlib.decompress(data[12:])
        (length,) = struct.unpack_from("<Q", body)
        return data[:12] + zlib.compress(body[: cut(body, 8 + length)])

    return edit


def _flip(data: bytes) -> bytes:
    middle = 12 + (len(data) - 12) // 2
    return data[:middle] + bytes([data[middle] ^ 0xFF]) + data[middle + 1:]


def _format_1(data: bytes) -> bytes:
    return gzip.compress(json.dumps({"version": 1, "name": BENCH}).encode())


RECORD_FAULTS = {
    "cut-in-magic": lambda data: data[:5],
    "cut-in-version": lambda data: data[:10],
    "cut-mid-stream": lambda data: data[: len(data) // 2],
    "cut-last-byte": lambda data: data[:-1],
    "cut-in-header": _payload_edit(lambda body, header_end: header_end // 2),
    "cut-mid-column": _payload_edit(lambda body, header_end: header_end + 13),
    "cut-last-payload-byte": _payload_edit(lambda body, header_end: len(body) - 1),
    "flipped-byte": _flip,
    "wrong-magic": lambda data: b"XXXXXXXX" + data[8:],
    "format-1-gzip-json": _format_1,
    "empty": lambda data: b"",
}


@pytest.mark.parametrize("fault", sorted(RECORD_FAULTS))
def test_damaged_record_is_a_miss_that_regenerates(tmp_path, fault):
    built = load_benchmark(BENCH, scale="tiny", seed=7).kernel()
    cache = WorkloadCache(tmp_path)
    cache.store(BENCH, "tiny", 7, built)
    path = cache.path_for(cache.key_for(BENCH, "tiny", 7))
    path.write_bytes(RECORD_FAULTS[fault](path.read_bytes()))

    assert cache.load(BENCH, "tiny", 7) is None
    assert cache.misses == 1
    regenerated = kernel_for(BENCH, "tiny", 7, disk=cache)
    assert traces_equal(regenerated, built)
    assert cache.stores == 2  # the damaged record was overwritten
    assert traces_equal(cache.load(BENCH, "tiny", 7), built)


def test_struct_error_is_a_miss(tmp_path, monkeypatch):
    def short_read(path):
        raise struct.error("unpack requires a buffer of 8 bytes")

    monkeypatch.setattr(serialize, "load_spec", short_read)
    cache = WorkloadCache(tmp_path)
    assert cache.load(BENCH, "tiny", 7) is None and cache.misses == 1


class _FullDiskForTraces:
    """A file handle whose writes of trace records fail with ENOSPC."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, data):
        if bytes(data[:8]) == serialize._MAGIC:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.handle.write(data)


def test_failed_trace_store_does_not_fail_the_run(tmp_path, monkeypatch, capsys):
    grid_args = dict(schedulers=("rr", "adaptive-bind"), models=("dtbl",), scale="tiny")
    expected = run_grid(
        [load_benchmark(BENCH, scale="tiny", seed=7)],
        executor=make_executor(jobs=1, cache=ResultCache(tmp_path / "ok")),
        **grid_args,
    )
    _KERNEL_CACHE.clear()
    capsys.readouterr()

    real_fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda fd, mode: _FullDiskForTraces(real_fdopen(fd, mode)))
    executor = make_executor(jobs=1, cache=ResultCache(tmp_path / "full"))
    failed = run_grid([load_benchmark(BENCH, scale="tiny", seed=7)], executor=executor, **grid_args)
    kernel_for(BENCH, "tiny", 8, disk=executor.workload_cache)  # a second failed store warns no more

    assert grid_to_json(failed) == grid_to_json(expected)
    disk = executor.workload_cache
    assert disk.store_errors == 2 and disk.stores == 0
    assert list((tmp_path / "full").rglob("*.tmp")) == []
    assert len(disk) == 0
    err = capsys.readouterr().err
    path = disk.path_for(disk.key_for(BENCH, "tiny", 7))
    assert err.count("warning: workload trace not cached") == 1
    assert str(path) in err and f"errno {errno.ENOSPC}" in err


class _FullDisk(_FullDiskForTraces):
    """A file handle on a full disk: every write fails with ENOSPC."""

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


async def _broker_run(cache, specs):
    fleet = WorkerFleet(1)
    await fleet.start()
    broker = Broker(fleet, cache)
    await broker.start()
    jobs = [broker.submit(spec) for spec in specs]
    await broker.drain()
    await broker.shutdown()
    assert [job.state for job in jobs] == [DONE] * len(specs)
    return {job.spec: stats_from_obj(job.stats_obj) for job in jobs}


@pytest.mark.parametrize("path", ["serial", "parallel", "broker"])
def test_full_disk_keeps_computed_results(tmp_path, monkeypatch, capsys, path):
    specs = [
        RunSpec(benchmark=BENCH, scheduler=s, model="dtbl", scale="tiny", seed=7)
        for s in ("rr", "adaptive-bind")
    ]
    expected = SerialExecutor().run(specs)
    _KERNEL_CACHE.clear()
    capsys.readouterr()

    real_fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda fd, mode: _FullDisk(real_fdopen(fd, mode)))
    cache = ResultCache(tmp_path)
    if path == "broker":
        results = asyncio.run(_broker_run(cache, specs))
    else:
        executor = SerialExecutor(cache) if path == "serial" else ParallelExecutor(2, cache)
        results = executor.run(specs)

    assert {s: stats_to_obj(r) for s, r in results.items()} == {
        s: stats_to_obj(r) for s, r in expected.items()
    }
    assert cache.store_errors == 2 and cache.stores == 0 and len(cache) == 0
    assert list(tmp_path.rglob("*.tmp")) == []
    err = capsys.readouterr().err
    assert err.count("warning: result not cached") == 1
    assert str(cache.path_for(specs[0].cache_key())) in err
    assert f"errno {errno.ENOSPC}" in err


def test_a_service_worker_warns_once_for_its_failed_trace_stores(tmp_path, monkeypatch, capfd):
    # each job has its own seed, so each builds a trace and tries to store it
    specs = [
        RunSpec(benchmark=BENCH, scheduler="rr", model="dtbl", scale="tiny", seed=seed)
        for seed in (21, 22, 23)
    ]
    _KERNEL_CACHE.clear()
    real_fdopen = os.fdopen
    # patched before the fleet forks, so the worker's writes fail too
    monkeypatch.setattr(os, "fdopen", lambda fd, mode: _FullDisk(real_fdopen(fd, mode)))
    asyncio.run(_broker_run(ResultCache(tmp_path), specs))
    assert capfd.readouterr().err.count("warning: workload trace not cached") == 1


def test_damaged_records_are_rewritten_through_the_pool(tmp_path):
    """A truncated result record and a truncated trace record are misses
    that a parallel rerun regenerates, rewrites and answers exactly as a
    serial run does. ``adaptive-bind`` is never cached, so two specs are
    pending and the rerun really fans out."""
    grid_args = dict(models=("dtbl",), scale="tiny")
    schedulers = ("rr", "adaptive-bind")
    serial = run_grid([load_benchmark(BENCH, scale="tiny", seed=7)], schedulers, **grid_args)
    run_grid(
        [load_benchmark(BENCH, scale="tiny", seed=7)],
        ("rr",),
        executor=make_executor(jobs=1, cache=ResultCache(tmp_path)),
        **grid_args,
    )
    result_path = ResultCache(tmp_path).record_paths()[0]
    (trace_path,) = WorkloadCache(tmp_path / "workloads").record_paths()
    originals = {}
    for record in (result_path, trace_path):
        originals[record] = record.read_bytes()
        record.write_bytes(originals[record][: len(originals[record]) // 2])
    _KERNEL_CACHE.clear()  # a new process: nothing in memory

    executor = ParallelExecutor(2, ResultCache(tmp_path))
    rerun = run_grid(
        [load_benchmark(BENCH, scale="tiny", seed=7)], schedulers, executor=executor, **grid_args
    )
    assert grid_to_json(rerun) == grid_to_json(serial)
    assert executor.hits == 0 and executor.misses == 2
    assert executor.workload_cache.misses == 1 and executor.workload_cache.stores == 1
    assert executor.cache.stores == 2
    for record, data in originals.items():
        assert record.read_bytes() == data  # rewritten whole


def test_disk_stats_and_prune(tmp_path):
    cache = WorkloadCache(tmp_path)
    assert cache.disk_stats()["records"] == 0 and len(cache) == 0
    built = load_benchmark(BENCH, scale="tiny", seed=7).kernel()
    cache.store(BENCH, "tiny", 7, built)
    cache.store(BENCH, "tiny", 8, built)
    stats = cache.disk_stats()
    assert stats["records"] == 2 and stats["total_bytes"] > 0
    removed, freed = cache.prune(0)
    assert removed == 2 and freed == stats["total_bytes"]
    assert len(cache) == 0
    # shard dirs are cleaned up; only the root remains
    assert [p for p in tmp_path.iterdir() if p.is_dir()] == []
    with pytest.raises(ValueError):
        cache.prune(-1)


def test_prune_deletes_retired_formats_whatever_the_cap(tmp_path):
    """A format-4 record can never be read again, so prune deletes it
    even under a cap that keeps every current record; a record of a
    format newer than this version's stays."""
    cache = WorkloadCache(tmp_path)
    cache.store(BENCH, "tiny", 7, load_benchmark(BENCH, scale="tiny", seed=7).kernel())
    (current,) = cache.record_paths()
    record = current.read_bytes()

    def beside(key: str, version: int):
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(record[:8] + struct.pack("<I", version) + record[12:])
        return path

    old = beside("ab" * 32, 4)
    newer = beside("cd" * 32, serialize.FORMAT_VERSION + 1)
    old_size = old.stat().st_size
    assert cache.prune(10**9) == (1, old_size)
    assert cache.record_paths() == sorted([current, newer])
    assert current.read_bytes() == record
    assert cache.load(BENCH, "tiny", 7) is not None


# --- integration: kernel_for / executors / grids ------------------------------


def test_kernel_for_builds_once_then_loads_from_disk(tmp_path, monkeypatch):
    from repro.harness import execution

    builds = []
    orig = registry.load_benchmark

    def counting(name, scale="small", seed=7):
        builds.append(name)
        return orig(name, scale=scale, seed=seed)

    monkeypatch.setattr(registry, "load_benchmark", counting)
    cache = WorkloadCache(tmp_path)
    execution.kernel_for(BENCH, "tiny", 7, disk=cache)
    assert builds == [BENCH] and cache.stores == 1
    _KERNEL_CACHE.clear()
    execution.kernel_for(BENCH, "tiny", 7, disk=cache)  # warm: disk, not datagen
    assert builds == [BENCH] and cache.hits == 1


def _trace_files(root):
    return sorted(p.name for p in root.rglob("*.trace"))


def test_executors_on_different_roots_keep_their_own_traces(tmp_path):
    first = make_executor(jobs=1, cache=ResultCache(tmp_path / "a"))
    second = make_executor(jobs=1, cache=ResultCache(tmp_path / "b"))
    assert first.workload_cache.root == tmp_path / "a" / "workloads"
    assert second.workload_cache.root == tmp_path / "b" / "workloads"
    assert make_executor(jobs=1).workload_cache is None
    first.run([SPEC])  # built after ``second``: still stores under a/
    assert _trace_files(tmp_path / "a" / "workloads") == [
        f"{WorkloadCache.key_for(BENCH, 'tiny', 7)}.trace"
    ]
    assert _trace_files(tmp_path / "b") == []
    second.run([RunSpec(benchmark=BENCH, scheduler="rr", model="dtbl", scale="tiny", seed=8)])
    assert _trace_files(tmp_path / "b" / "workloads") == [
        f"{WorkloadCache.key_for(BENCH, 'tiny', 8)}.trace"
    ]
    assert len(_trace_files(tmp_path / "a")) == 1


def test_run_spec_after_a_cached_executor_touches_no_disk(tmp_path):
    make_executor(jobs=1, cache=ResultCache(tmp_path)).run([SPEC])
    before = sorted(tmp_path.rglob("*"))
    run_spec(RunSpec(benchmark=BENCH, scheduler="rr", model="dtbl", scale="tiny", seed=8))
    assert sorted(tmp_path.rglob("*")) == before


def test_broker_stores_traces_beside_its_result_cache(tmp_path):
    """The broker's jobs carry its trace-store root to the worker."""
    results = asyncio.run(_broker_run(ResultCache(tmp_path), [SPEC]))
    assert set(results) == {SPEC}
    assert _trace_files(tmp_path / "workloads") == [
        f"{WorkloadCache.key_for(BENCH, 'tiny', 7)}.trace"
    ]


def test_warm_grid_runs_zero_datagen_steps(tmp_path, monkeypatch):
    """The headline pin: grid #2 must not generate a single workload.

    Setup stores the trace via a cold grid; then every in-memory cache
    is cleared, the *result* cache is emptied (so simulations really
    re-run) and datagen is monkeypatched to fail loudly.
    """
    cache_dir = tmp_path / "cache"
    workloads = [load_benchmark(BENCH, scale="tiny", seed=7)]
    first = run_grid(
        workloads,
        schedulers=("rr", "adaptive-bind"),
        models=("dtbl",),
        scale="tiny",
        executor=make_executor(jobs=1, cache=ResultCache(cache_dir)),
    )
    # cold process simulation: no kernels in memory, no cached results —
    # only the workload trace store survives
    _KERNEL_CACHE.clear()
    for entry in cache_dir.iterdir():
        if entry.name != "workloads":
            shutil.rmtree(entry)

    def boom(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("datagen executed on a warm workload cache")

    monkeypatch.setattr(type(workloads[0]), "build", boom)
    monkeypatch.setattr(registry, "load_benchmark", boom)
    monkeypatch.setattr(registry, "make_workload", boom)
    executor = make_executor(jobs=1, cache=ResultCache(cache_dir))
    # run_grid with a fresh (unbuilt) workload object: construction is
    # allowed, build is not — kernel_for must answer from disk
    second = run_grid(
        [type(workloads[0])(workloads[0].input_name, scale="tiny", seed=7)],
        schedulers=("rr", "adaptive-bind"),
        models=("dtbl",),
        scale="tiny",
        executor=executor,
    )
    assert executor.hits == 0  # the result cache really was emptied
    assert grid_to_json(second) == grid_to_json(first)
    assert executor.workload_cache.hits >= 1


def test_custom_workload_subclass_bypasses_disk_cache(tmp_path):
    """A subclass sharing a registry name must use its own trace."""
    base = load_benchmark(BENCH, scale="tiny", seed=7)
    cache = WorkloadCache(tmp_path)
    cache.store(BENCH, "tiny", 7, base.kernel())

    class Custom(type(base)):
        pass

    custom = Custom(base.input_name, scale="tiny", seed=7)
    seed_kernel_cache(custom)
    assert not custom.is_built  # registration alone builds nothing
    assert kernel_for(BENCH, "tiny", 7, disk=cache) is custom.kernel()
    assert cache.hits == 0 and cache.misses == 0


# --- lazy resolution ------------------------------------------------------------


def _boom(*args, **kwargs):  # pragma: no cover - failure path
    raise AssertionError("a trace was resolved on a fully warm grid")


def test_fully_warm_grid_loads_and_builds_no_trace(tmp_path, monkeypatch):
    grid_args = dict(schedulers=("rr", "adaptive-bind"), models=("dtbl",), scale="tiny")
    first = run_grid(
        [load_benchmark(BENCH, scale="tiny", seed=7)],
        executor=make_executor(jobs=1, cache=ResultCache(tmp_path)),
        **grid_args,
    )
    _KERNEL_CACHE.clear()
    workload = load_benchmark(BENCH, scale="tiny", seed=7)
    monkeypatch.setattr(WorkloadCache, "load", _boom)
    monkeypatch.setattr(type(workload), "build", _boom)
    executor = make_executor(jobs=1, cache=ResultCache(tmp_path))
    second = run_grid([workload], executor=executor, **grid_args)
    assert executor.hits == 2 and executor.misses == 0
    assert grid_to_json(second) == grid_to_json(first)
    assert not workload.is_built


@pytest.mark.parametrize("cached", [False, True])
def test_prebuilt_workload_resolves_to_its_own_kernel(tmp_path, cached):
    workload = load_benchmark(BENCH, scale="tiny", seed=7)
    kernel = workload.kernel()
    if cached:  # a stored copy of the trace must not shadow the caller's
        WorkloadCache(tmp_path / "workloads").store(BENCH, "tiny", 7, kernel)
    executor = make_executor(jobs=1, cache=ResultCache(tmp_path) if cached else None)
    run_grid([workload], schedulers=("rr",), models=("dtbl",), scale="tiny", executor=executor)
    assert kernel_for(BENCH, "tiny", 7) is kernel
    # the grid replayed the caller's bodies as built: one arena, the caller's
    assert {id(body.arena) for body in walk_bodies(kernel.bodies)} == {id(kernel.bodies[0].arena)}


def test_parallel_executor_resolves_only_pending_traces(tmp_path, monkeypatch):
    other = "amr"
    make_executor(jobs=1, cache=ResultCache(tmp_path)).run([SPEC])  # SPEC now cached
    _KERNEL_CACHE.clear()
    seed_kernel_cache(load_benchmark(BENCH, scale="tiny", seed=7))
    seed_kernel_cache(load_benchmark(other, scale="tiny", seed=7))

    resolved = []
    original = execution.kernel_for

    def recording(benchmark, scale, seed, disk=None):
        resolved.append((benchmark, scale, seed))
        return original(benchmark, scale, seed, disk=disk)

    monkeypatch.setattr(execution, "kernel_for", recording)
    pending = [
        RunSpec(benchmark=other, scheduler=s, model="dtbl", scale="tiny", seed=7)
        for s in ("rr", "adaptive-bind")
    ]
    executor = ParallelExecutor(2, ResultCache(tmp_path))
    results = executor.run([SPEC, *pending])
    assert executor.hits == 1 and set(results) == {SPEC, *pending}
    assert resolved == [(other, "tiny", 7)]  # parent side only; SPEC's trace untouched
    assert not isinstance(_KERNEL_CACHE[(BENCH, "tiny", 7)], KernelSpec)


# --- CLI --------------------------------------------------------------------


def test_cli_cache_stats_and_prune_cover_workloads(tmp_path, capsys):
    from repro.cli import main

    cache_dir = tmp_path / "cache"
    cache = WorkloadCache(cache_dir / "workloads")
    cache.store(BENCH, "tiny", 7, load_benchmark(BENCH, scale="tiny", seed=7).kernel())
    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "workload traces  1" in out
    assert main(["cache", "prune", "--max-bytes", "0", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "pruned 1 workload trace(s)" in out
    assert len(cache) == 0
