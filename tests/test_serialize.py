"""Kernel-trace serialization round-trips."""

import gzip
import hashlib
import json
import struct
import zlib
from array import array
from pathlib import Path

import pytest

from repro.core import make_scheduler
from repro.dynpar import make_model
from repro.gpu.engine import Engine
from repro.gpu.kernel import KernelSpec, ResourceReq
from repro.gpu.serialize import (
    FORMAT_VERSION,
    load_spec,
    save_spec,
    spec_from_bytes,
    spec_to_bytes,
)
from repro.gpu.trace import (
    OP_LOAD,
    OP_STORE,
    LaunchSpec,
    Op,
    TBBody,
    WarpTrace,
    compute,
    launch,
    load,
    store,
    walk_bodies,
)
from repro.harness.registry import experiment_config, load_benchmark
from tests.conftest import access_lines, body_lines, tiny_workload, warp_columns
from tests.test_trace_digests import SEED, digest_cases

#: sha256 of each pinned trace's decompressed record (see record_digest)
RECORD_PATH = Path(__file__).resolve().parent / "record_digests.json"


def _launch_shape(spec: LaunchSpec) -> tuple:
    return (len(spec.bodies), spec.threads_per_tb, spec.regs_per_thread, spec.smem_per_tb, spec.name)


def traces_equal(a: KernelSpec, b: KernelSpec) -> bool:
    """Same lowered columns and launch shapes, body by body."""
    wa, wb = walk_bodies(a.bodies), walk_bodies(b.bodies)
    if len(wa) != len(wb):
        return False
    for body_a, body_b in zip(wa, wb):
        if (warp_columns(body_a), body_lines(body_a)) != (warp_columns(body_b), body_lines(body_b)):
            return False
        if [_launch_shape(s) for s in body_a.launch_table] != [
            _launch_shape(s) for s in body_b.launch_table
        ]:
            return False
    return True


def sample_spec():
    leaf = TBBody(warps=[[load([0, 4]), compute(3), store([128])]])
    mid = TBBody(warps=[[compute(2), launch(LaunchSpec(bodies=[leaf], threads_per_tb=32))]])
    shared = LaunchSpec(bodies=[mid], threads_per_tb=64, regs_per_thread=20, name="shared")
    root = TBBody(warps=[[launch(shared), compute(1), launch(shared)]])
    return KernelSpec(
        name="sample",
        bodies=[root],
        resources=ResourceReq(threads=32, regs_per_thread=18, smem_bytes=256),
    )


def repack(data: bytes, edit) -> bytes:
    """Decompress a record's body, apply ``edit`` to it, recompress."""
    prefix, body = data[:12], zlib.decompress(data[12:])
    return prefix + zlib.compress(edit(body))


def header_of(data: bytes) -> tuple[dict, int]:
    """The decoded JSON header of a record and the offset just past it."""
    body = zlib.decompress(data[12:])
    (length,) = struct.unpack_from("<Q", body)
    return json.loads(body[8:8 + length]), 8 + length


class TestRoundTrip:
    def test_object_round_trip(self):
        spec = sample_spec()
        rebuilt = spec_from_bytes(spec_to_bytes(spec))
        assert rebuilt.name == spec.name
        assert rebuilt.resources == spec.resources
        assert traces_equal(spec, rebuilt)

    def test_ops_are_op_members(self):
        rebuilt = spec_from_bytes(spec_to_bytes(sample_spec()))
        for body in walk_bodies(rebuilt.bodies):
            for ops, _, _ in warp_columns(body):
                assert isinstance(ops, array) and ops.typecode == "q"
                assert all(Op(op) is not None for op in ops)

    def test_shared_launch_specs_preserved(self):
        spec = sample_spec()
        rebuilt = spec_from_bytes(spec_to_bytes(spec))
        launches = rebuilt.bodies[0].launches()
        assert len(launches) == 2
        assert launches[0] is launches[1]  # sharing preserved, not duplicated

    def test_shared_bodies_preserved(self):
        body = TBBody(warps=[[compute(1)]])
        spec = KernelSpec(
            name="shared-bodies",
            bodies=[body, body],
            resources=ResourceReq(threads=32),
        )
        rebuilt = spec_from_bytes(spec_to_bytes(spec))
        assert rebuilt.bodies[0] is rebuilt.bodies[1]

    def test_encoding_is_deterministic(self):
        assert spec_to_bytes(sample_spec()) == spec_to_bytes(sample_spec())

    def test_one_arena_and_many_write_one_record(self):
        """Each body of ``sample_spec`` has an arena of its own; the decoded
        copy's bodies share one. The encoder gathers either into the same
        bytes."""
        data = spec_to_bytes(sample_spec())
        rebuilt = spec_from_bytes(data)
        assert len({id(body.arena) for body in walk_bodies(rebuilt.bodies)}) == 1
        assert spec_to_bytes(rebuilt) == data

    def test_file_round_trip(self, tmp_path):
        spec = sample_spec()
        path = str(tmp_path / "sample.trace")
        save_spec(spec, path)
        assert traces_equal(spec, load_spec(path))

    def test_workload_round_trip(self, tmp_path):
        spec = tiny_workload("bfs", "citation").kernel()
        path = str(tmp_path / "bfs.trace")
        save_spec(spec, path)
        rebuilt = load_spec(path)
        assert traces_equal(spec, rebuilt)

    def test_rebuilt_trace_simulates_identically(self, tmp_path):
        spec = tiny_workload("amr").kernel()
        path = str(tmp_path / "amr.trace")
        save_spec(spec, path)
        rebuilt = load_spec(path)
        config = experiment_config(num_smx=4, max_threads_per_smx=256)

        def run(s):
            engine = Engine(config, make_scheduler("adaptive-bind"), make_model("dtbl"), [s])
            stats = engine.run()
            return (stats.cycles, stats.instructions, stats.l1_hits, stats.l2_hits)

        assert run(spec) == run(rebuilt)

    def test_version_check(self):
        data = bytearray(spec_to_bytes(sample_spec()))
        struct.pack_into("<I", data, 8, 99)
        with pytest.raises(ValueError, match="version 99"):
            spec_from_bytes(bytes(data))

    def test_wrong_magic(self):
        data = b"NOTATRCE" + spec_to_bytes(sample_spec())[8:]
        with pytest.raises(ValueError, match="magic"):
            spec_from_bytes(data)

    def test_unknown_instruction_kind(self):
        data = spec_to_bytes(sample_spec())
        header, ops_at = header_of(data)
        n_bodies, n_warps = header["counts"][:2]
        ops_at += 8 * (n_bodies + n_warps)

        def bad_op(body: bytes) -> bytes:
            return body[:ops_at] + bytes([7]) + body[ops_at + 1:]

        with pytest.raises(ValueError, match="unknown op code 7"):
            spec_from_bytes(repack(data, bad_op))

    def test_inconsistent_columns_are_rejected(self):
        """A record whose columns disagree with each other never decodes."""
        data = spec_to_bytes(sample_spec())
        header, offset = header_of(data)
        n_bodies, n_warps, n_instrs = header["counts"][:3]
        args_at = offset + 8 * (n_bodies + n_warps + n_instrs)
        ops, _, _ = warp_columns(spec_from_bytes(data).bodies[0])[0]
        assert list(ops) == [Op.LAUNCH, Op.COMPUTE, Op.LAUNCH]

        def launch_index(value: int):
            def edit(body: bytes) -> bytes:
                return body[:args_at] + struct.pack("<q", value) + body[args_at + 8:]
            return edit

        with pytest.raises(ValueError, match="launch index out of order"):
            spec_from_bytes(repack(data, launch_index(1)))
        header["launches"].pop()

        def drop_launch(body: bytes) -> bytes:
            text = json.dumps(header).encode()
            return struct.pack("<Q", len(text)) + text + body[offset:]

        with pytest.raises(ValueError, match="launch reference out of range"):
            spec_from_bytes(repack(data, drop_launch))

    def test_warp_without_instructions_is_rejected(self):
        data = spec_to_bytes(sample_spec())
        header, offset = header_of(data)
        instrs_at = offset + 8 * header["counts"][0]

        def empty_warp(body: bytes) -> bytes:
            return body[:instrs_at] + struct.pack("<q", 0) + body[instrs_at + 8:]

        with pytest.raises(ValueError, match="a warp without instructions"):
            spec_from_bytes(repack(data, empty_warp))

    def test_out_of_range_body_index(self):
        data = spec_to_bytes(sample_spec())
        header, offset = header_of(data)
        header["roots"] = [99]

        def bad_root(body: bytes) -> bytes:
            text = json.dumps(header).encode()
            return struct.pack("<Q", len(text)) + text + body[offset:]

        with pytest.raises(ValueError, match="index"):
            spec_from_bytes(repack(data, bad_root))

    def test_format_1_file_names_the_format(self, tmp_path):
        path = tmp_path / "old.json.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"version": 1, "name": "old"}, handle)
        with pytest.raises(ValueError, match="format 1.*re-snapshot"):
            load_spec(path)

    def test_format_2_record_names_the_format(self):
        data = bytearray(spec_to_bytes(sample_spec()))
        struct.pack_into("<I", data, 8, 2)
        with pytest.raises(ValueError, match="format 2.*re-snapshot"):
            spec_from_bytes(bytes(data))

    def test_format_3_record_names_the_format(self):
        data = bytearray(spec_to_bytes(sample_spec()))
        struct.pack_into("<I", data, 8, 3)
        with pytest.raises(ValueError, match="format 3.*re-snapshot"):
            spec_from_bytes(bytes(data))

    def test_format_4_record_names_the_format(self):
        data = bytearray(spec_to_bytes(sample_spec()))
        struct.pack_into("<I", data, 8, 4)
        with pytest.raises(ValueError, match=r"format 4 \(a per-lane address pool\).*re-snapshot"):
            spec_from_bytes(bytes(data))

    def test_current_version(self):
        assert FORMAT_VERSION == 5
        assert spec_to_bytes(sample_spec())[8:12] == struct.pack("<I", FORMAT_VERSION)

    def test_record_holds_no_lane_columns(self):
        header, _ = header_of(spec_to_bytes(sample_spec()))
        assert len(header["counts"]) == 6  # warps, instrs, ops, args, lines, launch refs
        assert header["line_bytes"] == 128


def range_spec() -> KernelSpec:
    """A one-body spec with a listed access, then a range access of two
    instructions (32 lanes, then 8), each lowered to its line span."""
    trace = WarpTrace().access(OP_LOAD, [512, 8]).access_range(OP_STORE, range(0, 40 * 8, 8))
    return KernelSpec(name="runs", bodies=[TBBody(warps=[trace])], resources=ResourceReq(threads=32))


class TestLineColumns:
    def test_range_access_round_trips_as_its_lines(self):
        spec = range_spec()
        assert [(op, list(lines)) for op, lines in access_lines(spec.bodies[0])] == [
            (OP_LOAD, [0, 4]), (OP_STORE, [0, 1]), (OP_STORE, [2])
        ]
        rebuilt = spec_from_bytes(spec_to_bytes(spec))
        assert traces_equal(spec, rebuilt)

    def test_access_wider_than_a_warp_is_rejected(self):
        """No access spans more lines than a warp has lanes."""
        data = spec_to_bytes(range_spec())
        header, offset = header_of(data)
        n_bodies, n_warps, n_instrs = header["counts"][:3]
        args_at = offset + 8 * (n_bodies + n_warps + n_instrs)

        def wide(body: bytes) -> bytes:
            return body[:args_at] + struct.pack("<q", 33) + body[args_at + 8:]

        with pytest.raises(ValueError, match="an access spans more than 32 lines"):
            spec_from_bytes(repack(data, wide))


def record_digest(spec: KernelSpec) -> str:
    """sha256 of ``spec``'s record: its prefix and its decompressed payload
    (zlib's output may differ between zlib versions; the payload may not)."""
    data = spec_to_bytes(spec)
    return hashlib.sha256(data[:12] + zlib.decompress(data[12:])).hexdigest()


def measure_record(name: str, scale: str) -> str:
    return record_digest(load_benchmark(name, scale=scale, seed=SEED).kernel())


class TestRecordPins:
    """The bytes a trace is stored as, pinned per benchmark: a change to how
    a trace is held in memory must not change the record it writes."""

    @pytest.fixture(scope="class")
    def pinned(self) -> dict:
        with open(RECORD_PATH) as f:
            return json.load(f)

    def test_every_case_is_pinned(self, pinned):
        assert sorted(pinned) == sorted(f"{name}@{scale}" for name, scale in digest_cases())

    @pytest.mark.parametrize("name,scale", digest_cases())
    def test_record_bytes(self, name, scale, pinned):
        assert measure_record(name, scale) == pinned[f"{name}@{scale}"], (
            f"{name} at {scale} writes a different record; if intended, bump "
            "FORMAT_VERSION and regenerate tests/record_digests.json"
        )


class TestConfigRoundTrip:
    """GPUConfig <-> plain dicts (the execution layer's cache keys)."""

    def test_default_config(self):
        from repro.gpu.config import GPUConfig
        from repro.gpu.serialize import config_from_obj, config_to_obj

        config = experiment_config()
        obj = config_to_obj(config)
        assert config_from_obj(obj) == config
        import json

        assert config_from_obj(json.loads(json.dumps(obj))) == config
        assert isinstance(config_from_obj(obj), GPUConfig)

    def test_overridden_config(self):
        from repro.gpu.config import CacheConfig
        from repro.gpu.serialize import config_from_obj, config_to_obj

        config = experiment_config(
            num_smx=8,
            smxs_per_cluster=2,
            l1=CacheConfig(size_bytes=64 * 1024, associativity=8, hit_latency=2),
            warp_scheduler="lrr",
            dram_lines_per_cycle=3.5,
            mshr_merging=False,
        )
        assert config_from_obj(config_to_obj(config)) == config

    def test_rejects_unknown_fields(self):
        from repro.gpu.serialize import config_from_obj, config_to_obj

        obj = config_to_obj(experiment_config())
        obj["sm_count"] = 99
        with pytest.raises(ValueError, match="unknown GPUConfig fields"):
            config_from_obj(obj)

    def test_fingerprint_is_content_addressed(self):
        from repro.gpu.serialize import config_fingerprint

        a = experiment_config()
        b = experiment_config()
        assert config_fingerprint(a) == config_fingerprint(b)
        assert config_fingerprint(a) != config_fingerprint(a.with_overrides(num_smx=4))


class TestStatsRoundTrip:
    """SimStats <-> plain dicts, including derived-metric preservation."""

    def test_simulated_stats(self):
        from repro.gpu.serialize import stats_from_obj, stats_to_obj

        config = experiment_config(num_smx=4, max_threads_per_smx=256)
        engine = Engine(
            config, make_scheduler("adaptive-bind"), make_model("dtbl"),
            [tiny_workload("bfs", "citation").kernel()],
        )
        stats = engine.run()
        clone = stats_from_obj(stats_to_obj(stats))
        assert clone == stats
        assert clone.summary() == stats.summary()
        assert clone.ipc == stats.ipc
        assert clone.per_smx_instructions == stats.per_smx_instructions

    def test_json_round_trip_is_lossless(self):
        import json

        from repro.gpu.serialize import stats_from_obj, stats_to_obj
        from repro.gpu.stats import SimStats

        stats = SimStats(
            cycles=123, instructions=456, dram_mean_latency=1.0 / 3.0,
            per_smx_instructions=[1, 2, 3], per_smx_busy_cycles=[4, 5, 6],
        )
        assert stats_from_obj(json.loads(json.dumps(stats_to_obj(stats)))) == stats

    def test_rejects_unknown_fields(self):
        from repro.gpu.serialize import stats_from_obj

        with pytest.raises(ValueError, match="unknown SimStats fields"):
            stats_from_obj({"cycles": 1, "warp_divergence": 0.5})
