"""Additional coverage: CLI export flag, telemetry fan-out, KMU stress,
timeline rendering options, and misc API edges."""

import json

from repro.analysis.timeline import OccupancyTimeline
from repro.cli import main
from repro.core import make_scheduler
from repro.dynpar import make_model
from repro.gpu.config import CacheConfig, GPUConfig
from repro.gpu.engine import Engine
from repro.gpu.kdu import KDU
from repro.gpu.kernel import Kernel, KernelSpec, ResourceReq
from repro.gpu.kmu import KMU
from repro.gpu.trace import TBBody, compute
from tests.conftest import tiny_workload


def small_config(**overrides):
    base = dict(
        num_smx=2,
        max_threads_per_smx=128,
        max_tbs_per_smx=4,
        max_registers_per_smx=8192,
        shared_mem_per_smx=4096,
        l1=CacheConfig(size_bytes=1024, associativity=2),
        l2=CacheConfig(size_bytes=4096, associativity=4),
    )
    base.update(overrides)
    return GPUConfig(**base)


class TestCliExport:
    def test_grid_output_json(self, capsys, tmp_path):
        out = str(tmp_path / "grid.json")
        code = main(
            ["grid", "--scale", "tiny", "--benchmarks", "amr", "--models", "dtbl", "-o", out]
        )
        assert code == 0
        records = json.loads(open(out).read())
        assert {r["scheduler"] for r in records} == {"rr", "tb-pri", "smx-bind", "adaptive-bind"}

    def test_grid_output_csv(self, tmp_path, capsys):
        out = str(tmp_path / "grid.csv")
        code = main(
            ["grid", "--scale", "tiny", "--benchmarks", "amr", "--models", "dtbl", "-o", out]
        )
        assert code == 0
        lines = open(out).read().strip().splitlines()
        assert len(lines) == 5  # header + 4 schedulers


class TestTelemetryFanout:
    def test_tee_sinks_see_every_event(self):
        from repro.telemetry import RecordingSink, TBCompleted, TBDispatched, TeeSink

        spec = KernelSpec(
            name="obs",
            bodies=[TBBody(warps=[[compute(5)]]) for _ in range(4)],
            resources=ResourceReq(threads=32, regs_per_thread=8),
        )
        a, b = RecordingSink(), RecordingSink()
        engine = Engine(
            small_config(), make_scheduler("rr"), make_model("dtbl"), [spec],
            telemetry=TeeSink([a, b]),
        )
        engine.run()
        assert a.events == b.events
        assert len(a.of_type(TBDispatched)) == len(a.of_type(TBCompleted)) == 4


class TestKMUStress:
    def test_prioritized_admission_order_under_pressure(self):
        kdu = KDU(1)
        kmu = KMU(kdu, prioritized=True)
        admitted = []
        kmu.on_admit = lambda k, now: admitted.append((k.priority, k.name))

        def make(priority, name):
            spec = KernelSpec(
                name=name,
                bodies=[TBBody(warps=[[compute(1)]])],
                resources=ResourceReq(threads=32),
            )
            return Kernel(spec, priority=priority)

        kernels = [make(p % 4, f"k{i}") for i, p in enumerate([0, 2, 1, 3, 3, 0, 2])]
        for k in kernels:
            kmu.submit(k, 0)
        # drain: retire whatever is resident, admit next
        while not kmu.drained or len(kdu):
            resident = kdu.kernels[0]
            kdu.retire(resident)
            kmu.fill_kdu(0)
            if not kdu.kernels:
                break
        priorities = [p for p, _ in admitted]
        # after the first FCFS admit, priorities are non-increasing
        assert priorities[1:] == sorted(priorities[1:], reverse=True)


class TestTimelineRendering:
    def test_render_with_explicit_peak(self):
        from repro.telemetry import TBDispatched

        tl = OccupancyTimeline(num_smx=1)
        tl.emit(
            TBDispatched(
                time=0, smx_id=0, tb_id=0, kernel_id=0, kernel="k", priority=0,
                warps=1, is_dynamic=False, parent_smx_id=None, wait_cycles=0,
            )
        )
        text = tl.render(samples=10, max_tbs=4)
        assert "'@' = 4" in text


class TestMiscEdges:
    def test_cluster_of_all_smxs(self):
        config = GPUConfig(num_smx=12, smxs_per_cluster=4)
        assert {config.cluster_of(i) for i in range(12)} == {0, 1, 2}

    def test_footprint_of_launchless_kernel(self):
        from repro.analysis import analyze_footprint

        spec = KernelSpec(
            name="flat",
            bodies=[TBBody(warps=[[compute(1)]])],
            resources=ResourceReq(threads=32),
        )
        result = analyze_footprint(spec)
        assert result.num_direct_parents == 0
        assert result.parent_child == 0.0

    def test_reuse_histogram_on_real_workload(self):
        from repro.analysis import reuse_distance_histogram
        from repro.gpu.trace import walk_bodies

        bodies = walk_bodies(tiny_workload("join", "gaussian").kernel().bodies)[:40]
        hist = reuse_distance_histogram(bodies)
        assert hist.get("cold", 0) > 0
        assert sum(hist.values()) > 0
