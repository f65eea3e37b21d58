"""The component model: spec grammar, canonical names, composed policies.

Golden equivalence with the paper's four schedulers is pinned in
``test_golden_equivalence.py``; these tests cover the grammar itself,
how ``ComposedScheduler`` builds its components from every legal spec,
and the *new* compositions the grammar unlocks (l2-bind, adaptive-l2,
throttled composites).
"""

import pytest

from repro.core import (
    NAMED_COMPOSITIONS,
    SCHEDULER_ORDER,
    ComposedScheduler,
    SchedulerSpec,
    canonical_scheduler_name,
    describe_components,
    make_scheduler,
    parse_spec,
)
from repro.core.components import (
    AnySMXPlacement,
    BindPlacement,
    ThrottleAdmission,
    canonical_name,
)
from repro.dynpar import make_model
from repro.gpu.config import GPUConfig
from repro.gpu.engine import Engine
from repro.harness.execution import RunSpec, run_spec
from repro.harness.registry import scheduler_catalog
from repro.search import enumerate_space
from tests.conftest import tiny_workload

#: named compositions beyond the paper's four, in report order
COMPOSED_ORDER = [name for name in NAMED_COMPOSITIONS if name not in SCHEDULER_ORDER]


class TestSpecGrammar:
    def test_parse_full_spec(self):
        spec = parse_spec("pri=level,bind=smx,steal=backup")
        assert spec == SchedulerSpec(pri="level", bind="smx", steal="backup")

    def test_axes_default_to_baseline(self):
        assert parse_spec("pri=level") == SchedulerSpec(pri="level")
        assert parse_spec("bind=l2,pri=level") == NAMED_COMPOSITIONS["l2-bind"]

    def test_whitespace_tolerated(self):
        assert parse_spec(" pri = level , bind = smx ") == NAMED_COMPOSITIONS["smx-bind"]

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "pri",
            "pri=",
            "pri=speed",
            "turbo=on",
            "pri=level,pri=fifo",
            "steal=backup",  # stealing needs bound queues
            "bind=any,steal=backup",
            # retired alias spellings: one spelling per value
            "pri=nesting-level",
            "bind=any-smx",
            "bind=parent-smx",
            "bind=parent-smx-bind",
            "bind=l2-cluster",
            "bind=l2-cluster-bind",
            "bind=smx,steal=backup-smx",
        ],
    )
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            make_scheduler(bad)

    def test_spec_validation_direct(self):
        with pytest.raises(ValueError):
            SchedulerSpec(pri="speed")
        with pytest.raises(ValueError):
            SchedulerSpec(steal="backup")  # bind=any default

    def test_canonical_round_trip(self):
        for name, spec in NAMED_COMPOSITIONS.items():
            assert parse_spec(spec.canonical) == spec
            assert canonical_scheduler_name(spec.canonical) == name

    def test_throttle_suffix_on_spec_string(self):
        assert (
            canonical_scheduler_name("pri=level,bind=smx,steal=backup+throttle")
            == "adaptive-bind+throttle"
        )

    def test_unnamed_spec_keeps_canonical_string(self):
        assert canonical_scheduler_name("pri=fifo,bind=smx") == (
            "pri=fifo,bind=smx,steal=none,admit=none"
        )

    def test_describe_components_axes(self):
        axes = describe_components()
        assert set(axes) == {"pri", "bind", "steal", "admit"}
        assert axes["bind"] == ["any", "l2", "smx"]


class TestFactoryAndCatalog:
    def test_make_scheduler_accepts_spec_strings(self):
        s = make_scheduler("pri=level,bind=smx,steal=backup")
        assert s.name == "adaptive-bind"  # canonical label, shared cache key

    def test_make_scheduler_new_compositions(self):
        for name in COMPOSED_ORDER:
            s = make_scheduler(name)
            assert isinstance(s, ComposedScheduler)
            assert s.name == name
            assert isinstance(s.placement, BindPlacement)

    def test_unknown_scheduler_error_names_grammar(self):
        with pytest.raises(ValueError, match="spec string"):
            make_scheduler("nope")

    def test_catalog_lists_paper_then_composed(self):
        rows = scheduler_catalog()
        names = [r["name"] for r in rows]
        assert names[: len(SCHEDULER_ORDER)] == SCHEDULER_ORDER
        assert set(names[len(SCHEDULER_ORDER):]) == set(COMPOSED_ORDER)
        for row in rows:
            assert parse_spec(row["spec"]) == NAMED_COMPOSITIONS[row["name"]]


class TestConstructionFromSpec:
    @pytest.mark.parametrize("spec", enumerate_space(), ids=lambda spec: spec.canonical)
    def test_components_follow_the_spec(self, spec):
        s = make_scheduler(canonical_name(spec))
        assert s.spec == spec
        assert s.name == canonical_name(spec)
        assert s.prioritized_kmu == (spec.pri == "level")
        placement = AnySMXPlacement if spec.bind == "any" else BindPlacement
        assert type(s.placement) is placement
        if spec.bind != "any":
            assert s.placement.name == spec.bind
        assert (s.steal is None) == (spec.steal == "none")
        if s.steal is not None:
            assert s.steal.fixed == (spec.steal == "backup")
        assert isinstance(s.admission, ThrottleAdmission) == (spec.admit == "throttle")
        assert s.idle_dispatch_pure == (spec.admit == "none")

    def test_throttle_params_need_admit_throttle(self):
        with pytest.raises(ValueError, match="admit=throttle"):
            ComposedScheduler(NAMED_COMPOSITIONS["smx-bind"], interval=500)


class TestRunSpecCanonicalization:
    def test_spec_string_shares_cache_address_with_name(self):
        a = RunSpec("bfs-citation", "adaptive-bind", "dtbl", scale="tiny")
        b = RunSpec("bfs-citation", "pri=level,bind=smx,steal=backup", "dtbl", scale="tiny")
        assert a == b
        assert a.cache_key() == b.cache_key()

    def test_alias_spelling_canonicalized(self):
        spec = RunSpec("bfs-citation", "bind=smx,pri=level", "dtbl")
        assert spec.scheduler == "smx-bind"

    def test_unknown_scheduler_rejected_at_construction(self):
        with pytest.raises(ValueError):
            RunSpec("bfs-citation", "warp-drive", "dtbl")


def _l2_machine(**overrides):
    base = dict(
        num_smx=8,
        smxs_per_l2_cluster=4,
        max_threads_per_smx=512,
        max_tbs_per_smx=8,
        max_registers_per_smx=16384,
        shared_mem_per_smx=16 * 1024,
    )
    base.update(overrides)
    return GPUConfig(**base)


class TestL2Clustering:
    def test_domain_math(self):
        config = _l2_machine()
        assert config.num_l2_clusters == 2
        assert [config.l2_cluster_of(i) for i in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_remainder_group(self):
        config = GPUConfig(num_smx=13, smxs_per_l2_cluster=4)
        assert config.num_l2_clusters == 4  # 4+4+4+1
        assert config.l2_cluster_of(12) == 3

    def test_whole_l1_cluster_granularity(self):
        config = GPUConfig(num_smx=12, smxs_per_cluster=3, smxs_per_l2_cluster=4)
        # 4 // 3 = 1 whole L1 cluster per L2 group: domains follow clusters
        assert config.num_l2_clusters == config.num_clusters
        assert all(config.l2_cluster_of(i) == config.cluster_of(i) for i in range(12))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            GPUConfig(smxs_per_l2_cluster=0)


class TestComposedPoliciesEndToEnd:
    def test_l2_bind_localizes_children_to_l2_neighborhood(self):
        w = tiny_workload("bfs", "citation")
        config = _l2_machine()
        engine = Engine(config, make_scheduler("l2-bind"), make_model("dtbl"), [w.kernel()])
        stats = engine.run()
        assert stats.tbs_dispatched > 0
        placement = engine.scheduler.placement
        assert len(placement.queues) == 2
        assert placement.queue_high_water > 0

    def test_adaptive_l2_steals_when_imbalanced(self):
        w = tiny_workload("bfs", "citation")
        config = _l2_machine()
        engine = Engine(config, make_scheduler("adaptive-l2"), make_model("dtbl"), [w.kernel()])
        stats = engine.run()
        assert stats.tbs_dispatched > 0
        assert stats.work_steals == engine.scheduler.steals

    def test_l2_bind_locality_sits_between_any_and_smx(self):
        """bind=l2 is a genuine intermediate point: more co-location than
        unbound placement, no more than whole-machine binding ever has."""
        w = tiny_workload("bfs", "citation")
        kernel = w.kernel()
        fractions = {}
        for name in ("tb-pri", "l2-bind", "smx-bind"):
            engine = Engine(_l2_machine(), make_scheduler(name), make_model("dtbl"), [kernel])
            fractions[name] = engine.run().child_same_cluster_fraction
        assert fractions["tb-pri"] <= fractions["l2-bind"] <= 1.0
        assert fractions["l2-bind"] > 0

    def test_throttled_composition_runs(self):
        spec = RunSpec(
            "bfs-citation", "adaptive-l2+throttle", "dtbl", scale="tiny", seed=7
        )
        assert spec.scheduler == "adaptive-l2+throttle"
        stats = run_spec(spec)
        assert stats.tbs_dispatched > 0

    def test_throttle_admission_attaches(self):
        s = make_scheduler("l2-bind+throttle")
        assert s.idle_dispatch_pure is False
        assert s.admission is not None and s.adjustments == 0
