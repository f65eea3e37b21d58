"""Benchmark workloads: construction, structure, and determinism."""

import numpy as np
import pytest

from repro.gpu.trace import Op, TBBody, walk_bodies
from repro.workloads import APPLICATIONS, make_workload
from tests.conftest import TINY_PAIRS, tiny_workload


class TestFactory:
    def test_all_applications_constructible(self):
        for name in APPLICATIONS:
            w = make_workload(name, scale="tiny")
            assert w.name == name

    def test_unknown_application(self):
        with pytest.raises(ValueError):
            make_workload("raytrace")

    def test_unknown_input(self):
        with pytest.raises(ValueError):
            make_workload("bfs", "twitter")

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            make_workload("bfs", "citation", scale="huge")

    def test_full_name_includes_input_only_when_multiple(self):
        assert make_workload("bfs", "citation", scale="tiny").full_name == "bfs-citation"
        assert make_workload("amr", scale="tiny").full_name == "amr"


class TestStructure:
    def test_builds_and_has_parent_tbs(self, any_tiny_workload):
        spec = any_tiny_workload.kernel()
        assert len(spec.bodies) > 0

    def test_has_dynamic_launches(self, any_tiny_workload):
        all_bodies = walk_bodies(any_tiny_workload.kernel().bodies)
        launches = sum(len(b.launches()) for b in all_bodies)
        assert launches > 0, f"{any_tiny_workload.full_name} launches no children"

    def test_kernel_cached(self, any_tiny_workload):
        assert any_tiny_workload.kernel() is any_tiny_workload.kernel()

    def test_addresses_within_allocated_space(self, any_tiny_workload):
        w = any_tiny_workload
        top = w.space.total_bytes
        for body in walk_bodies(w.kernel().bodies):
            for _, lanes in body.accesses():
                if lanes:
                    assert max(lanes) < top
                    assert min(lanes) >= 0

    def test_warp_width_respected(self, any_tiny_workload):
        for body in walk_bodies(any_tiny_workload.kernel().bodies):
            assert all(0 < len(lanes) <= 32 for _, lanes in body.accesses())

    def test_resources_sane(self, any_tiny_workload):
        res = any_tiny_workload.kernel().resources
        assert 0 < res.threads <= 1024
        assert res.registers <= 65536

    def test_child_resources_match_or_are_valid(self, any_tiny_workload):
        for body in walk_bodies(any_tiny_workload.kernel().bodies):
            for spec in body.launches():
                assert 0 < spec.threads_per_tb <= 1024
                assert len(spec.bodies) >= 1


class TestDeterminism:
    @pytest.mark.parametrize("app,inp", TINY_PAIRS, ids=lambda p: str(p))
    def test_same_seed_same_trace(self, app, inp):
        a = make_workload(app, inp, scale="tiny", seed=11)
        b = make_workload(app, inp, scale="tiny", seed=11)
        ba, bb = walk_bodies(a.kernel().bodies), walk_bodies(b.kernel().bodies)
        assert len(ba) == len(bb)
        assert sum(x.instruction_count() for x in ba) == sum(x.instruction_count() for x in bb)
        assert [sorted(x.touched_lines()) for x in ba[:20]] == [
            sorted(x.touched_lines()) for x in bb[:20]
        ]

    def test_different_seed_differs(self):
        a = make_workload("bfs", "citation", scale="tiny", seed=1)
        b = make_workload("bfs", "citation", scale="tiny", seed=2)
        ia = sum(x.instruction_count() for x in walk_bodies(a.kernel().bodies))
        ib = sum(x.instruction_count() for x in walk_bodies(b.kernel().bodies))
        assert ia != ib


class TestGraphWorkloads:
    def test_inputs_change_locality_structure(self):
        """The three graph inputs must differ in trace structure."""
        counts = {}
        for inp in ("citation", "graph500", "cage15"):
            w = tiny_workload("bfs", inp) if inp == "citation" else make_workload("bfs", inp, scale="tiny")
            bodies = walk_bodies(w.kernel().bodies)
            counts[inp] = len(bodies)
        assert len(set(counts.values())) > 1

    def test_nested_launches_exist(self):
        w = make_workload("bfs", "cage15", scale="tiny")
        bodies = walk_bodies(w.kernel().bodies)
        nested = 0
        for body in bodies:
            for spec in body.launches():
                for child in spec.bodies:
                    if child.launches():
                        nested += 1
        assert nested > 0

    def test_each_vertex_expanded_at_most_once(self):
        w = make_workload("bfs", "cage15", scale="tiny")
        w.kernel()
        assert len(w._expanded) == w._next_desc


class TestSharedHelpers:
    def test_address_space_alloc_non_overlapping(self):
        from repro.workloads.base import AddressSpace

        space = AddressSpace()
        a = space.alloc("a", 100, elem_bytes=4)
        b = space.alloc("b", 50, elem_bytes=8)
        assert a.end <= b.base

    def test_address_space_rejects_duplicates(self):
        from repro.workloads.base import AddressSpace

        space = AddressSpace()
        space.alloc("x", 10)
        with pytest.raises(ValueError):
            space.alloc("x", 10)

    def test_array_bounds_checked(self):
        from repro.workloads.base import AddressSpace

        arr = AddressSpace().alloc("a", 10)
        with pytest.raises(IndexError):
            arr.addr(10)

    @pytest.mark.parametrize(
        "indices",
        [range(0, 10), range(3, 7), range(9, 10), range(0, 1)],
        ids=["whole", "middle", "last", "first"],
    )
    def test_range_addrs_match_list_path(self, indices):
        from repro.workloads.base import AddressSpace

        space = AddressSpace()
        space.alloc("pad", 3, elem_bytes=1)
        arr = space.alloc("a", 10, elem_bytes=8)
        assert arr.addrs(indices) == arr.addrs(list(indices))

    @pytest.mark.parametrize(
        "indices",
        [range(-2, 4), range(-1, 0), range(7, 12), range(10, 11), range(12, 15)],
        ids=["negative-start", "negative-only", "past-end", "at-end", "beyond-end"],
    )
    def test_range_addrs_raise_like_list_path(self, indices):
        from repro.workloads.base import AddressSpace

        arr = AddressSpace().alloc("a", 10)
        with pytest.raises(IndexError) as from_list:
            arr.addrs(list(indices))
        with pytest.raises(IndexError) as from_range:
            arr.addrs(indices)
        assert str(from_range.value) == str(from_list.value)

    @pytest.mark.parametrize(
        "indices",
        [[1.9, True], [1.0], np.array([0.5]), np.array([True, False]), ["1"]],
        ids=["float-and-bool", "integral-float", "float-array", "bool-array", "string"],
    )
    def test_non_integer_indices_raise(self, indices):
        from repro.workloads.base import Array

        arr = Array("x", 4096, 4, 10)
        with pytest.raises(TypeError, match="x indices must be integers"):
            arr.addrs(indices)

    def test_integer_indices_accepted(self):
        from repro.workloads.base import Array

        arr = Array("x", 4096, 4, 10)
        expected = [4100, 4108]
        assert arr.addrs([1, 3]) == expected
        assert arr.addrs(np.array([1, 3])) == expected
        assert arr.addrs(np.array([1, 3], dtype=np.uint16)) == expected
        assert arr.addrs([np.int32(1), 3]) == expected

    def test_empty_range_addrs(self):
        from repro.workloads.base import AddressSpace

        arr = AddressSpace().alloc("a", 10)
        assert arr.addrs(range(4, 4)) == []
        assert arr.addrs(range(20, 5)) == []

    def test_strided_range_addrs_use_numpy_path(self):
        from repro.workloads.base import AddressSpace

        arr = AddressSpace().alloc("a", 10, elem_bytes=4)
        assert arr.addrs(range(0, 10, 3)) == [arr.addr(i) for i in (0, 3, 6, 9)]
        assert arr.addrs(range(9, -1, -4)) == [arr.addr(i) for i in (9, 5, 1)]
        with pytest.raises(IndexError, match=r"a\[10\]"):
            arr.addrs(range(2, 12, 4))

    def test_warp_trace_chunks_wide_accesses(self):
        from repro.workloads.base import AddressSpace, WarpTrace

        arr = AddressSpace().alloc("a", 100)
        wt = WarpTrace()
        wt.load_range(arr, 0, 70)
        assert list(wt.ops) == [Op.LOAD] * 3
        assert list(wt.lane_counts) == [32, 32, 6]
        assert list(wt.lane_steps) == [arr.elem_bytes] * 3
        assert list(wt.lanes) == arr.addrs(range(0, 70, 32))
        lanes = [a for _, access in TBBody([wt]).accesses() for a in access]
        assert lanes == arr.addrs(range(70))

    def test_chunked(self):
        from repro.workloads.base import chunked

        assert chunked([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]
        with pytest.raises(ValueError):
            chunked([1], 0)


@pytest.mark.parametrize("app,inp", [("clr", "graph500"), ("amr", None), ("regx", "darpa")])
def test_building_creates_no_instr_objects(app, inp, monkeypatch):
    """Workloads build straight into the lowered columns: no per-instruction
    objects exist at any point of a build."""
    from repro.gpu import trace

    created = []
    original = trace.Instr.__init__

    def counting_init(self, *args, **kwargs):
        created.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(trace.Instr, "__init__", counting_init)
    trace.compute(1)  # the counter sees hand-written instructions
    assert len(created) == 1
    spec = make_workload(app, inp, scale="tiny").kernel()
    assert sum(b.instruction_count() for b in walk_bodies(spec.bodies)) > 0
    assert len(created) == 1
