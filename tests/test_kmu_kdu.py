"""Kernel management: KDU capacity and KMU admission policies."""

import random

import pytest

from repro.gpu.kdu import KDU
from repro.gpu.kernel import Kernel, KernelSpec, ResourceReq
from repro.gpu.kmu import KMU
from repro.gpu.trace import TBBody, compute


def make_kernel(priority=0, name="k"):
    spec = KernelSpec(
        name=name,
        bodies=[TBBody(warps=[[compute(1)]])],
        resources=ResourceReq(threads=32),
    )
    return Kernel(spec, priority=priority)


class TestKDU:
    def test_capacity(self):
        kdu = KDU(2)
        kdu.admit(make_kernel())
        kdu.admit(make_kernel())
        assert kdu.full
        with pytest.raises(RuntimeError):
            kdu.admit(make_kernel())

    def test_retire_frees_entry(self):
        kdu = KDU(1)
        k = make_kernel()
        kdu.admit(k)
        kdu.retire(k)
        assert kdu.free_entries == 1
        assert k not in kdu

    def test_high_water(self):
        kdu = KDU(4)
        a, b = make_kernel(), make_kernel()
        kdu.admit(a)
        kdu.admit(b)
        kdu.retire(a)
        assert kdu.high_water == 2

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            KDU(0)


class TestKMUFcfs:
    def test_admits_in_arrival_order(self):
        kdu = KDU(8)
        kmu = KMU(kdu, prioritized=False)
        admitted = []
        kmu.on_admit = lambda k, now: admitted.append(k.name)
        kmu.submit(make_kernel(priority=0, name="first"), 0)
        kmu.submit(make_kernel(priority=5, name="second"), 0)
        assert admitted == ["first", "second"]

    def test_queues_when_kdu_full(self):
        kdu = KDU(1)
        kmu = KMU(kdu, prioritized=False)
        kmu.submit(make_kernel(name="a"), 0)
        kmu.submit(make_kernel(name="b"), 0)
        assert kmu.pending_count == 1
        assert not kmu.drained

    def test_fill_after_retire(self):
        kdu = KDU(1)
        kmu = KMU(kdu, prioritized=False)
        a, b = make_kernel(name="a"), make_kernel(name="b")
        kmu.submit(a, 0)
        kmu.submit(b, 0)
        kdu.retire(a)
        kmu.fill_kdu(10)
        assert b in kdu
        assert kmu.drained

    def test_ignores_priority(self):
        kdu = KDU(1)
        kmu = KMU(kdu, prioritized=False)
        kmu.submit(make_kernel(name="low", priority=0), 0)
        kmu.submit(make_kernel(name="hi", priority=3), 0)
        kmu.submit(make_kernel(name="mid", priority=1), 0)
        kdu.retire(kdu.kernels[0])
        kmu.fill_kdu(0)
        # FCFS: 'hi' arrived before 'mid'; priority is irrelevant
        assert kdu.kernels[0].name == "hi"


class TestKMUPrioritized:
    def test_highest_priority_first(self):
        kdu = KDU(1)
        kmu = KMU(kdu, prioritized=True)
        kmu.submit(make_kernel(name="host", priority=0), 0)  # admitted (KDU empty)
        kmu.submit(make_kernel(name="lv1", priority=1), 0)
        kmu.submit(make_kernel(name="lv3", priority=3), 0)
        kdu.retire(kdu.kernels[0])
        kmu.fill_kdu(0)
        assert kdu.kernels[0].name == "lv3"

    def test_fcfs_within_level(self):
        kdu = KDU(1)
        kmu = KMU(kdu, prioritized=True)
        kmu.submit(make_kernel(name="blocker", priority=9), 0)
        kmu.submit(make_kernel(name="first", priority=2), 0)
        kmu.submit(make_kernel(name="second", priority=2), 0)
        kdu.retire(kdu.kernels[0])
        kmu.fill_kdu(0)
        assert kdu.kernels[0].name == "first"

    def test_pending_high_water(self):
        kdu = KDU(1)
        kmu = KMU(kdu)
        for i in range(4):
            kmu.submit(make_kernel(name=str(i)), 0)
        assert kmu.pending_high_water == 3


def reference_pick(pending, prioritized):
    """Linear-scan admission choice over ``(priority, seq, kernel)``
    entries: the earliest arrival under FCFS, else the highest priority,
    earliest arrival within a level."""
    if not prioritized:
        return min(range(len(pending)), key=lambda i: pending[i][1])
    return min(range(len(pending)), key=lambda i: (-pending[i][0], pending[i][1]))


@pytest.mark.parametrize("prioritized", [False, True], ids=["fcfs", "prioritized"])
@pytest.mark.parametrize("seed", range(6))
def test_heap_admission_matches_linear_scan(prioritized, seed):
    """Random submit/retire/fill sequences with mixed priorities admit
    kernels in exactly the order a linear scan of the backlog picks."""
    rng = random.Random(seed)
    kdu = KDU(rng.randint(1, 4))
    kmu = KMU(kdu, prioritized=prioritized)
    admitted = []
    kmu.on_admit = lambda k, now: admitted.append(k)
    # the reference model: its own backlog and KDU occupancy
    ref_pending, ref_resident, expected = [], [], []
    arrivals = 0

    def ref_fill():
        while ref_pending and len(ref_resident) < kdu.capacity:
            _, _, kernel = ref_pending.pop(reference_pick(ref_pending, prioritized))
            ref_resident.append(kernel)
            expected.append(kernel)

    for step in range(400):
        action = rng.random()
        if action < 0.55:
            kernel = make_kernel(priority=rng.randrange(5), name=f"k{arrivals}")
            ref_pending.append((kernel.priority, arrivals, kernel))
            arrivals += 1
            kmu.submit(kernel, step)
            ref_fill()
        elif action < 0.9 and kdu.kernels:
            victim = rng.choice(kdu.kernels)
            kdu.retire(victim)
            ref_resident.remove(victim)
            if rng.random() < 0.7:
                kmu.fill_kdu(step)
                ref_fill()
        else:
            kmu.fill_kdu(step)
            ref_fill()
        assert admitted == expected
        assert kmu.pending_count == len(ref_pending)
        assert kmu.drained == (not ref_pending)
    assert len(admitted) > 50
