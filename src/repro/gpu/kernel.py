"""Runtime kernel and thread-block objects.

A :class:`KernelSpec` is the static description a workload produces (name,
thread-block bodies, per-TB resource needs). At simulation time the engine
or the dynamic-parallelism model instantiates a :class:`Kernel`, whose
:class:`ThreadBlock` objects carry the runtime state the schedulers care
about: priority, direct parent, assigned SMX, and dispatch/retire times.

A kernel lists its thread blocks and each thread block points back at its
kernel. The engine that created a kernel empties that list when its run
ends, which leaves no reference cycle behind: a TB's parent is always an
older TB, so parent links never close one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.gpu.trace import LaunchSpec, TBBody

_tb_ids = itertools.count()
_kernel_ids = itertools.count()


def _reset_id_counters() -> None:
    """Reset global id counters (test isolation helper)."""
    global _tb_ids, _kernel_ids
    _tb_ids = itertools.count()
    _kernel_ids = itertools.count()


@dataclass(frozen=True)
class ResourceReq:
    """Per-thread-block resource requirement."""

    threads: int = 256
    regs_per_thread: int = 24
    smem_bytes: int = 0

    @property
    def warps(self) -> int:
        return (self.threads + 31) // 32

    @property
    def registers(self) -> int:
        return self.threads * self.regs_per_thread


@dataclass
class KernelSpec:
    """Static description of a host-launched kernel."""

    name: str
    bodies: list[TBBody]
    resources: ResourceReq = field(default_factory=ResourceReq)

    def __post_init__(self) -> None:
        if not self.bodies:
            raise ValueError("a kernel needs at least one thread block")


class TBState(Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"


class ThreadBlock:
    """One runtime thread block."""

    __slots__ = (
        "tb_id",
        "body",
        "kernel",
        "index",
        "priority",
        "parent",
        "state",
        "smx_id",
        "created_at",
        "dispatched_at",
        "retired_at",
        "active_warps",
        "from_overflow",
    )

    def __init__(
        self,
        body: TBBody,
        kernel: "Kernel",
        index: int,
        *,
        priority: int = 0,
        parent: Optional["ThreadBlock"] = None,
        created_at: int = 0,
    ) -> None:
        self.tb_id = next(_tb_ids)
        self.body = body
        self.kernel = kernel
        self.index = index
        self.priority = priority
        self.parent = parent
        self.state = TBState.PENDING
        self.smx_id: Optional[int] = None
        self.created_at = created_at
        self.dispatched_at: Optional[int] = None
        self.retired_at: Optional[int] = None
        self.active_warps = 0
        # set by a scheduler when this TB's queue entry lived in the
        # global-memory overflow area rather than on-chip SRAM
        self.from_overflow = False

    @property
    def is_dynamic(self) -> bool:
        """True for device-launched (child) thread blocks."""
        return self.parent is not None

    @property
    def resources(self) -> ResourceReq:
        return self.kernel.resources

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TB(id={self.tb_id}, kernel={self.kernel.name!r}, idx={self.index}, "
            f"prio={self.priority}, state={self.state.value})"
        )


class Kernel:
    """One runtime kernel: a growable pool of thread blocks.

    Host kernels are created from a :class:`KernelSpec` before simulation.
    CDP device kernels are created at launch-delivery time. DTBL thread
    block *groups* do not create kernels — they append to an existing
    kernel's pool via :meth:`append_group`.
    """

    def __init__(
        self,
        spec: KernelSpec,
        *,
        priority: int = 0,
        parent: Optional[ThreadBlock] = None,
        created_at: int = 0,
    ) -> None:
        self.kernel_id = next(_kernel_ids)
        self.name = spec.name
        self.resources = spec.resources
        self.priority = priority
        self.parent = parent
        self.created_at = created_at
        self.tbs: list[ThreadBlock] = []
        self.retired_tbs = 0
        # launches issued by this kernel's TBs that have not yet been
        # delivered (keeps DTBL parent kernels alive until groups arrive)
        self.pending_launches = 0
        for i, body in enumerate(spec.bodies):
            self.tbs.append(
                ThreadBlock(body, self, i, priority=priority, parent=parent, created_at=created_at)
            )

    @property
    def is_device_kernel(self) -> bool:
        return self.parent is not None

    @property
    def num_tbs(self) -> int:
        return len(self.tbs)

    def append_group(
        self, spec: LaunchSpec, *, priority: int, parent: ThreadBlock, now: int
    ) -> list[ThreadBlock]:
        """Append a DTBL thread-block group to this kernel's pool."""
        group = []
        base = len(self.tbs)
        for i, body in enumerate(spec.bodies):
            tb = ThreadBlock(
                body, self, base + i, priority=priority, parent=parent, created_at=now
            )
            self.tbs.append(tb)
            group.append(tb)
        return group

    def matches(self, spec: LaunchSpec) -> bool:
        """Whether a DTBL group can coalesce onto this kernel."""
        res = self.resources
        return (
            res.threads == spec.threads_per_tb
            and res.regs_per_thread == spec.regs_per_thread
            and res.smem_bytes == spec.smem_per_tb
        )

    @property
    def complete(self) -> bool:
        """All created TBs retired and no launches still in flight."""
        return self.retired_tbs == len(self.tbs) and self.pending_launches == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Kernel(id={self.kernel_id}, name={self.name!r}, prio={self.priority}, "
            f"tbs={len(self.tbs)}, retired={self.retired_tbs})"
        )


def spec_from_launch(launch: LaunchSpec) -> KernelSpec:
    """Turn a device launch into a kernel spec (the CDP path)."""
    return KernelSpec(
        name=launch.name,
        bodies=launch.bodies,
        resources=ResourceReq(
            threads=launch.threads_per_tb,
            regs_per_thread=launch.regs_per_thread,
            smem_bytes=launch.smem_per_tb,
        ),
    )
