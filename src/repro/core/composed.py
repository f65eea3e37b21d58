"""The one TB scheduler: a dispatch loop hosting pluggable components.

:class:`ComposedScheduler` is the single dispatch loop behind every TB
scheduling policy in the repository. It owns the paper's one-TB-per-cycle
dispatch stage (Fig 6) and builds, from its
:class:`~repro.core.components.SchedulerSpec`, the components behind the
three decision points:

1. *which queue structure holds pending work and which TB an SMX sees
   first* — :class:`~repro.core.components.AnySMXPlacement` or
   :class:`~repro.core.components.BindPlacement` (stages 1-2), whose
   queue levels follow the spec's ``pri`` axis;
2. *what an otherwise-idle SMX may adopt* —
   :class:`~repro.core.components.BackupSteal` (stage 3);
3. *how many TBs an SMX admits at all* —
   :class:`~repro.core.components.ThrottleAdmission` (Section IV-F),
   which gates ``SMX.can_fit`` via the residency cap.

The engine calls ``attach`` once, the ``on_kernel_arrival`` /
``on_tb_group`` hooks as work arrives, ``dispatch`` once per executed
cycle (at most one TB placed), ``has_pending`` to detect deadlock and
``detach`` when its run ends, and reads ``prioritized_kmu``,
``idle_dispatch_pure``, ``steals``, ``overflow_events`` and
``queue_high_water``.

The four paper schedulers are canonical compositions
(:data:`~repro.core.components.NAMED_COMPOSITIONS`); the composed forms
reproduce their simulated results bit-for-bit (pinned by
``tests/test_golden_equivalence.py``). The loop keeps the flattened
shape the event-driven engine's throughput work established: components
are resolved into locals once per dispatch call, uniform (unbound)
placements resolve their single candidate once per cycle, and the
all-empty fast path skips the SMX rotation entirely.
"""

from __future__ import annotations

from typing import Optional, Sequence, TYPE_CHECKING

from repro.core.components import (
    AnySMXPlacement,
    BackupSteal,
    BindPlacement,
    SchedulerSpec,
    ThrottleAdmission,
    canonical_name,
)
from repro.gpu.kernel import Kernel, ThreadBlock
from repro.telemetry.events import WorkStolen

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.engine import Engine
    from repro.gpu.smx import SMX


class ComposedScheduler:
    """One dispatch engine, component slots built from a spec.

    ``throttle_params`` are forwarded to the :class:`ThrottleAdmission`
    component (only valid with ``admit=throttle``).
    """

    def __init__(self, spec: SchedulerSpec, **throttle_params) -> None:
        self.spec = spec
        self.name = canonical_name(spec)
        #: whether the KMU admits device kernels highest-priority-first
        self.prioritized_kmu = spec.pri == "level"
        self.placement: AnySMXPlacement | BindPlacement = (
            AnySMXPlacement() if spec.bind == "any" else BindPlacement(spec.bind)
        )
        self.steal: Optional[BackupSteal] = (
            None if spec.steal == "none" else BackupSteal(fixed=spec.steal == "backup")
        )
        self.admission: Optional[ThrottleAdmission] = None
        if spec.admit == "throttle":
            self.admission = ThrottleAdmission(**throttle_params)
        elif throttle_params:
            raise ValueError("admission parameters need admit=throttle")
        #: True when a ``dispatch`` call that returns None would return
        #: None again, changing nothing observable, until a queue- or
        #: resource-changing event (delivery, kernel admission, TB retire,
        #: placement) occurs; the engine then skips dispatch until one
        #: does. The throttle's cap adjustment is a time-gated side effect
        #: inside dispatch, so a throttled scheduler is not pure.
        self.idle_dispatch_pure = self.admission is None
        self.engine: Optional["Engine"] = None
        #: TBs placed by stage-3 work stealing
        self.steals = 0
        self._smx_ptr = -1  # advanced before use: rotation starts at SMX 0

    def attach(self, engine: "Engine") -> None:
        self.engine = engine
        self.placement.setup(self, engine)
        if self.steal is not None:
            self.steal.setup(self, engine)
        if self.admission is not None:
            self.admission.setup(engine)
        # dispatch-stage constants (immutable after attach), hoisted out of
        # the per-cycle rotation
        self._smxs = engine.smxs
        self._overflow_penalty = engine.config.queue_overflow_penalty
        if self.admission is None:
            # no admission tick to run: let the engine call the stage
            # routine directly (the instance attribute shadows the method)
            self.dispatch = (
                self._dispatch_uniform if self.placement.uniform else self._dispatch_bound
            )

    def detach(self) -> None:
        """Drop every reference back to the engine or to this scheduler
        once the engine's run has ended (undoes :meth:`attach`), so no
        reference cycle runs through the scheduler. The counters stay."""
        self.engine = None
        vars(self).pop("dispatch", None)
        self.placement.detach()

    # ----- event hooks -----------------------------------------------------
    def on_kernel_arrival(self, kernel: Kernel, now: int) -> None:
        self.placement.enqueue_kernel(kernel, now)

    def on_tb_group(self, kernel: Kernel, tbs: Sequence[ThreadBlock], now: int) -> None:
        self.placement.enqueue_group(kernel, tbs, now)

    def has_pending(self) -> bool:
        return self.placement.has_pending()

    # ----- the per-cycle dispatch stage -------------------------------------
    def dispatch(self, now: int) -> Optional[ThreadBlock]:
        if self.admission is not None:
            self.admission.tick(now)
        if self.placement.uniform:
            return self._dispatch_uniform(now)
        return self._dispatch_bound(now)

    def _dispatch_uniform(self, now: int) -> Optional[ThreadBlock]:
        """Unbound placement: one global candidate, rotate SMXs until it
        fits (the baseline/TB-Pri dispatch stage)."""
        entry = self.placement.queue.head()
        if entry is None:
            return None
        tb = entry.peek()
        res = tb.resources
        threads, regs, smem = res.threads, res.registers, res.smem_bytes
        smxs = self._smxs
        num_smx = len(smxs)
        for i in range(1, num_smx + 1):
            smx_id = (self._smx_ptr + i) % num_smx
            smx = smxs[smx_id]
            # SMX.can_fit, inlined (hot rotation; kept in sync with smx.py)
            if (
                smx.free_tb_slots >= 1
                and len(smx.resident_tbs) < smx.dynamic_cap
                and smx.free_threads >= threads
                and smx.free_registers >= regs
                and smx.free_smem >= smem
            ):
                entry.pop()
                self._smx_ptr = smx_id
                return self._place(tb, smx, now)
        return None

    def _dispatch_bound(self, now: int) -> Optional[ThreadBlock]:
        """Bound placement: rotate SMXs, each examining its own queues
        (stage 1), the shared parent queue (stage 2) and — with a steal
        component — a victim's queues (stage 3). An SMX whose candidate
        does not fit does not block the other SMXs' dispatching."""
        placement = self.placement
        queues = placement.queues
        bound_any = False
        for queue in queues:
            if queue.entries:
                bound_any = True
                break
        placement.bound_any = bound_any
        steal = self.steal
        if steal is not None:
            steal.begin_dispatch()
        if not bound_any and not placement.global_queue:
            return None  # cheap all-empty fast path
        # stage 2 hoisted: the shared parent queue cannot change during the
        # rotation (only the final placement pops, which ends the call), so
        # its head — and the lazy drained-entry cleanup — is computed once
        shared = placement.global_head()
        domain_of = placement.domain_of
        smxs = self._smxs
        num_smx = len(smxs)
        for i in range(1, num_smx + 1):
            smx_id = (self._smx_ptr + i) % num_smx
            smx = smxs[smx_id]
            if smx.free_tb_slots == 0:
                continue
            # stage 1: the SMX's own (bound) queue set
            entry = None
            victim = None
            if bound_any:
                queue = queues[domain_of[smx_id]]
                if queue.entries:
                    entry = queue.head()
            if entry is None:
                entry = shared  # stage 2: shared parent queue
                if entry is None:
                    if steal is None:
                        continue
                    adopted = steal.candidate(smx_id)  # stage 3
                    if adopted is None:
                        continue
                    entry, victim = adopted
            tb = entry.peek()
            # SMX.can_fit, inlined (hot rotation; kept in sync with smx.py)
            res = tb.resources
            if not (
                len(smx.resident_tbs) < smx.dynamic_cap
                and smx.free_threads >= res.threads
                and smx.free_registers >= res.registers
                and smx.free_smem >= res.smem_bytes
            ):
                continue
            delay = entry.dispatch_penalty(self._overflow_penalty)
            entry.pop()
            self._smx_ptr = smx_id
            if victim is not None:
                # a steal counts once its TB is placed, not at the lookup
                self.steals += 1
                telemetry = self.engine.telemetry
                if telemetry.enabled:
                    telemetry.emit(
                        WorkStolen(
                            time=now,
                            thief_smx_id=smx_id,
                            victim_cluster=victim,
                            tb_id=tb.tb_id,
                            priority=tb.priority,
                        )
                    )
            return self._place(tb, smx, now, delay=delay)
        return None

    def _place(self, tb: ThreadBlock, smx: "SMX", now: int, *, delay: int = 0) -> ThreadBlock:
        smx.place(tb, now, start_delay=delay)
        self.engine.record_dispatch(tb, now)
        return tb

    # ----- accounting --------------------------------------------------------
    @property
    def queue_high_water(self) -> int:
        """Most entries any of the placement's queue sets ever held (0 for
        the baseline's kernel pool, which is not an accounted queue)."""
        return self.placement.queue_high_water

    @property
    def overflow_events(self) -> int:
        return self.placement.overflow_events

    @property
    def adjustments(self) -> int:
        """Residency-cap adjustments of the throttle component (0 without)."""
        return self.admission.adjustments if self.admission is not None else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.spec.canonical!r})"


__all__ = [
    "AnySMXPlacement",
    "BackupSteal",
    "BindPlacement",
    "ComposedScheduler",
    "SchedulerSpec",
    "ThrottleAdmission",
]
