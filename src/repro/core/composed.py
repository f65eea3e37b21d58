"""The composed dispatch engine hosting pluggable policy components.

:class:`ComposedScheduler` is the single dispatch loop behind every TB
scheduling policy in the repository. It owns the paper's one-TB-per-cycle
dispatch stage (Fig 6) and delegates the three decision points to its
components:

1. *which queue structure holds pending work and which TB an SMX sees
   first* — :class:`~repro.core.components.PlacementPolicy` (stages 1-2),
   parameterized by the :class:`~repro.core.components.PriorityPolicy`;
2. *what an otherwise-idle SMX may adopt* —
   :class:`~repro.core.components.StealPolicy` (stage 3);
3. *how many TBs an SMX admits at all* —
   :class:`~repro.core.components.ThrottleAdmission` (Section IV-F),
   which gates ``SMX.can_fit`` via the residency cap.

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

from typing import Optional, Sequence, Union

from repro.core.base import TBScheduler
from repro.core.components import (
    AnySMXPlacement,
    BackupSteal,
    BindPlacement,
    SchedulerSpec,
    ThrottleAdmission,
    canonical_name,
    make_admission,
    make_placement,
    make_priority,
    make_steal,
    parse_spec,
)
from repro.gpu.kernel import Kernel, ThreadBlock
from repro.telemetry.events import WorkStolen


class ComposedScheduler(TBScheduler):
    """One dispatch engine, four component slots.

    ``spec`` may be a :class:`SchedulerSpec` or a spec string
    (``"pri=level,bind=smx,steal=backup"``). ``throttle_params`` are
    forwarded to the :class:`ThrottleAdmission` component (only valid
    with ``admit=throttle``).
    """

    def __init__(
        self,
        spec: Union[SchedulerSpec, str],
        *,
        name: Optional[str] = None,
        **throttle_params,
    ) -> None:
        super().__init__()
        if isinstance(spec, str):
            spec = parse_spec(spec)
        self.spec = spec
        self.name = name or canonical_name(spec)
        self.priority = make_priority(spec.pri)
        self.placement = make_placement(spec.bind)
        self.steal = make_steal(spec.steal)
        self.admission = make_admission(spec.admit, **throttle_params)
        self.prioritized_kmu = self.priority.prioritized_kmu
        # purity propagation: dispatch is side-effect-free on idle cycles
        # unless a component declares a time-gated effect (throttling), in
        # which case the engine must keep calling dispatch every cycle
        self.idle_dispatch_pure = (
            self.admission is None or self.admission.idle_dispatch_pure
        )
        self.steals = 0
        self._smx_ptr = -1  # advanced before use: rotation starts at SMX 0

    def attach(self, engine) -> None:
        super().attach(engine)
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

    # ----- accounting --------------------------------------------------------
    @property
    def queue_high_water(self) -> int:
        return self.placement.queue_high_water

    @property
    def overflow_events(self) -> int:  # type: ignore[override]
        return self.placement.overflow_events

    @overflow_events.setter
    def overflow_events(self, value: int) -> None:
        # the base class initializes the counter; the placement's per-queue
        # counters are authoritative, so the assignment is accepted and
        # ignored
        pass

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
