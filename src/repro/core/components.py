"""Composable scheduler components and the policy spec grammar.

LaPerm's three variants are compositional: TB-Pri ⊂ SMX-Bind ⊂
Adaptive-Bind is priority assignment + placement binding + work stealing
stacked onto the same dispatch loop (paper Fig 6). This module makes
that structure explicit. A scheduler is a :class:`SchedulerSpec` — one
choice along each of four orthogonal axes — hosted by
:class:`~repro.core.composed.ComposedScheduler`:

``pri``
    Priority assignment: ``fifo`` (arrival order, the baseline KMU) or
    ``level`` (nesting level, paper Section IV-A).
``bind``
    Placement binding: ``any`` (any SMX, round-robin), ``smx`` (the
    direct parent's SMX/L1-cluster, Section IV-B) or ``l2`` (the
    parent's L2 neighborhood — a coarser cluster that trades L1 affinity
    for load balance while keeping L2 temporal reuse).
``steal``
    Work stealing: ``none``, ``backup`` (fixed-backup adoption, Section
    IV-C) or ``rescan`` (the ablated re-scan-every-time variant).
``admit``
    Admission control: ``none`` or ``throttle`` (contention-aware TB
    throttling, Section IV-F / [12]).

Specs parse from a compact grammar — ``"pri=level,bind=smx,steal=backup"``
— and the four paper schedulers are canonical compositions
(:data:`NAMED_COMPOSITIONS`): the grammar reaches every point of the
paper's design space plus the hybrids it never evaluated. See
docs/schedulers.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, TYPE_CHECKING

from repro.core.queues import Entry, MultiLevelQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.composed import ComposedScheduler
    from repro.gpu.engine import Engine
    from repro.gpu.kernel import Kernel, ThreadBlock

# --- the spec grammar ---------------------------------------------------------

#: recognized values per axis (the baseline first)
_AXIS_VALUES = {
    "pri": ("fifo", "level"),
    "bind": ("any", "smx", "l2"),
    "steal": ("none", "backup", "rescan"),
    "admit": ("none", "throttle"),
}

_AXES = tuple(_AXIS_VALUES)


@dataclass(frozen=True)
class SchedulerSpec:
    """One point in the scheduler design space (validated on construction)."""

    pri: str = "fifo"
    bind: str = "any"
    steal: str = "none"
    admit: str = "none"

    def __post_init__(self) -> None:
        for axis in _AXES:
            value = getattr(self, axis)
            allowed = sorted(_AXIS_VALUES[axis])
            if value not in allowed:
                raise ValueError(
                    f"unknown {axis}={value!r}; expected one of {allowed}"
                )
        if self.steal != "none" and self.bind == "any":
            raise ValueError(
                f"steal={self.steal} needs bound queues to steal from; "
                "combine it with bind=smx or bind=l2"
            )

    @property
    def canonical(self) -> str:
        """Normalized spec string (all four axes, fixed order)."""
        return ",".join(f"{axis}={getattr(self, axis)}" for axis in _AXES)

    def with_throttle(self) -> "SchedulerSpec":
        return replace(self, admit="throttle")


#: The named compositions: the four paper schedulers plus the composed
#: policies the grammar unlocks, in report order (baseline first).
NAMED_COMPOSITIONS: dict[str, SchedulerSpec] = {
    "rr": SchedulerSpec(),
    "tb-pri": SchedulerSpec(pri="level"),
    "smx-bind": SchedulerSpec(pri="level", bind="smx"),
    "adaptive-bind": SchedulerSpec(pri="level", bind="smx", steal="backup"),
    "l2-bind": SchedulerSpec(pri="level", bind="l2"),
    "adaptive-l2": SchedulerSpec(pri="level", bind="l2", steal="backup"),
}

_SPEC_TO_NAME = {spec: name for name, spec in NAMED_COMPOSITIONS.items()}


def parse_spec(text: str) -> SchedulerSpec:
    """Parse ``"pri=level,bind=smx,steal=backup"`` into a spec.

    Axes default to the baseline (``pri=fifo,bind=any,steal=none,
    admit=none``).
    """
    values: dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, raw = part.partition("=")
        key = key.strip()
        if not sep or key not in _AXIS_VALUES:
            raise ValueError(
                f"bad spec component {part!r}; expected key=value with a key "
                f"from {list(_AXES)}"
            )
        if key in values:
            raise ValueError(f"duplicate spec key {key!r} in {text!r}")
        values[key] = raw.strip()
    if not values:
        raise ValueError(f"empty scheduler spec {text!r}")
    return SchedulerSpec(**values)


def resolve_scheduler(name: str) -> tuple[str, SchedulerSpec]:
    """Resolve a scheduler name or spec string to ``(canonical name, spec)``.

    Accepts the named compositions (``"adaptive-bind"``), spec strings
    (``"pri=level,bind=smx,steal=backup"``), and a ``+throttle`` suffix
    on either. The canonical name of a spec that matches a named
    composition is that name, so equal schedulers share one label (and
    therefore one result-cache address) no matter how they were spelled.
    """
    base, _, modifier = name.partition("+")
    base = base.strip()
    if modifier and modifier != "throttle":
        raise ValueError(f"unknown scheduler modifier {modifier!r}")
    if "=" in base:
        spec = parse_spec(base)
    else:
        try:
            spec = NAMED_COMPOSITIONS[base]
        except KeyError:
            raise ValueError(
                f"unknown scheduler {name!r}; expected one of "
                f"{sorted(NAMED_COMPOSITIONS)}, a spec string like "
                "'pri=level,bind=smx,steal=backup', optionally suffixed "
                "with '+throttle'"
            ) from None
    if modifier:
        spec = spec.with_throttle()
    return canonical_name(spec), spec


def canonical_name(spec: SchedulerSpec) -> str:
    """Shortest stable label for a spec: the composition name if it has
    one (with ``+throttle`` for the throttled variant), else the
    canonical spec string."""
    base = replace(spec, admit="none")
    named = _SPEC_TO_NAME.get(base)
    if named is None:
        return spec.canonical
    return f"{named}+throttle" if spec.admit == "throttle" else named


def canonical_scheduler_name(name: str) -> str:
    """Normalize any accepted scheduler spelling to its canonical label."""
    canonical, _ = resolve_scheduler(name)
    return canonical


def describe_components() -> dict[str, list[str]]:
    """Axis -> canonical value choices, for ``repro list`` and docs."""
    return {axis: sorted(values) for axis, values in _AXIS_VALUES.items()}


# --- placements ---------------------------------------------------------------


class _PoolEntry(Entry):
    """Queue row over a kernel's *live* TB pool (grows with DTBL groups).

    Unlike a snapshot :class:`Entry`, the cursor walks ``kernel.tbs``
    itself, so a kernel whose pool was temporarily exhausted regains its
    arrival-order turn when a group lands — exactly the baseline
    round-robin semantics."""

    __slots__ = ("kernel",)

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.tbs = kernel.tbs  # shared, not copied: the pool may grow
        self.cursor = 0
        self.level = 0
        self.overflow = False
        self.fetched = False


class KernelPool:
    """FCFS pool of kernels with per-kernel dispatch cursors.

    The head is the earliest-arrived kernel with an undispatched TB; a
    kernel is forgotten only once it is *complete* (all TBs retired, no
    launches in flight), because a running kernel may still append DTBL
    groups to its own pool."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: list[_PoolEntry] = []

    def add(self, kernel: Kernel) -> None:
        self._entries.append(_PoolEntry(kernel))

    def head(self) -> Optional[_PoolEntry]:
        entries = self._entries
        while entries and entries[0].kernel.complete:
            entries.pop(0)
        for entry in entries:
            if entry.cursor < len(entry.tbs):
                return entry
        return None


class AnySMXPlacement:
    """No binding: one global work structure, SMXs drained round-robin.

    The structure follows the priority axis: ``pri=fifo`` keeps the
    baseline's kernel-arrival pool (Section II-B), ``pri=level`` the
    global multi-level queue of Fig 5(a/b). Queues live in global memory:
    no on-chip capacity limit, no overflow penalty (Section IV-E)."""

    __slots__ = ("queue",)
    #: every SMX sees the same candidate: the dispatch loop resolves it
    #: once per cycle
    uniform = True
    overflow_events = 0

    def setup(self, scheduler: "ComposedScheduler", engine: "Engine") -> None:
        if scheduler.spec.pri == "fifo":
            self.queue: KernelPool | MultiLevelQueue = KernelPool()
        else:
            self.queue = MultiLevelQueue(engine.config.max_priority_levels)

    def enqueue_kernel(self, kernel: Kernel, now: int) -> None:
        queue = self.queue
        if isinstance(queue, KernelPool):
            queue.add(kernel)
        else:
            queue.push(Entry(list(kernel.tbs), kernel.priority), now)

    def enqueue_group(self, kernel: Kernel, tbs: Sequence[ThreadBlock], now: int) -> None:
        queue = self.queue
        if isinstance(queue, KernelPool):
            # the group was appended to the kernel's live pool; the FCFS
            # cursor reaches it after the native TBs — nothing to do
            return
        queue.push(Entry(tbs, tbs[0].priority), now)

    def has_pending(self) -> bool:
        return self.queue.head() is not None

    def detach(self) -> None:
        """Nothing to drop: this placement holds no hooks."""

    @property
    def queue_high_water(self) -> int:
        queue = self.queue
        # the kernel pool is a bookkeeping list, not an accounted hardware
        # queue — only the multi-level queue reports a high-water mark
        return queue.entry_high_water if isinstance(queue, MultiLevelQueue) else 0


class BindPlacement:
    """Bind dynamic TBs to their direct parent's SMX neighborhood.

    One multi-level queue set per *domain* — the parent's L1 cluster
    (``bind=smx``, paper Section IV-B) or its L2 neighborhood
    (``bind=l2``, a group of L1 clusters sized by
    ``GPUConfig.smxs_per_l2_cluster``). Host-launched kernels stay in a
    shared level-0 FCFS queue. The on-chip SRAM backing the queue sets is
    finite; entries past the capacity overflow to global memory and pay
    ``queue_overflow_penalty`` on first dispatch. With ``pri=fifo`` every
    entry queues at level 0; with ``pri=level`` at its nesting level
    (Section IV-A)."""

    __slots__ = ("name", "queues", "global_queue", "domain_of", "bound_any", "_levels")
    uniform = False

    def __init__(self, name: str) -> None:
        if name not in ("smx", "l2"):
            raise ValueError(f"unknown bind domain {name!r}")
        self.name = name

    def setup(self, scheduler: "ComposedScheduler", engine: "Engine") -> None:
        from collections import deque

        self._levels = scheduler.spec.pri == "level"
        config = engine.config
        # the on-chip SRAM holds 128 entries per SMX for DTBL groups but is
        # limited to the 32 KDU entries when the dynamic units are CDP
        # kernels (Section IV-E); one queue set per domain
        capacity = 32 if engine.dynpar.name == "cdp" else config.onchip_queue_entries
        if self.name == "smx":
            num_domains = config.num_clusters
            self.domain_of = [config.cluster_of(i) for i in range(config.num_smx)]
        else:
            num_domains = config.num_l2_clusters
            self.domain_of = [config.l2_cluster_of(i) for i in range(config.num_smx)]
        self.queues = [
            MultiLevelQueue(config.max_priority_levels, capacity=capacity)
            for _ in range(num_domains)
        ]
        self.global_queue: "deque[Entry]" = deque()
        # True when any bound queue held entries at the start of the current
        # dispatch call; queues only gain entries between dispatch calls, so
        # the flag is valid for the whole SMX rotation
        self.bound_any = True
        telemetry = engine.telemetry
        if telemetry.enabled:
            from repro.telemetry.events import QueueOverflow

            for domain, queue in enumerate(self.queues):
                queue.on_overflow = (
                    lambda entry, now, _c=domain, _q=queue: telemetry.emit(
                        QueueOverflow(
                            time=now,
                            cluster=_c,
                            level=entry.level,
                            total_entries=_q.entries + 1,
                        )
                    )
                )

    def detach(self) -> None:
        """Drop the telemetry hooks: each one holds its own queue."""
        for queue in self.queues:
            queue.on_overflow = None

    def _bind_domain(self, parent: Optional[ThreadBlock]) -> int:
        if parent is None or parent.smx_id is None:
            raise RuntimeError("dynamic work arrived without a placed direct parent")
        return self.domain_of[parent.smx_id]

    def enqueue_kernel(self, kernel: Kernel, now: int) -> None:
        if kernel.parent is None:
            self.global_queue.append(Entry(list(kernel.tbs), 0))
        else:
            domain = self._bind_domain(kernel.parent)
            level = kernel.priority if self._levels else 0
            self.queues[domain].push(Entry(list(kernel.tbs), level), now)

    def enqueue_group(self, kernel: Kernel, tbs: Sequence[ThreadBlock], now: int) -> None:
        domain = self._bind_domain(tbs[0].parent)
        level = tbs[0].priority if self._levels else 0
        self.queues[domain].push(Entry(tbs, level), now)

    def global_head(self) -> Optional[Entry]:
        queue = self.global_queue
        while queue and queue[0].empty:
            queue.popleft()
        return queue[0] if queue else None

    def has_pending(self) -> bool:
        if self.global_head() is not None:
            return True
        return any(q.head() is not None for q in self.queues)

    @property
    def queue_high_water(self) -> int:
        return max((q.entry_high_water for q in self.queues), default=0)

    @property
    def overflow_events(self) -> int:
        return sum(q.overflow_events for q in self.queues)


# --- work stealing ------------------------------------------------------------


class BackupSteal:
    """Stage 3 of the Fig 6 flow: adopt another domain's queue set when
    stages 1-2 come up empty.

    With ``fixed=True`` (Section IV-C's design choice) the victim is
    recorded and drained before re-scanning, which keeps stolen siblings
    together on the thief SMX and bounds reconfiguration churn;
    ``fixed=False`` is the ablated re-scan-every-time variant."""

    __slots__ = ("fixed", "_backup", "_stage3_dry", "_placement")

    def __init__(self, fixed: bool = True) -> None:
        self.fixed = fixed
        self._backup: list[Optional[int]] = []

    def setup(self, scheduler: "ComposedScheduler", engine: "Engine") -> None:
        # SchedulerSpec rejects stealing without binding
        self._placement: BindPlacement = scheduler.placement
        self._backup = [None] * engine.config.num_smx
        # True once a scan found no victim during the current dispatch
        # call; no queue gains a head mid-call, so later probes in the
        # same rotation skip the scan (reset by begin_dispatch)
        self._stage3_dry = False

    def begin_dispatch(self) -> None:
        """Reset per-dispatch-call scan state."""
        self._stage3_dry = False

    def candidate(self, smx_id: int) -> Optional[tuple[Entry, int]]:
        """The entry SMX ``smx_id`` may adopt and its victim domain, or
        None. The scheduler counts a steal only when it places the TB."""
        placement = self._placement
        queues = placement.queues
        if not placement.bound_any or self._stage3_dry:
            # no bound queue holds entries anywhere (or this dispatch call
            # already scanned dry): the recorded backup (if any) is drained
            # and the scan below would find nothing
            self._backup[smx_id] = None
            return None
        recorded = self._backup[smx_id] if self.fixed else None
        if recorded is not None:
            entry = queues[recorded].head()
            if entry is not None:
                return entry, recorded
            self._backup[smx_id] = None
        # find and record the next non-empty queue set, scanning from the
        # current SMX's own domain onward so steals spread across victims;
        # the O(1) entry counter skips drained queue sets without paying
        # head()'s per-level walk
        own = placement.domain_of[smx_id]
        num_domains = len(queues)
        for i in range(1, num_domains + 1):
            victim = (own + i) % num_domains
            queue = queues[victim]
            if not queue.entries or victim == own:
                continue
            entry = queue.head()
            if entry is not None:
                self._backup[smx_id] = victim
                return entry, victim
        self._stage3_dry = True
        return None


# --- admission policies -------------------------------------------------------


class ThrottleAdmission:
    """Contention-aware TB throttling (paper Section IV-F, after [12]).

    Periodically adjusts each SMX's residency cap from its windowed L1
    hit rate: below ``low_watermark`` the cap shrinks (less thrashing),
    above ``high_watermark`` it grows (more parallelism). Only
    ``SMX.can_fit`` admission changes — exactly as a hardware pause
    signal would; the dispatch pipeline is untouched."""

    __slots__ = (
        "interval",
        "low_watermark",
        "high_watermark",
        "min_cap",
        "min_window_accesses",
        "adjustments",
        "_next_adjust",
        "_snapshots",
        "_smxs",
        "_l1s",
        "_max_cap",
    )

    def __init__(
        self,
        *,
        interval: int = 2048,
        low_watermark: float = 0.25,
        high_watermark: float = 0.55,
        min_cap: int = 2,
        min_window_accesses: int = 32,
    ) -> None:
        if interval < 1:
            raise ValueError("interval must be positive")
        if not 0.0 <= low_watermark <= high_watermark <= 1.0:
            raise ValueError("need 0 <= low_watermark <= high_watermark <= 1")
        self.interval = interval
        self.low_watermark = low_watermark
        self.high_watermark = high_watermark
        self.min_cap = min_cap
        self.min_window_accesses = min_window_accesses
        self._next_adjust = interval
        # per-SMX L1 counter snapshots for windowed hit rates
        self._snapshots: list[tuple[int, int]] = []
        self.adjustments = 0

    def setup(self, engine: "Engine") -> None:
        # the SMXs and their L1s, not the engine: holding the engine would
        # close a reference cycle through the scheduler
        self._smxs = engine.smxs
        self._l1s = engine.memory.l1s
        self._max_cap = engine.config.max_tbs_per_smx
        self._snapshots = [(0, 0)] * engine.config.num_smx

    def _adjust_caps(self) -> None:
        max_cap = self._max_cap
        for smx in self._smxs:
            l1 = self._l1s[smx.smx_id].stats
            last_hits, last_accesses = self._snapshots[smx.smx_id]
            accesses = l1.accesses - last_accesses
            hits = l1.hits - last_hits
            self._snapshots[smx.smx_id] = (l1.hits, l1.accesses)
            if accesses < self.min_window_accesses:
                continue  # not enough signal in this window
            hit_rate = hits / accesses
            if hit_rate < self.low_watermark and smx.dynamic_cap > self.min_cap:
                smx.dynamic_cap -= 1
                self.adjustments += 1
            elif hit_rate > self.high_watermark and smx.dynamic_cap < max_cap:
                smx.dynamic_cap += 1
                self.adjustments += 1

    def tick(self, now: int) -> None:
        if now >= self._next_adjust:
            self._adjust_caps()
            self._next_adjust = now + self.interval
