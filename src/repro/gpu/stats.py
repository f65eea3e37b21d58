"""Simulation statistics.

`SimStats` is the one result object every experiment consumes: overall IPC,
L1/L2 hit rates, SMX load balance, and dynamic-parallelism timing metrics
(child dispatch latency, parent-SMX affinity).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from statistics import pstdev


@dataclass
class SimStats:
    """Aggregated results of one simulation run."""

    cycles: int = 0
    instructions: int = 0

    l1_accesses: int = 0
    l1_hits: int = 0
    l2_accesses: int = 0
    l2_hits: int = 0
    dram_accesses: int = 0
    dram_mean_latency: float = 0.0

    tbs_dispatched: int = 0
    child_tbs_dispatched: int = 0
    launches: int = 0

    #: always 0: the MSHR table has no capacity, so no fill is ever
    #: dropped. Kept only because the repository benchmark's tracer
    #: (``benchmarks/suite/spans.py``) still reads it.
    mshr_dropped: int = 0

    # sum over child TBs of (dispatched_at - created_at): how long children
    # waited from becoming schedulable to actually starting
    child_wait_total: int = 0
    # how many child TBs ran on the same SMX as their direct parent
    child_same_smx: int = 0
    # same-cluster co-location (== same_smx when clusters are single SMXs)
    child_same_cluster: int = 0

    per_smx_instructions: list[int] = field(default_factory=list)
    per_smx_busy_cycles: list[int] = field(default_factory=list)
    per_smx_tbs: list[int] = field(default_factory=list)

    scheduler_overflow_events: int = 0
    #: Adaptive-Bind stage-3 backup adoptions (0 for non-stealing policies)
    work_steals: int = 0
    #: most entries any scheduler priority-queue set ever held
    scheduler_queue_high_water: int = 0
    kdu_high_water: int = 0
    kmu_pending_high_water: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def l1_hit_rate(self) -> float:
        return self.l1_hits / self.l1_accesses if self.l1_accesses else 0.0

    @property
    def l2_hit_rate(self) -> float:
        return self.l2_hits / self.l2_accesses if self.l2_accesses else 0.0

    @property
    def child_mean_wait(self) -> float:
        """Mean cycles a dynamic TB waited before dispatch."""
        if not self.child_tbs_dispatched:
            return 0.0
        return self.child_wait_total / self.child_tbs_dispatched

    @property
    def child_same_smx_fraction(self) -> float:
        """Fraction of dynamic TBs co-located with their direct parent."""
        if not self.child_tbs_dispatched:
            return 0.0
        return self.child_same_smx / self.child_tbs_dispatched

    @property
    def child_same_cluster_fraction(self) -> float:
        """Fraction of dynamic TBs in their direct parent's L1 domain."""
        if not self.child_tbs_dispatched:
            return 0.0
        return self.child_same_cluster / self.child_tbs_dispatched

    @property
    def smx_load_imbalance(self) -> float:
        """Coefficient of variation of per-SMX instruction counts
        (0 = perfectly balanced)."""
        if not self.per_smx_instructions:
            return 0.0
        mean = sum(self.per_smx_instructions) / len(self.per_smx_instructions)
        if mean == 0:
            return 0.0
        return pstdev(self.per_smx_instructions) / mean

    @property
    def busy_cycles_gini(self) -> float:
        """Gini coefficient of per-SMX busy cycles (0 = perfectly even).

        The load-imbalance axis of Section IV-B/C: SMX-Bind concentrates
        dynamic families on their parents' SMXs (high Gini) and
        Adaptive-Bind's stealing flattens the distribution again.
        """
        from repro.telemetry.metrics import gini

        return gini(self.per_smx_busy_cycles)

    @property
    def smx_utilization(self) -> float:
        """Mean fraction of cycles each SMX's issue port was busy."""
        if not self.per_smx_busy_cycles or not self.cycles:
            return 0.0
        total = sum(self.per_smx_busy_cycles)
        return total / (len(self.per_smx_busy_cycles) * self.cycles)

    def to_dict(self) -> dict:
        """Lossless, JSON-safe view of every stored field.

        Derived metrics (``ipc``, hit rates, ...) are properties and are
        recomputed after :meth:`from_dict`, so the round trip preserves
        them exactly.
        """
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, list) else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SimStats":
        """Inverse of :meth:`to_dict`; rejects unknown fields."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown SimStats fields {unknown}; expected a subset of {sorted(known)}")
        return cls(**{k: list(v) if isinstance(v, (list, tuple)) else v for k, v in data.items()})

    def summary(self) -> str:
        return (
            f"cycles={self.cycles} instructions={self.instructions} ipc={self.ipc:.2f} "
            f"L1={self.l1_hit_rate:.3f} L2={self.l2_hit_rate:.3f} "
            f"util={self.smx_utilization:.3f} imbalance={self.smx_load_imbalance:.3f} "
            f"child_wait={self.child_mean_wait:.0f} same_smx={self.child_same_smx_fraction:.2f}"
        )
