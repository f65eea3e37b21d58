"""GPU hardware configuration.

The default values mirror Table I of the paper: a Kepler K20c-class GPU
(GK110, compute capability 3.5) as modelled in GPGPU-Sim — 13 SMXs, up to
2048 resident threads / 16 thread blocks / 65536 registers / 32 KB of
shared memory per SMX, a 32 KB L1 per SMX, a 1536 KB shared L2, 128-byte
cache lines, and at most 32 concurrently resident kernels.

Timing parameters (cache / DRAM latencies, launch latencies) are not given
in the paper; the defaults follow the commonly used GPGPU-Sim Kepler
configuration and the CDP/DTBL launch-latency measurements cited by the
paper ([15], [16]). Every knob is a plain dataclass field so experiments
can sweep it, except the line size, which the trace format fixes at
``LINE_BYTES``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace


#: the one cache-line size: Table I's 128 B, which traces are lowered at
#: when they are built (repro.gpu.trace) and which no machine may change
LINE_BYTES = 128


def canonical_json(obj) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace): the text
    config fingerprints and cache keys hash."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int
    line_bytes: int = LINE_BYTES
    associativity: int = 8
    hit_latency: int = 0  # extra cycles on top of the level below's latency

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ValueError(
                f"cache size {self.size_bytes} is not divisible by "
                f"line_bytes*associativity={self.line_bytes * self.associativity}"
            )

    def to_dict(self) -> dict:
        """Lossless, JSON-safe view; inverse of :meth:`from_dict`."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "CacheConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown CacheConfig fields {unknown}")
        return cls(**data)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity


@dataclass(frozen=True)
class GPUConfig:
    """Complete machine description for one simulation.

    Instances are immutable; derive variants with :meth:`with_overrides`.
    """

    # --- Table I: compute resources -------------------------------------
    num_smx: int = 13
    # SMXs per cluster: on cluster-organized GPUs the L1 is shared by all
    # SMXs of a cluster and LaPerm binds children to the whole cluster
    # (paper Section IV-B, [25]); 1 = private L1 per SMX (Kepler)
    smxs_per_cluster: int = 1
    # SMXs per L2 neighborhood: the coarser grouping used by the composed
    # ``bind=l2`` placement (children bind to any SMX of their parent's L2
    # neighborhood). Rounded up to whole L1 clusters; the last group takes
    # the remainder when num_smx does not divide evenly.
    smxs_per_l2_cluster: int = 4
    max_threads_per_smx: int = 2048
    max_tbs_per_smx: int = 16
    max_registers_per_smx: int = 65536
    shared_mem_per_smx: int = 32 * 1024
    warp_size: int = 32

    # --- Table I: memory system -----------------------------------------
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(size_bytes=32 * 1024, associativity=4))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(size_bytes=1536 * 1024, associativity=16))
    # always LINE_BYTES; the field stays so that config fingerprints, and
    # with them every result-cache address, do not move
    line_bytes: int = LINE_BYTES

    # latencies, in SMX clock cycles, for a load that is satisfied at
    # the named level (GPGPU-Sim Kepler-era defaults)
    l1_hit_latency: int = 30
    l2_hit_latency: int = 190
    dram_latency: int = 420
    # how many outstanding DRAM transactions complete per cycle (bandwidth
    # proxy: Kepler ~250 GB/s at 0.7 GHz core clock ≈ 2.8 lines/cycle)
    dram_lines_per_cycle: float = 2.0
    # MSHR-style miss merging: a miss on a line already being fetched joins
    # the in-flight fill instead of issuing a duplicate DRAM transaction
    mshr_merging: bool = True

    # --- kernel management ------------------------------------------------
    kdu_entries: int = 32  # max concurrently resident kernels
    max_priority_levels: int = 4  # L: nesting levels beyond which priority clamps
    onchip_queue_entries: int = 128  # per-SMX on-chip SRAM priority-queue slots
    # penalty (cycles) for dispatching a TB whose descriptor overflowed to
    # the global-memory backing store of the priority queues
    queue_overflow_penalty: int = 420

    # --- dynamic parallelism launch latencies -----------------------------
    # cycles between the launch instruction issuing and the child becoming
    # schedulable.  CDP goes through the software/KMU path ([15] measures
    # microseconds); DTBL is a lightweight hardware path ([16]).
    cdp_launch_latency: int = 4000
    dtbl_launch_latency: int = 250

    # --- warp scheduling ---------------------------------------------------
    # "gto" (greedy-then-oldest) or "lrr" (loose round-robin)
    warp_scheduler: str = "gto"

    def __post_init__(self) -> None:
        if self.num_smx < 1:
            raise ValueError("need at least one SMX")
        if self.smxs_per_cluster < 1 or self.num_smx % self.smxs_per_cluster:
            raise ValueError("num_smx must be a multiple of smxs_per_cluster")
        if self.smxs_per_l2_cluster < 1:
            raise ValueError("smxs_per_l2_cluster must be positive")
        if self.line_bytes != LINE_BYTES:
            raise ValueError(
                f"GPUConfig.line_bytes must be {LINE_BYTES}, the line size traces "
                f"are lowered at, not {self.line_bytes}"
            )
        if self.l1.line_bytes != self.line_bytes or self.l2.line_bytes != self.line_bytes:
            raise ValueError("L1/L2 line size must match GPUConfig.line_bytes")
        if self.warp_scheduler not in ("gto", "lrr"):
            raise ValueError(f"unknown warp scheduler {self.warp_scheduler!r}")

    @property
    def num_clusters(self) -> int:
        return self.num_smx // self.smxs_per_cluster

    def cluster_of(self, smx_id: int) -> int:
        """Cluster index of an SMX."""
        return smx_id // self.smxs_per_cluster

    @property
    def _clusters_per_l2_group(self) -> int:
        """Whole L1 clusters per L2 neighborhood (at least one)."""
        return max(1, self.smxs_per_l2_cluster // self.smxs_per_cluster)

    @property
    def num_l2_clusters(self) -> int:
        """Number of L2 neighborhoods (``bind=l2`` placement domains)."""
        per_group = self._clusters_per_l2_group
        return (self.num_clusters + per_group - 1) // per_group

    def l2_cluster_of(self, smx_id: int) -> int:
        """L2 neighborhood index of an SMX (whole-L1-cluster granular)."""
        return self.cluster_of(smx_id) // self._clusters_per_l2_group

    def with_overrides(self, **kwargs) -> "GPUConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        """Lossless, JSON-safe view of the full machine description.

        Nested :class:`CacheConfig` fields become nested dicts; the
        round trip through :meth:`from_dict` reproduces an equal
        ``GPUConfig`` (both are frozen dataclasses with value equality).
        """
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.to_dict() if isinstance(value, CacheConfig) else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "GPUConfig":
        """Inverse of :meth:`to_dict`; rejects unknown fields."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown GPUConfig fields {unknown}; expected a subset of {sorted(known)}")
        kwargs = dict(data)
        for name in ("l1", "l2"):
            if name in kwargs and isinstance(kwargs[name], dict):
                kwargs[name] = CacheConfig.from_dict(kwargs[name])
        return cls(**kwargs)

    def describe(self) -> str:
        """Render the configuration as a Table-I style listing."""
        rows = [
            ("SMXs", str(self.num_smx)),
            ("Threads / SMX", str(self.max_threads_per_smx)),
            ("TBs / SMX", str(self.max_tbs_per_smx)),
            ("Registers / SMX", str(self.max_registers_per_smx)),
            ("Shared memory / SMX", f"{self.shared_mem_per_smx // 1024} KB"),
            ("L1 cache", f"{self.l1.size_bytes // 1024} KB, {self.l1.associativity}-way"),
            ("L2 cache", f"{self.l2.size_bytes // 1024} KB, {self.l2.associativity}-way"),
            ("Cache line", f"{self.line_bytes} B"),
            ("Max concurrent kernels", str(self.kdu_entries)),
            ("Warp scheduler", self.warp_scheduler.upper()),
            ("L1/L2/DRAM latency", f"{self.l1_hit_latency}/{self.l2_hit_latency}/{self.dram_latency} cycles"),
            ("CDP launch latency", f"{self.cdp_launch_latency} cycles"),
            ("DTBL launch latency", f"{self.dtbl_launch_latency} cycles"),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


#: Default machine used throughout tests and benchmarks.
KEPLER_K20C = GPUConfig()
