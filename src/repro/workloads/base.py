"""Workload framework: address space, trace builders, and the Workload API.

A workload is a deterministic generator that lays its data structures out
in a flat GPU address space and emits the kernel/TB/warp traces a CDP (or
DTBL) implementation of the algorithm would produce — including the
device-side launches. The same workload object drives both the timing
simulation and the footprint analysis of Fig 2.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from typing import Optional

import numpy as np

from repro.gpu.kernel import KernelSpec, ResourceReq
from repro.gpu.trace import Instr, LaunchSpec, TBBody, compute, launch, load, store

#: recognized workload scales (rough instruction budget per run)
SCALES = ("tiny", "small", "paper")


class Array:
    """A named array placed in the flat address space."""

    __slots__ = ("name", "base", "elem_bytes", "length")

    def __init__(self, name: str, base: int, elem_bytes: int, length: int) -> None:
        self.name = name
        self.base = base
        self.elem_bytes = elem_bytes
        self.length = length

    @property
    def nbytes(self) -> int:
        return self.elem_bytes * self.length

    @property
    def end(self) -> int:
        return self.base + self.nbytes

    def addr(self, index: int) -> int:
        """Byte address of element ``index`` (bounds-checked)."""
        if not 0 <= index < self.length:
            raise IndexError(f"{self.name}[{index}] out of range (length {self.length})")
        return self.base + index * self.elem_bytes

    def addrs(self, indices: Iterable[int]) -> list[int]:
        """Byte addresses of many elements (one numpy bounds check for the batch)."""
        idx = np.asarray(indices if isinstance(indices, np.ndarray) else list(indices), dtype=np.int64)
        if idx.size == 0:
            return []
        bad = (idx < 0) | (idx >= self.length)
        if bad.any():
            index = int(idx[bad][0])
            raise IndexError(f"{self.name}[{index}] out of range (length {self.length})")
        return (self.base + idx * self.elem_bytes).tolist()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Array({self.name!r}, base={self.base:#x}, elem={self.elem_bytes}, n={self.length})"


class AddressSpace:
    """Bump allocator over a flat byte-addressed memory."""

    def __init__(self, base: int = 0x1000) -> None:
        self._cursor = base
        self.arrays: dict[str, Array] = {}

    def alloc(self, name: str, length: int, elem_bytes: int = 4, align: int = 128) -> Array:
        if name in self.arrays:
            raise ValueError(f"array {name!r} already allocated")
        if length < 0 or elem_bytes < 1:
            raise ValueError("invalid array shape")
        self._cursor = (self._cursor + align - 1) // align * align
        array = Array(name, self._cursor, elem_bytes, length)
        self._cursor += array.nbytes
        self.arrays[name] = array
        return array

    @property
    def total_bytes(self) -> int:
        return self._cursor


class WarpTrace:
    """Builder for one warp's instruction stream."""

    WARP_SIZE = 32

    def __init__(self) -> None:
        self.instrs: list[Instr] = []

    # ----- memory ------------------------------------------------------------
    def _chunks(self, addrs: Sequence[int]) -> Iterable[Sequence[int]]:
        for i in range(0, len(addrs), self.WARP_SIZE):
            yield addrs[i : i + self.WARP_SIZE]

    def load(self, array: Array, indices: Iterable[int]) -> "WarpTrace":
        """Warp-wide loads of the given elements, 32 lanes per instruction."""
        addrs = array.addrs(indices)
        for chunk in self._chunks(addrs):
            self.instrs.append(load(chunk))
        return self

    def load_range(self, array: Array, start: int, count: int) -> "WarpTrace":
        """Coalesced loads of ``count`` consecutive elements."""
        return self.load(array, range(start, start + count))

    def store(self, array: Array, indices: Iterable[int]) -> "WarpTrace":
        addrs = array.addrs(indices)
        for chunk in self._chunks(addrs):
            self.instrs.append(store(chunk))
        return self

    def store_range(self, array: Array, start: int, count: int) -> "WarpTrace":
        return self.store(array, range(start, start + count))

    def gather(self, array: Array, indices: Iterable[int]) -> "WarpTrace":
        """Alias of :meth:`load` that documents a scattered access."""
        return self.load(array, indices)

    # ----- compute / control ---------------------------------------------------
    def compute(self, cycles: int) -> "WarpTrace":
        if cycles > 0:
            self.instrs.append(compute(cycles))
        return self

    def launch(self, spec: LaunchSpec) -> "WarpTrace":
        self.instrs.append(launch(spec))
        return self

    def build(self) -> list[Instr]:
        return self.instrs


def single_warp_body(trace: WarpTrace) -> TBBody:
    return TBBody(warps=[trace.build()])


def body_from_traces(traces: Sequence[WarpTrace]) -> TBBody:
    return TBBody(warps=[t.build() for t in traces])


def chunked(items: Sequence, size: int) -> list[Sequence]:
    """Split a sequence into consecutive chunks of at most ``size``."""
    if size < 1:
        raise ValueError("chunk size must be positive")
    return [items[i : i + size] for i in range(0, len(items), size)]


class Workload(ABC):
    """Base class for the paper's benchmark applications.

    Subclasses define ``name``, accept an ``input_name`` / ``scale`` and
    implement :meth:`build`, returning the host kernel spec whose traces
    embed every device-side launch.
    """

    #: short application name (e.g. "bfs")
    name: str = "abstract"
    #: input data sets this application accepts
    inputs: tuple[str, ...] = ("default",)

    def __init__(self, input_name: Optional[str] = None, scale: str = "small", seed: int = 7) -> None:
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
        self.input_name = input_name or self.inputs[0]
        if self.input_name not in self.inputs:
            raise ValueError(
                f"{self.name} does not accept input {self.input_name!r}; "
                f"expected one of {self.inputs}"
            )
        self.scale = scale
        self.seed = seed
        self.space = AddressSpace()
        self._spec: Optional[KernelSpec] = None

    @property
    def full_name(self) -> str:
        if len(self.inputs) == 1:
            return self.name
        return f"{self.name}-{self.input_name}"

    @abstractmethod
    def build(self) -> KernelSpec:
        """Generate data and return the host kernel spec (cached)."""

    @property
    def is_built(self) -> bool:
        """Whether :meth:`kernel` has already generated the trace."""
        return self._spec is not None

    def kernel(self) -> KernelSpec:
        """Build once and cache (trace generation can be expensive)."""
        if self._spec is None:
            self._spec = self.build()
        return self._spec

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(input={self.input_name!r}, scale={self.scale!r})"


def make_resources(threads: int, regs: int = 24, smem: int = 0) -> ResourceReq:
    return ResourceReq(threads=threads, regs_per_thread=regs, smem_bytes=smem)
