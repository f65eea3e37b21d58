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
from typing import TYPE_CHECKING, Optional

from repro._exports import lazy_exports

if TYPE_CHECKING:
    from repro.gpu.kernel import KernelSpec, ResourceReq
    from repro.gpu.trace import TraceArena

# re-exported for custom workloads, which build with it; resolved on first
# use, so a warm run that builds no trace never imports the trace layer
__getattr__, __dir__, _ = lazy_exports(__name__, {"repro.gpu.trace": ("WarpTrace",)})

#: recognized workload scales (rough instruction budget per run); every
#: CLI command and service request accepts these
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

    def _out_of_range(self, index: int) -> IndexError:
        return IndexError(f"{self.name}[{index}] out of range (length {self.length})")

    def addr(self, index: int) -> int:
        """Byte address of element ``index`` (bounds-checked)."""
        if not 0 <= index < self.length:
            raise self._out_of_range(index)
        return self.base + index * self.elem_bytes

    def addr_range(self, start: int, stop: int) -> range:
        """Byte addresses of elements ``start`` to ``stop - 1``, as a range
        (checked at its two ends; empty when ``start >= stop``)."""
        if start >= stop:
            return range(0)
        if not 0 <= start < self.length:
            raise self._out_of_range(start)
        if stop > self.length:
            raise self._out_of_range(self.length)
        eb = self.elem_bytes
        return range(self.base + start * eb, self.base + stop * eb, eb)

    def addrs(self, indices: Iterable[int]) -> list[int]:
        """Byte addresses of many elements (one bounds check for the batch).

        A unit-step ``range`` (every ``load_range``/``store_range``) is
        checked at its two ends; any other input is checked at its
        smallest and largest index. Both raise the same ``IndexError``
        naming the first out-of-range index. Indices must be integers
        (Python or numpy): a float or bool index raises ``TypeError``
        instead of being truncated.
        """
        if type(indices) is range and indices.step == 1:
            return list(self.addr_range(indices.start, indices.stop))
        if type(indices) is list:
            idx = indices
        else:  # a numpy array converts in one call (duck-typed: no numpy import)
            idx = indices.tolist() if hasattr(indices, "tolist") else list(indices)
        if not idx:
            return []
        if not all(type(i) is int for i in idx):
            # numpy integer scalars pass; floats, bools and the rest do not
            import numpy as np

            dtype = np.asarray(idx).dtype
            if dtype.kind not in "iu":
                raise TypeError(f"{self.name} indices must be integers, not {dtype}")
            idx = [int(i) for i in idx]
        length = self.length
        if min(idx) < 0 or max(idx) >= length:
            raise self._out_of_range(next(i for i in idx if not 0 <= i < length))
        base, eb = self.base, self.elem_bytes
        return [base + i * eb for i in idx]

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


def chunked(items: Sequence, size: int) -> list[Sequence]:
    """Split a sequence into consecutive chunks of at most ``size``."""
    if size < 1:
        raise ValueError("chunk size must be positive")
    return [items[i : i + size] for i in range(0, len(items), size)]


class Workload(ABC):
    """Base class for the paper's benchmark applications.

    Subclasses define ``name``, accept an ``input_name`` / ``scale`` and
    implement :meth:`build`, returning the host kernel spec whose traces
    embed every device-side launch. :meth:`build` passes ``self.arena``
    to every :class:`~repro.gpu.trace.TBBody` it makes, so the whole
    trace shares one :class:`~repro.gpu.trace.TraceArena`.
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
        #: the columns the trace is built into (set by :meth:`kernel`)
        self.arena: Optional[TraceArena] = None
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
            # imported here: a warm run that builds no trace never loads it
            from repro.gpu.trace import TraceArena

            self.arena = TraceArena()
            self._spec = self.build()
        return self._spec

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(input={self.input_name!r}, scale={self.scale!r})"


def make_resources(threads: int, regs: int = 24, smem: int = 0) -> ResourceReq:
    from repro.gpu.kernel import ResourceReq

    return ResourceReq(threads=threads, regs_per_thread=regs, smem_bytes=smem)
