"""Functional kernel frontend: execute-while-recording warp programs.

The trace-driven workloads in `repro.workloads` hand-build address
streams. This frontend closes the loop with *functional* execution, the
way GPGPU-Sim runs PTX: a kernel is a Python function over numpy-backed
:class:`DeviceArray` objects, executed warp by warp at build time. Every
``load``/``store`` both moves real data **and** records the corresponding
trace instruction, and ``launch`` records a device-side launch whose
child TBs are themselves executed functionally. The result is a pair:

* correct output data (verifiable against a reference implementation),
* a `KernelSpec` whose traces replay the exact addresses the computation
  touched, ready for any scheduler/launch-model simulation.

Data-dependent control flow therefore shapes the trace exactly as it
would shape a real GPU execution of the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.gpu.kernel import KernelSpec, ResourceReq
from repro.gpu.trace import OP_LOAD, OP_STORE, LaunchSpec, TBBody, WarpTrace

WARP = 32


class DeviceMemory:
    """A flat device address space hosting numpy-backed arrays."""

    def __init__(self, base: int = 0x1000) -> None:
        self._cursor = base
        self.arrays: dict[str, "DeviceArray"] = {}

    def alloc(self, name: str, data: np.ndarray, *, align: int = 128) -> "DeviceArray":
        """Place (a copy of) ``data`` in device memory."""
        if name in self.arrays:
            raise ValueError(f"array {name!r} already allocated")
        data = np.array(data)
        if data.ndim != 1:
            raise ValueError("device arrays are 1-D")
        self._cursor = (self._cursor + align - 1) // align * align
        array = DeviceArray(name, self._cursor, data)
        self._cursor += array.nbytes
        self.arrays[name] = array
        return array

    def zeros(self, name: str, length: int, dtype=np.int64) -> "DeviceArray":
        return self.alloc(name, np.zeros(length, dtype=dtype))

    def full(self, name: str, length: int, value, dtype=np.int64) -> "DeviceArray":
        return self.alloc(name, np.full(length, value, dtype=dtype))


class DeviceArray:
    """A 1-D array living at a fixed device address."""

    __slots__ = ("name", "base", "data", "elem_bytes")

    def __init__(self, name: str, base: int, data: np.ndarray) -> None:
        self.name = name
        self.base = base
        self.data = data
        self.elem_bytes = int(data.dtype.itemsize)

    @property
    def nbytes(self) -> int:
        return len(self.data) * self.elem_bytes

    def addr(self, index: int) -> int:
        if not 0 <= index < len(self.data):
            raise IndexError(f"{self.name}[{index}] out of range")
        return self.base + int(index) * self.elem_bytes

    def __len__(self) -> int:
        return len(self.data)


#: stand-in bodies of a launch whose children have not run yet
_PENDING = [TBBody(warps=[WarpTrace().compute(1)])]


@dataclass
class WarpContext:
    """Execution context handed to a warp program.

    ``lanes`` are the global thread indices of the (≤32) active lanes.
    All memory helpers operate warp-wide: one call = one coalescable
    access per 32 indices, with real data movement, recorded into
    ``trace`` as it happens.
    """

    lanes: np.ndarray
    trace: WarpTrace = field(default_factory=WarpTrace)
    # (launch spec, child kernel, threads, args): children run once this
    # warp's program has finished, then fill in their spec's bodies
    _launches: list = field(default_factory=list)

    # ----- memory -----------------------------------------------------------
    def _record(self, array: DeviceArray, indices, is_store: bool) -> None:
        idxs = [int(i) for i in np.atleast_1d(indices)]
        op = OP_STORE if is_store else OP_LOAD
        for chunk_start in range(0, len(idxs), WARP):
            chunk = idxs[chunk_start : chunk_start + WARP]
            self.trace.access(op, [array.addr(i) for i in chunk])

    def load(self, array: DeviceArray, indices) -> np.ndarray:
        """Warp-wide load: returns the actual values."""
        self._record(array, indices, is_store=False)
        return array.data[np.atleast_1d(indices)]

    def store(self, array: DeviceArray, indices, values) -> None:
        """Warp-wide store: writes the actual values."""
        self._record(array, indices, is_store=True)
        array.data[np.atleast_1d(indices)] = values

    # ----- compute / control -----------------------------------------------------
    def compute(self, cycles: int = 1) -> None:
        """Arithmetic between memory operations (trace-weight only; the
        Python code around this call performs the real arithmetic)."""
        self.trace.compute(int(cycles))

    def launch(
        self,
        kernel: Callable,
        num_threads: int,
        *args,
        threads_per_tb: int = 32,
        name: Optional[str] = None,
    ) -> None:
        """Device-side launch of ``kernel`` over ``num_threads`` threads."""
        spec = LaunchSpec(
            bodies=_PENDING,
            threads_per_tb=threads_per_tb,
            name=name or getattr(kernel, "__name__", "device-kernel"),
        )
        self.trace.launch(spec)
        self._launches.append((spec, kernel, num_threads, args))


def _run_kernel_bodies(
    kernel: Callable,
    num_threads: int,
    args: tuple,
    threads_per_tb: int,
    depth: int,
    max_depth: int,
) -> list[TBBody]:
    if depth > max_depth:
        raise RecursionError(
            f"device launch nesting exceeded max_depth={max_depth} "
            f"(kernel {getattr(kernel, '__name__', kernel)!r})"
        )
    bodies: list[TBBody] = []
    for tb_start in range(0, num_threads, threads_per_tb):
        tb_threads = min(threads_per_tb, num_threads - tb_start)
        warps = []
        for w_start in range(tb_start, tb_start + tb_threads, WARP):
            w_len = min(WARP, tb_start + tb_threads - w_start)
            ctx = WarpContext(lanes=np.arange(w_start, w_start + w_len))
            kernel(ctx, *args)
            for spec, child, n, child_args in ctx._launches:
                spec.bodies = _run_kernel_bodies(
                    child, n, child_args, spec.threads_per_tb, depth + 1, max_depth
                )
            if not ctx.trace.ops:
                ctx.trace.compute(1)
            warps.append(ctx.trace)
        bodies.append(TBBody(warps=warps))
    return bodies


def run_functional_kernel(
    kernel: Callable,
    num_threads: int,
    *args,
    threads_per_tb: int = 32,
    name: Optional[str] = None,
    regs_per_thread: int = 24,
    max_depth: int = 12,
) -> KernelSpec:
    """Execute ``kernel`` functionally and return the recorded KernelSpec.

    ``kernel(ctx, *args)`` is invoked once per warp with a
    :class:`WarpContext`. Device arrays referenced through the context are
    mutated in place — after this returns, their ``.data`` holds the
    computation's real output and the returned spec replays its exact
    memory behaviour under the simulator.
    """
    if num_threads < 1:
        raise ValueError("num_threads must be positive")
    bodies = _run_kernel_bodies(
        kernel, num_threads, args, threads_per_tb, depth=0, max_depth=max_depth
    )
    return KernelSpec(
        name=name or getattr(kernel, "__name__", "functional-kernel"),
        bodies=bodies,
        resources=ResourceReq(threads=threads_per_tb, regs_per_thread=regs_per_thread),
    )
