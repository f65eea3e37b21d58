"""Thread-block scheduler interface.

A scheduler owns the pool of dispatchable thread blocks and is invoked
once per cycle by the engine; it may place at most one TB on one SMX per
cycle (the dispatch-stage bandwidth of the baseline hardware, Section
II-B). Every shipped policy is a composition of components hosted by
:class:`~repro.core.composed.ComposedScheduler`; the paper's four
schedulers are the named compositions ``rr``, ``tb-pri``, ``smx-bind``
and ``adaptive-bind`` (full LaPerm) of
:data:`~repro.core.components.NAMED_COMPOSITIONS`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence, TYPE_CHECKING

from repro.gpu.kernel import Kernel, ThreadBlock

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.engine import Engine
    from repro.gpu.smx import SMX


class TBScheduler(ABC):
    """Base class for TB scheduling policies."""

    #: policy name used in registries and reports
    name: str = "abstract"
    #: whether the KMU should admit device kernels highest-priority-first
    #: (True for all LaPerm variants, False for the baseline)
    prioritized_kmu: bool = False
    #: True when a ``dispatch`` call that returns None (and bumps no
    #: ``steals`` counter) leaves all observable scheduler state unchanged.
    #: The engine then skips dispatch until a queue- or resource-changing
    #: event (delivery, kernel admission, TB retire, placement) occurs.
    #: Policies with time-gated side effects inside dispatch (e.g. the
    #: throttle admission component's cap adjustment) must set this False.
    idle_dispatch_pure: bool = True
    #: stage-3 work-steal count; stealing policies shadow this with an
    #: instance counter, everything else reports 0
    steals: int = 0

    def __init__(self) -> None:
        self.engine: Optional["Engine"] = None
        self.overflow_events = 0

    def attach(self, engine: "Engine") -> None:
        self.engine = engine

    # ----- event hooks -----------------------------------------------------
    @abstractmethod
    def on_kernel_arrival(self, kernel: Kernel, now: int) -> None:
        """A kernel became KDU-resident (host or CDP device kernel)."""

    @abstractmethod
    def on_tb_group(self, kernel: Kernel, tbs: Sequence[ThreadBlock], now: int) -> None:
        """A DTBL thread-block group was appended to ``kernel``."""

    # ----- the per-cycle dispatch stage -------------------------------------
    @abstractmethod
    def dispatch(self, now: int) -> Optional[ThreadBlock]:
        """Place at most one TB this cycle; return it, or None."""

    @abstractmethod
    def has_pending(self) -> bool:
        """Whether any dispatchable TB is waiting in the scheduler."""

    @property
    def queue_high_water(self) -> int:
        """Most entries any of this policy's queue sets ever held
        (0 for policies without accounted queues)."""
        return 0

    # ----- helpers -----------------------------------------------------------
    def _place(self, tb: ThreadBlock, smx: "SMX", now: int, *, delay: int = 0) -> ThreadBlock:
        smx.place(tb, now, start_delay=delay)
        self.engine.record_dispatch(tb, now)
        return tb

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
