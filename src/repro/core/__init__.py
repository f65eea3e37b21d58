"""The paper's contribution: LaPerm TB schedulers and their queues.

Every policy is a composition of components (placement, stealing,
admission, with the priority axis read by the placements) built and
hosted by :class:`ComposedScheduler`; see :mod:`repro.core.components`
for the axes and the spec grammar.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._exports import lazy_exports

if TYPE_CHECKING:
    from repro.core.composed import ComposedScheduler

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core.components": (
            "NAMED_COMPOSITIONS",
            "SchedulerSpec",
            "canonical_scheduler_name",
            "describe_components",
            "parse_spec",
            "resolve_scheduler",
        ),
        "repro.core.composed": ("ComposedScheduler",),
        "repro.core.queues": ("Entry", "MultiLevelQueue"),
    },
)
__all__ += ["SCHEDULER_ORDER", "make_scheduler"]

#: the paper's ordering for figures: baseline first, then LaPerm variants
SCHEDULER_ORDER = ["rr", "tb-pri", "smx-bind", "adaptive-bind"]


def make_scheduler(name: str) -> ComposedScheduler:
    """Construct a TB scheduler by name or spec string.

    Accepts the named compositions (``"adaptive-bind"``), spec strings
    from the component grammar (``"pri=level,bind=smx,steal=backup"``),
    and a ``+throttle`` suffix on either, which composes contention-aware
    TB throttling (Section IV-F / [12]) into the policy.
    """
    from repro.core.components import resolve_scheduler
    from repro.core.composed import ComposedScheduler

    return ComposedScheduler(resolve_scheduler(name)[1])
