"""The paper's contribution: LaPerm TB schedulers and their queues.

Every policy is a composition of components (priority, placement,
stealing, admission) hosted by :class:`ComposedScheduler`; see
:mod:`repro.core.components` for the axes and the spec grammar.
"""

from repro.core.base import TBScheduler
from repro.core.components import (
    NAMED_COMPOSITIONS,
    SchedulerSpec,
    canonical_scheduler_name,
    describe_components,
    parse_spec,
    resolve_scheduler,
)
from repro.core.composed import ComposedScheduler
from repro.core.queues import Entry, MultiLevelQueue

#: the paper's ordering for figures: baseline first, then LaPerm variants
SCHEDULER_ORDER = ["rr", "tb-pri", "smx-bind", "adaptive-bind"]

#: composed policies the spec grammar unlocks beyond the paper's four,
#: in report order (used by ``repro list`` and the benchmark grid)
COMPOSED_ORDER = [name for name in NAMED_COMPOSITIONS if name not in SCHEDULER_ORDER]


def make_scheduler(name: str) -> TBScheduler:
    """Construct a TB scheduler by name or spec string.

    Accepts the named compositions (``"adaptive-bind"``), spec strings
    from the component grammar (``"pri=level,bind=smx,steal=backup"``),
    and a ``+throttle`` suffix on either, which composes contention-aware
    TB throttling (Section IV-F / [12]) into the policy.
    """
    canonical, spec = resolve_scheduler(name)
    return ComposedScheduler(spec, name=canonical)


__all__ = [
    "COMPOSED_ORDER",
    "ComposedScheduler",
    "Entry",
    "MultiLevelQueue",
    "NAMED_COMPOSITIONS",
    "SCHEDULER_ORDER",
    "SchedulerSpec",
    "TBScheduler",
    "canonical_scheduler_name",
    "describe_components",
    "make_scheduler",
    "parse_spec",
    "resolve_scheduler",
]
