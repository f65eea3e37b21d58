"""Execution timeline capture: per-SMX occupancy over time.

``OccupancyTimeline`` is a :class:`~repro.telemetry.events.TelemetrySink`
(pass it as ``simulate(..., telemetry=timeline)``, or as one leg of a
:class:`~repro.telemetry.events.TeeSink`) that records every
:class:`~repro.telemetry.events.TBDispatched` /
:class:`~repro.telemetry.events.TBCompleted` event. After the run it can
answer "how many TBs (or warps) were resident on SMX s at time t" and
render an ASCII occupancy heatmap — the picture behind the paper's
SMX-idling discussion (Fig 4(d)/(e)).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.telemetry.events import (
    TBCompleted,
    TBDispatched,
    TelemetryEvent,
    TelemetrySink,
)

_RAMP = " .:-=+*#%@"


@dataclass
class _Event:
    time: int
    smx_id: int
    delta_tbs: int
    delta_warps: int
    is_dynamic: bool


@dataclass
class OccupancyTimeline(TelemetrySink):
    """Collects dispatch/retire events; query or render after the run."""

    num_smx: int
    events: list[_Event] = field(default_factory=list)

    def emit(self, event: TelemetryEvent) -> None:
        if isinstance(event, TBDispatched):
            self.events.append(
                _Event(event.time, event.smx_id, 1, event.warps, event.is_dynamic)
            )
        elif isinstance(event, TBCompleted):
            self.events.append(
                _Event(event.time, event.smx_id, -1, -event.warps, event.is_dynamic)
            )

    # ----- queries -------------------------------------------------------------
    def _sorted(self) -> list[_Event]:
        self.events.sort(key=lambda e: e.time)
        return self.events

    @property
    def end_time(self) -> int:
        return max((e.time for e in self.events), default=0)

    def occupancy_at(self, time: int, smx_id: int) -> int:
        """Resident TBs on ``smx_id`` at ``time`` (inclusive)."""
        total = 0
        for event in self._sorted():
            if event.time > time:
                break
            if event.smx_id == smx_id:
                total += event.delta_tbs
        return total

    def profile(self, smx_id: int, samples: int = 60) -> list[int]:
        """Resident-TB counts at ``samples`` evenly spaced times."""
        events = [e for e in self._sorted() if e.smx_id == smx_id]
        times = [e.time for e in events]
        prefix = []
        total = 0
        for e in events:
            total += e.delta_tbs
            prefix.append(total)
        end = max(self.end_time, 1)
        out = []
        for i in range(samples):
            t = (i + 1) * end / samples
            idx = bisect.bisect_right(times, t) - 1
            out.append(prefix[idx] if idx >= 0 else 0)
        return out

    def mean_occupancy(self, smx_id: int) -> float:
        """Time-weighted mean of resident TBs on one SMX."""
        events = [e for e in self._sorted() if e.smx_id == smx_id]
        if not events:
            return 0.0
        area = 0
        total = 0
        last = 0
        for e in events:
            area += total * (e.time - last)
            total += e.delta_tbs
            last = e.time
        end = max(self.end_time, 1)
        area += total * (end - last)
        return area / end

    # ----- rendering --------------------------------------------------------------
    def render(self, samples: int = 60, max_tbs: int | None = None) -> str:
        """ASCII heatmap: one row per SMX, darker = more resident TBs."""
        rows = []
        peak = max_tbs or max(
            (self.occupancy_peak(smx) for smx in range(self.num_smx)), default=1
        )
        peak = max(peak, 1)
        for smx in range(self.num_smx):
            cells = []
            for value in self.profile(smx, samples):
                level = min(len(_RAMP) - 1, int(value / peak * (len(_RAMP) - 1)))
                cells.append(_RAMP[level])
            rows.append(f"SMX{smx:<3d} |{''.join(cells)}|")
        rows.append(f"{'':6s}  time 0 .. {self.end_time} cycles; '@' = {peak} resident TBs")
        return "\n".join(rows)

    def occupancy_peak(self, smx_id: int) -> int:
        total = 0
        peak = 0
        for e in self._sorted():
            if e.smx_id == smx_id:
                total += e.delta_tbs
                peak = max(peak, total)
        return peak
