"""Job model for the simulation service.

A :class:`Job` wraps one canonicalized
:class:`~repro.harness.execution.RunSpec` as it moves through the
service: admitted into the broker's bounded priority queue, dispatched
to a worker process, and finished as done / failed / cancelled. Every
transition appends an immutable :class:`JobEvent` to the job's ordered
event log, which is what the SSE endpoint streams and what
``GET /v1/jobs/<id>`` summarizes.

Admission order is by :func:`estimate_cost` — a static per-spec runtime
prediction in the spirit of preemptive TB scheduling with runtime
prediction (Pai et al., arXiv:1406.6037): cheap rungs ahead of expensive
ones, so a burst of tiny-scale probes is never stuck behind one
paper-scale simulation. The estimate only orders the queue; it is never
a limit.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import AsyncIterator, Optional

from repro.harness.execution import DEFAULT_MAX_CYCLES, RunSpec

# -- states -------------------------------------------------------------------

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: states a job never leaves
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: every state, in lifecycle order (docs and schema tests iterate this)
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)


# -- cost model ---------------------------------------------------------------

#: relative simulated work per workload scale; the rung ladder the
#: autotuner climbs (docs/search.md) is the same tiny < small < paper
#: ordering, so ``RunSpec.with_rung``-derived probes sort ahead of their
#: full-fidelity parents automatically. A ``paper`` run measured 2-2.5x
#: the time of a ``small`` one, so it is priced at the upper end
SCALE_COST = {"tiny": 1.0, "small": 8.0, "paper": 20.0}


def estimate_cost(spec: RunSpec) -> float:
    """Static runtime estimate (arbitrary units) used to order admission.

    Scale dominates; a reduced cycle budget scales the estimate down
    proportionally (floored so a zero/small cap still costs something:
    workload build time does not shrink with ``max_cycles``).
    """
    cost = SCALE_COST.get(spec.scale, SCALE_COST["small"])
    if spec.max_cycles is not None and spec.max_cycles < DEFAULT_MAX_CYCLES:
        cost *= max(spec.max_cycles / DEFAULT_MAX_CYCLES, 0.01)
    return cost


# -- events -------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class JobEvent:
    """One observable job transition (the unit the SSE stream carries)."""

    seq: int
    time: float
    job_id: str
    state: str
    detail: str

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "time": self.time,
            "job_id": self.job_id,
            "state": self.state,
            "detail": self.detail,
        }

    def sse(self) -> bytes:
        """This event framed as one Server-Sent-Events message."""
        data = json.dumps(self.to_dict(), sort_keys=True)
        return f"id: {self.seq}\nevent: {self.state}\ndata: {data}\n\n".encode("utf-8")


# -- jobs ---------------------------------------------------------------------


class Job:
    """One submitted simulation and its full service-side lifecycle.

    Jobs are created and mutated only from the broker's event loop, so no
    locking is needed; readers outside the loop go through the HTTP API.
    ``followers`` holds jobs coalesced onto this one (same
    ``RunSpec.cache_key()`` while in flight): they never execute, they
    just mirror this job's transitions and share its result.
    """

    def __init__(
        self,
        job_id: str,
        spec: RunSpec,
        *,
        deadline: Optional[float] = None,
        cost: Optional[float] = None,
    ) -> None:
        self.job_id = job_id
        self.spec = spec
        #: per-job wall-clock execution budget in seconds (None = none)
        self.deadline = deadline
        self.cost = estimate_cost(spec) if cost is None else cost
        self.state = QUEUED
        #: how the result was produced: "executed", "cache" or "coalesced"
        self.source: Optional[str] = None
        self.error: Optional[str] = None
        #: JSON-safe SimStats (``stats_to_obj``) once done
        self.stats_obj: Optional[dict] = None
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: worker dispatch attempts (can reach 2 after one crash retry)
        self.attempts = 0
        self.events: list[JobEvent] = []
        #: coalesced duplicates riding on this job
        self.followers: list[Job] = []
        #: the job this one coalesced onto (None for primaries)
        self.primary: Optional[Job] = None
        # event "turnstile": every record() sets and replaces it, so any
        # number of streamers can wait for "something changed" without a
        # lock (asyncio primitives bind to the loop lazily on 3.10+)
        self._changed = asyncio.Event()

    # -- transitions -----------------------------------------------------------

    def record(self, state: str, detail: str = "") -> JobEvent:
        """Append one event, updating ``state`` (idempotent transitions ok)."""
        if self.state in TERMINAL_STATES and state != self.state:
            raise RuntimeError(f"job {self.job_id} is {self.state}; cannot -> {state}")
        self.state = state
        event = JobEvent(
            seq=len(self.events),
            time=time.time(),
            job_id=self.job_id,
            state=state,
            detail=detail,
        )
        self.events.append(event)
        if state in TERMINAL_STATES and self.finished_at is None:
            self.finished_at = event.time
        turnstile = self._changed
        self._changed = asyncio.Event()
        turnstile.set()
        return event

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def latency(self) -> Optional[float]:
        """Submit-to-terminal wall time in seconds (None while live)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    # -- streaming -------------------------------------------------------------

    async def stream(self) -> AsyncIterator[JobEvent]:
        """Yield every event in order, live, ending at the terminal one.

        Replays the backlog first, so attaching to an already-finished
        job yields its full history and returns immediately.
        """
        index = 0
        while True:
            turnstile = self._changed
            while index < len(self.events):
                event = self.events[index]
                index += 1
                yield event
                if event.state in TERMINAL_STATES:
                    return
            await turnstile.wait()

    # -- serialization ---------------------------------------------------------

    def to_dict(self, *, include_events: bool = False) -> dict:
        """JSON view served by ``GET /v1/jobs/<id>``."""
        spec = self.spec
        out = {
            "id": self.job_id,
            "state": self.state,
            "source": self.source,
            "error": self.error,
            "spec": {
                "benchmark": spec.benchmark,
                "scheduler": spec.scheduler,
                "model": spec.model,
                "scale": spec.scale,
                "seed": spec.seed,
                "max_cycles": spec.max_cycles,
                "config_fingerprint": spec.config_fingerprint,
            },
            "cache_key": spec.cache_key(),
            "cost_estimate": self.cost,
            "deadline": self.deadline,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "latency": self.latency,
            "coalesced_into": self.primary.job_id if self.primary else None,
            "followers": [f.job_id for f in self.followers],
            "stats": self.stats_obj,
        }
        if include_events:
            out["events"] = [e.to_dict() for e in self.events]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Job({self.job_id!r}, {self.spec.label()!r}, state={self.state!r})"
