"""Every-cycle reference for the engine's main loop.

``Engine.run`` skips work it can prove idle: it visits only the SMXs
whose ``wake_at`` (``SMX.next_event_time``) has arrived, it stops calling
an idle, pure dispatch stage, and it jumps the clock to the next event.
Each of those three claims to match a plain sweep that does every stage
on every cycle. This module is that sweep,
over the same engine objects, so the tests can pin the two together
(``tests/test_engine_reference.py``).
"""

from __future__ import annotations

from repro.gpu.engine import Engine
from repro.gpu.stats import SimStats

#: cycles after which the sweep gives up (every tiny/small run ends far sooner)
CYCLE_CAP = 20_000_000


def run_every_cycle(engine: Engine, cycle_cap: int = CYCLE_CAP) -> SimStats:
    """Run a fresh ``engine`` to completion one cycle at a time.

    Each cycle delivers due launches, retires due thread blocks, calls the
    TB scheduler once, then lets every SMX try to issue in ascending id
    order. No stage is ever skipped, and the clock never jumps.
    """
    if engine._finished:
        raise RuntimeError("engine instances are single-use")
    now = engine.now
    while engine._live_tbs or engine.dynpar._pending or engine.kmu._pending:
        engine.dynpar.deliver_due(now)
        engine._retire_due(now)
        engine.scheduler.dispatch(now)
        for smx in engine.smxs:
            smx.try_issue(now, engine)
        now += 1
        if now > cycle_cap:
            raise RuntimeError(f"reference sweep exceeded {cycle_cap} cycles")
    engine.now = now
    engine._finished = True
    return engine._collect_stats()
