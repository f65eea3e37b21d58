"""Readable reference for the L1 -> L2 -> DRAM walk.

``MemoryHierarchy.accessor`` is the one walk the simulator runs. This
module walks the same hierarchy line by line, through ``Cache.access``
and ``DRAM.service``, and reports per-access hit counts, so the tests
can state expected outcomes plainly and pin the accessor against it
state for state (``tests/test_memory_properties.py``). It uses the same
fill table as the accessor: ``mem._inflight`` maps a line to the
completion time of its latest DRAM fill, and a request merges while
that time is still ahead of ``now``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.coalescer import coalesce
from repro.memory.hierarchy import MemoryHierarchy


@dataclass(slots=True)
class AccessResult:
    """Outcome of one warp memory instruction."""

    complete_at: int
    transactions: int
    l1_hits: int
    l2_hits: int
    dram_accesses: int
    mshr_merges: int = 0


def access_warp(
    mem: MemoryHierarchy,
    smx_id: int,
    addresses: list[int],
    now: int,
    *,
    is_write: bool = False,
    bypass_l1: bool = False,
) -> AccessResult:
    """Issue one warp memory instruction; return timing and hit counts."""
    lines = coalesce(addresses, mem.config.line_bytes)
    return access_lines(mem, smx_id, lines, now, is_write=is_write, bypass_l1=bypass_l1)


def access_lines(
    mem: MemoryHierarchy,
    smx_id: int,
    lines: list[int],
    now: int,
    *,
    is_write: bool = False,
    bypass_l1: bool = False,
) -> AccessResult:
    """Walk coalesced ``lines`` through ``mem`` as SMX ``smx_id`` at ``now``."""
    config = mem.config
    l1 = mem.l1s[smx_id]
    inflight = mem._inflight
    complete_at = now
    l1_hits = l2_hits = dram_accesses = merges = 0

    def wait(done: int) -> None:
        nonlocal complete_at
        complete_at = max(complete_at, done)

    for line in lines:
        if not bypass_l1:
            # loads allocate in L1; stores are write-through, no-allocate
            if l1.access(line, is_write=is_write, allocate=not is_write):
                if not is_write:
                    fill = inflight.get(line, 0)
                    if fill > now:
                        # the line's fill has not landed yet: wait for it
                        merges += 1
                        mem.mshr_merges += 1
                        wait(fill)
                    else:
                        l1_hits += 1
                        wait(now + config.l1_hit_latency)
                    continue
                # write hit: write-through still goes to L2 below
                l1_hits += 1
        # L2 allocates on both loads and stores (tag at miss time)
        if mem.l2.access(line, is_write=is_write, allocate=True):
            fill = inflight.get(line, 0)
            if fill > now:
                # the tag is resident but the fill is still in flight: this
                # request merges into the outstanding miss and sees the
                # data-arrival time, not the hit latency
                merges += 1
                mem.mshr_merges += 1
                wait(fill)
            else:
                l2_hits += 1
                wait(now + config.l2_hit_latency)
        else:
            dram_accesses += 1
            done = mem.dram.service(now)
            if config.mshr_merging and not is_write:
                # stores write through without fetching: only loads put a
                # fill in flight that later requests can merge into
                inflight[line] = done
            wait(done)
    return AccessResult(
        complete_at=complete_at,
        transactions=len(lines),
        l1_hits=l1_hits,
        l2_hits=l2_hits,
        dram_accesses=dram_accesses,
        mshr_merges=merges,
    )
