"""Inter-TB reuse analysis over kernel traces.

A static (timing-free) locality metric complementing the Fig 2 footprint
ratios: :func:`inter_tb_reuse` measures how much of a kernel's line
reuse crosses TB boundaries (the reuse a TB *scheduler* can win or lose)
versus staying within one TB (scheduler-invariant). TBs are taken in the
order of the given list of TB bodies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.gpu.trace import OP_LOAD, OP_STORE, TBBody


@dataclass(frozen=True)
class InterTBReuse:
    """Split of a kernel's repeated line references."""

    intra_tb: int  # reuse whose previous touch was in the same TB
    inter_tb: int  # reuse whose previous touch was in another TB
    cold: int  # first touches

    @property
    def inter_fraction(self) -> float:
        total = self.intra_tb + self.inter_tb
        return self.inter_tb / total if total else 0.0


def inter_tb_reuse(bodies: Sequence[TBBody]) -> InterTBReuse:
    """Classify every reference by where its previous touch happened.

    A reference is one coalesced line of one LOAD/STORE. The inter-TB
    share is the reuse a TB scheduler can convert into cache hits (by
    placing the reusing TBs close in time/space) or destroy.
    """
    last_owner: dict[int, int] = {}
    intra = inter = cold = 0
    for tb_idx, body in enumerate(bodies):
        arena, bounds = body.arena, body.warp_bounds
        ops, args, offs, lines = arena.ops, arena.args, arena.offs, arena.lines
        for pc in range(bounds[0], bounds[-1]):
            if ops[pc] != OP_LOAD and ops[pc] != OP_STORE:
                continue
            off = offs[pc]
            for line in lines[off : off + args[pc]]:
                owner = last_owner.get(line)
                if owner is None:
                    cold += 1
                elif owner == tb_idx:
                    intra += 1
                else:
                    inter += 1
                last_owner[line] = tb_idx
    return InterTBReuse(intra_tb=intra, inter_tb=inter, cold=cold)
