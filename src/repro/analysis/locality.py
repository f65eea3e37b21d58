"""Reuse-distance analysis over kernel traces.

Static (timing-free) locality metrics complementing the Fig 2 footprint
ratios:

* :func:`reuse_distance_histogram` — LRU stack distances over a reference
  stream, the classical predictor of hit rate at a given cache capacity.
* :func:`inter_tb_reuse` — how much of a kernel's line reuse crosses TB
  boundaries (the reuse a TB *scheduler* can win or lose) versus staying
  within one TB (scheduler-invariant).

The reference stream orders TBs by a *schedule*: a list of TB bodies in
assumed execution order. Comparing the histogram of the natural order vs
a children-after-parents order quantifies why TB-Pri helps.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.gpu.trace import TBBody

#: bucket label used for cold (first-touch) references
COLD = -1


def _line_stream(bodies: Sequence[TBBody], line_bytes: int) -> Iterable[int]:
    for body in bodies:
        for _, lanes in body.accesses():
            seen = set()
            for a in lanes:
                if a >= 0:
                    line = a // line_bytes
                    if line not in seen:  # coalesced within the access
                        seen.add(line)
                        yield line


def reuse_distances(bodies: Sequence[TBBody], line_bytes: int = 128) -> Iterable[int]:
    """LRU stack distance of every reference (``COLD`` for first touches).

    Distance d means: d distinct other lines were touched since the last
    reference to this line — the reference hits in any fully-associative
    LRU cache with capacity > d lines.
    """
    stack: list[int] = []  # most recent last
    position: dict[int, int] = {}
    for line in _line_stream(bodies, line_bytes):
        if line in position:
            idx = stack.index(line)
            distance = len(stack) - idx - 1
            stack.pop(idx)
            stack.append(line)
            yield distance
        else:
            stack.append(line)
            yield COLD
        position[line] = 1


def reuse_distance_histogram(
    bodies: Sequence[TBBody],
    line_bytes: int = 128,
    buckets: Sequence[int] = (8, 32, 128, 512, 2048, 8192),
) -> dict[str, int]:
    """Histogram of reuse distances, bucketed at cache-like capacities."""
    histogram: Counter = Counter()
    for distance in reuse_distances(bodies, line_bytes):
        if distance == COLD:
            histogram["cold"] += 1
            continue
        for bound in buckets:
            if distance < bound:
                histogram[f"<{bound}"] += 1
                break
        else:
            histogram[f">={buckets[-1]}"] += 1
    return dict(histogram)


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


def inter_tb_reuse(bodies: Sequence[TBBody], line_bytes: int = 128) -> InterTBReuse:
    """Classify every reference by where its previous touch happened.

    The inter-TB share is the reuse a TB scheduler can convert into cache
    hits (by placing the reusing TBs close in time/space) or destroy.
    """
    last_owner: dict[int, int] = {}
    intra = inter = cold = 0
    for tb_idx, body in enumerate(bodies):
        for _, lanes in body.accesses():
            for line in {a // line_bytes for a in lanes if a >= 0}:
                owner = last_owner.get(line)
                if owner is None:
                    cold += 1
                elif owner == tb_idx:
                    intra += 1
                else:
                    inter += 1
                last_owner[line] = tb_idx
    return InterTBReuse(intra_tb=intra, inter_tb=inter, cold=cold)
