"""Shared-footprint analysis (paper Section III-A, Figure 2).

For every *direct parent* TB (a TB whose trace launches children) the
paper measures, in units of 128-byte cache blocks:

* ``p``  — blocks referenced by the direct parent TB,
* ``c``  — blocks referenced by all of its child TBs (union),
* ``pc`` — blocks referenced by both; the **parent-child shared footprint
  ratio** is ``pc / c``.

For every child TB with at least one sibling:

* ``co``  — blocks referenced by the child,
* ``cs``  — blocks referenced by all of its siblings (union),
* ``cos`` — blocks shared between them; the **child-sibling ratio** is
  ``cos / cs``.

The paper additionally reports an average parent-parent sharing of 9.3%.
The exact normalization is not specified there; we report, for each
parent TB, the fraction of *its own* footprint shared with any other
parent TB (``|p_i ∩ P_others| / |p_i|``), which is independent of the
number of parent TBs.

These are static trace properties: no timing simulation is involved, and
the results are identical for CDP and DTBL (the paper makes the same
observation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.gpu.kernel import KernelSpec
from repro.gpu.trace import TBBody


@dataclass(frozen=True)
class FootprintResult:
    """Per-benchmark shared-footprint ratios (averages over TBs)."""

    parent_child: float
    child_sibling: float
    parent_parent: float
    num_direct_parents: int
    num_children: int


def _direct_children(body: TBBody) -> list[TBBody]:
    """Child TB bodies launched directly by ``body``."""
    return [child for spec in body.launches() for child in spec.bodies]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def analyze_footprint(spec: KernelSpec) -> FootprintResult:
    """Compute the Fig 2 ratios for one benchmark's kernel spec.

    Walks the launch tree: *every* launching TB counts as a direct parent
    (including child TBs that launch nested grandchildren), matching the
    paper's definition of direct parent as "TBs which launch new device
    kernels or TB groups".
    """
    parent_tbs = list(spec.bodies)
    footprints: dict[int, set[int]] = {}

    def footprint(body: TBBody) -> set[int]:
        key = id(body)
        if key not in footprints:
            footprints[key] = body.touched_lines()
        return footprints[key]

    pc_ratios: list[float] = []
    cs_ratios: list[float] = []
    n_children = 0

    stack = list(parent_tbs)
    while stack:
        body = stack.pop()
        children = _direct_children(body)
        if not children:
            continue
        stack.extend(children)
        n_children += len(children)
        p = footprint(body)
        child_sets = [footprint(ch) for ch in children]
        c_union: set[int] = set().union(*child_sets)
        if c_union:
            pc_ratios.append(len(p & c_union) / len(c_union))
        if len(child_sets) >= 2:
            for i, co in enumerate(child_sets):
                cs: set[int] = set().union(
                    *(child_sets[j] for j in range(len(child_sets)) if j != i)
                )
                if cs:
                    cs_ratios.append(len(co & cs) / len(cs))

    # parent-parent sharing among the host kernel's (top-level) TBs:
    # mean pairwise overlap |p_i ∩ p_j| / |p_i ∪ p_j| over a bounded,
    # deterministic sample of parent pairs
    parent_sets = [footprint(b) for b in parent_tbs if footprint(b)]
    pp_ratios: list[float] = []
    n = len(parent_sets)
    if n >= 2:
        import random

        rng = random.Random(0)
        pairs = min(2000, n * (n - 1) // 2)
        for _ in range(pairs):
            i = rng.randrange(n)
            j = rng.randrange(n - 1)
            if j >= i:
                j += 1
            a, b = parent_sets[i], parent_sets[j]
            union = len(a | b)
            if union:
                pp_ratios.append(len(a & b) / union)

    return FootprintResult(
        parent_child=_mean(pc_ratios),
        child_sibling=_mean(cs_ratios),
        parent_parent=_mean(pp_ratios),
        num_direct_parents=len(pc_ratios),
        num_children=n_children,
    )
