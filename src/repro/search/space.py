"""The scheduler-policy design space: enumeration and seeded sampling.

PR 5's spec grammar (``pri=…,bind=…,steal=…,admit=…``) turned LaPerm's
three hand-designed schedulers into points of a combinatorial space.
This module makes that space a first-class object:

* :func:`enumerate_space` lists every *legal* :class:`SchedulerSpec` —
  the cross product of the four axes minus the combinations the grammar
  rejects (stealing needs bound queues) — in a deterministic order.
* :func:`sample_specs` draws a seeded, duplicate-free subset, so a
  budgeted search explores the same candidates on every rerun.

Deduplication is canonicalization-based throughout: two spellings of the
same policy share one canonical name, one search candidate and one
result-cache address, so a spelling variant can never run twice.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

from repro.core.components import (
    NAMED_COMPOSITIONS,
    SchedulerSpec,
    canonical_name,
    canonical_scheduler_name,
    describe_components,
)


def enumerate_space(include_throttle: bool = True) -> list[SchedulerSpec]:
    """Every legal spec, deterministically ordered and duplicate-free.

    The order is the nested-axis enumeration order (``pri`` outermost,
    ``admit`` innermost, canonical values sorted), so it is stable across
    processes and Python versions. With throttling the space holds 28
    points; without, 14.
    """
    axes = describe_components()
    admits = axes["admit"] if include_throttle else ["none"]
    specs: list[SchedulerSpec] = []
    seen: set[str] = set()
    for pri in axes["pri"]:
        for bind in axes["bind"]:
            for steal in axes["steal"]:
                for admit in admits:
                    try:
                        spec = SchedulerSpec(pri=pri, bind=bind, steal=steal, admit=admit)
                    except ValueError:
                        continue  # illegal combination (steal without binding)
                    if spec.canonical not in seen:
                        seen.add(spec.canonical)
                        specs.append(spec)
    return specs


def space_names(include_throttle: bool = True) -> list[str]:
    """Canonical labels of the whole space, named compositions first.

    The paper presets and the other named compositions lead (in
    ``NAMED_COMPOSITIONS`` order, throttled variants after their bases),
    then every remaining point in enumeration order — so a budget that
    truncates the candidate list always keeps the known-good policies.
    """
    ordered: list[str] = []
    for name in NAMED_COMPOSITIONS:
        ordered.append(name)
        if include_throttle:
            ordered.append(f"{name}+throttle")
    ordered.extend(canonical_name(spec) for spec in enumerate_space(include_throttle))
    return dedup_names(ordered)


def dedup_names(names: Iterable[str]) -> list[str]:
    """Canonicalize scheduler spellings, dropping later duplicates.

    The first spelling of each distinct policy wins its position, so the
    output order is the input order over distinct policies.
    """
    out: list[str] = []
    seen: set[str] = set()
    for name in names:
        canonical = canonical_scheduler_name(name)
        if canonical not in seen:
            seen.add(canonical)
            out.append(canonical)
    return out


def sample_specs(
    k: int,
    *,
    seed: int = 7,
    include_throttle: bool = True,
    rng: Optional[random.Random] = None,
) -> list[SchedulerSpec]:
    """Draw ``k`` distinct specs from the legal space, seeded.

    ``k`` larger than the space returns the whole space (shuffled); the
    draw is ``random.Random(seed)``-deterministic, so a budgeted search
    explores identical candidates on every rerun.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    rng = rng if rng is not None else random.Random(seed)
    space = enumerate_space(include_throttle)
    return rng.sample(space, min(k, len(space)))


def spec_names(specs: Sequence[SchedulerSpec]) -> list[str]:
    """Canonical labels for a spec sequence (order-preserving, deduped)."""
    return dedup_names(canonical_name(spec) for spec in specs)
