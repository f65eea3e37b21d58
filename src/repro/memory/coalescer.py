"""Warp-level memory access coalescing.

A warp memory instruction supplies one byte address per active lane. The
coalescer merges them into the minimal set of 128-byte line transactions,
exactly as the global-memory access path of Kepler does for naturally
aligned 128B segments.
"""

from __future__ import annotations

from collections.abc import Iterable


def coalesce(addresses: Iterable[int], line_bytes: int = 128) -> list[int]:
    """Reduce per-lane byte addresses to unique, ordered line addresses.

    Returns line addresses (byte address // line_bytes) sorted ascending,
    which makes transaction order deterministic. Inactive lanes are
    represented by negative addresses and skipped; no active lane gives
    no line.
    """
    if isinstance(addresses, (list, tuple)):
        if not addresses:
            return []
        first = addresses[0] // line_bytes
        # fast path: the common fully-coalesced access (one line)
        for addr in addresses:
            if addr < 0 or addr // line_bytes != first:
                break
        else:
            return [first]
    lines = {addr // line_bytes for addr in addresses if addr >= 0}
    return sorted(lines)
