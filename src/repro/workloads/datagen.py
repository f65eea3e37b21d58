"""Synthetic input generators.

The paper's inputs (citation network, Graph500 logn20, cage15, DARPA
packets, MovieLens, …) are replaced by generators that match their
*structural* character — the property Fig 2 attributes the per-input
variation to:

* ``citation_graph`` — preferential attachment with strong id-locality:
  vertices mostly cite (spatially) nearby earlier vertices, so CSR
  neighbour lists are clustered → high child-sibling footprint sharing.
* ``rmat_graph`` — Graph500-style R-MAT: heavy-tailed degrees with edges
  spread over the whole id space → scattered accesses, low sibling sharing.
* ``banded_graph`` — cage15-like banded sparse matrix: neighbours within a
  fixed diagonal band → very regular, high locality.
* ``zipf_choices`` — Zipf-popular item picks (MovieLens-like ratings).
* ``packet_stream`` — DARPA-like packets: lengths and match-rate knobs.

All generators are deterministic given a seed and return numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class CSRGraph:
    """Compressed sparse row adjacency: neighbours of v are
    ``col_indices[row_offsets[v]:row_offsets[v+1]]``."""

    row_offsets: np.ndarray  # int64, length n+1
    col_indices: np.ndarray  # int64, length m

    @property
    def num_vertices(self) -> int:
        return len(self.row_offsets) - 1

    @property
    def num_edges(self) -> int:
        return len(self.col_indices)

    @cached_property
    def offsets(self) -> list[int]:
        """``row_offsets`` as Python ints (the trace builders index it per
        vertex; a list lookup is far cheaper than a numpy scalar)."""
        return self.row_offsets.tolist()

    @cached_property
    def degrees(self) -> list[int]:
        """Every vertex's degree as Python ints."""
        return np.diff(self.row_offsets).tolist()

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def neighbors(self, v: int) -> np.ndarray:
        return self.col_indices[self.row_offsets[v] : self.row_offsets[v + 1]]

    def validate(self) -> None:
        offs = self.row_offsets
        if offs[0] != 0 or offs[-1] != len(self.col_indices):
            raise ValueError("row_offsets must span exactly the edge array")
        if np.any(np.diff(offs) < 0):
            raise ValueError("row_offsets must be non-decreasing")
        if len(self.col_indices) and (
            self.col_indices.min() < 0 or self.col_indices.max() >= self.num_vertices
        ):
            raise ValueError("column index out of range")


def _to_csr(n: int, adjacency: list[np.ndarray]) -> CSRGraph:
    degrees = np.fromiter((len(a) for a in adjacency), dtype=np.int64, count=n)
    row_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=row_offsets[1:])
    col_indices = (
        np.concatenate(adjacency) if row_offsets[-1] else np.empty(0, dtype=np.int64)
    )
    return CSRGraph(row_offsets, col_indices.astype(np.int64))


def citation_graph(
    n: int,
    mean_degree: int = 12,
    locality: float = 0.8,
    seed: int = 0,
    max_degree: int = 256,
) -> CSRGraph:
    """Preferential-attachment graph with id-locality.

    Each vertex v > 0 draws ``~Geometric`` many citations; a ``locality``
    fraction point to nearby earlier vertices (geometric offset), the rest
    to globally popular early vertices (approximate preferential
    attachment via sqrt-skewed sampling). Neighbour lists are sorted, so
    clustered ids translate into clustered CSR lines.
    """
    rng = np.random.default_rng(seed)
    cites: list[list[int]] = [[] for _ in range(n)]
    # heavy-ish tail on out-degree so some vertices warrant child launches
    for v in range(1, n):
        deg = min(v, 1 + rng.geometric(1.0 / mean_degree))
        local = rng.random(deg) < locality
        offsets = rng.geometric(0.05, size=deg).astype(np.int64)
        near = np.maximum(v - offsets, 0)
        # popularity-skewed global picks: square favours low (old, popular) ids
        popular = (rng.random(deg) ** 2 * v).astype(np.int64)
        targets = np.unique(np.clip(np.where(local, near, popular), 0, v - 1))
        cites[v].extend(int(u) for u in targets)
        # graph traversals treat the network as undirected (cited-by edges)
        for u in targets:
            cites[int(u)].append(v)
    adjacency = []
    for v, c in enumerate(cites):
        neigh = np.unique(np.asarray(c, dtype=np.int64))
        if len(neigh) > max_degree:
            # hub truncation: the traversal codes bound per-vertex work
            keep = rng.choice(len(neigh), size=max_degree, replace=False)
            neigh = np.sort(neigh[keep])
        adjacency.append(neigh)
    return _to_csr(n, adjacency)


def rmat_graph(
    n_log2: int,
    edge_factor: int = 16,
    seed: int = 0,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    max_degree: int = 512,
) -> CSRGraph:
    """Graph500-style R-MAT generator (undirected edges kept one-way).

    Row lengths are truncated at ``max_degree`` — the hub rows of an
    untruncated R-MAT reach O(n) and would serialize any per-vertex
    expansion scheme.
    """
    n = 1 << n_log2
    m = n * edge_factor
    rng = np.random.default_rng(seed)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for _ in range(n_log2):
        src <<= 1
        dst <<= 1
        r = rng.random(m)
        # quadrant probabilities (a, b, c, d)
        dst += ((r >= a) & (r < a + b)) | (r >= a + b + c)
        src += r >= a + b
    # one sorted pass: rows in vertex order, each row's neighbours sorted
    # and deduplicated
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    fresh = np.ones(m, dtype=bool)
    fresh[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    src, dst = src[fresh], dst[fresh]
    degrees = np.bincount(src, minlength=n)
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=starts[1:])
    # hub rows keep a random max_degree subset, drawn in vertex order
    keep = np.ones(len(dst), dtype=bool)
    for v in np.flatnonzero(degrees > max_degree).tolist():
        deg = int(degrees[v])
        row = np.zeros(deg, dtype=bool)
        row[rng.choice(deg, size=max_degree, replace=False)] = True
        keep[starts[v] : starts[v] + deg] = row
    degrees = np.minimum(degrees, max_degree)
    row_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=row_offsets[1:])
    return CSRGraph(row_offsets, dst[keep].astype(np.int64))


def banded_graph(
    n: int,
    band: int = 64,
    mean_degree: int = 10,
    seed: int = 0,
    hub_fraction: float = 0.08,
    hub_multiplier: int = 6,
) -> CSRGraph:
    """cage15-like banded sparse matrix: neighbours within ±band of v.

    A ``hub_fraction`` of rows are dense (``hub_multiplier``× the mean
    degree), mirroring the variable row lengths of DNA-electrophoresis
    matrices — these are the rows that trigger child launches.
    """
    rng = np.random.default_rng(seed)
    adjacency: list[np.ndarray] = []
    hubs = rng.random(n) < hub_fraction
    for v in range(n):
        deg = 1 + rng.poisson(mean_degree - 1)
        if hubs[v]:
            deg *= hub_multiplier
        lo, hi = max(0, v - band), min(n - 1, v + band)
        deg = min(deg, hi - lo + 1)
        neigh = rng.choice(np.arange(lo, hi + 1), size=deg, replace=False)
        adjacency.append(np.sort(neigh))
    return _to_csr(n, adjacency)


def zipf_choices(n_choices: int, n_items: int, s: float = 1.1, seed: int = 0) -> np.ndarray:
    """``n_choices`` item ids drawn from a Zipf-like popularity law."""
    rng = np.random.default_rng(seed)
    ranks = rng.zipf(s, size=n_choices)
    return np.minimum(ranks - 1, n_items - 1).astype(np.int64)


@dataclass(frozen=True)
class PacketStream:
    """A batch of variable-length packets laid out back to back."""

    offsets: np.ndarray  # int64, start byte index of each packet payload
    lengths: np.ndarray  # int64
    suspicious: np.ndarray  # bool, prefilter match (triggers deep inspection)

    @property
    def count(self) -> int:
        return len(self.lengths)

    @property
    def total_bytes(self) -> int:
        return int(self.offsets[-1] + self.lengths[-1]) if self.count else 0


def packet_stream(
    count: int, mean_length: int = 512, match_rate: float = 0.15, seed: int = 0
) -> PacketStream:
    """DARPA-like packet batch with a prefilter match-rate knob."""
    rng = np.random.default_rng(seed)
    lengths = np.maximum(64, rng.exponential(mean_length, size=count)).astype(np.int64)
    offsets = np.zeros(count, dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    suspicious = rng.random(count) < match_rate
    return PacketStream(offsets, lengths, suspicious)


def gaussian_keys(count: int, key_space: int, seed: int = 0) -> np.ndarray:
    """Gaussian-skewed join keys centred mid key-space."""
    rng = np.random.default_rng(seed)
    keys = rng.normal(key_space / 2, key_space / 12, size=count)
    return np.clip(keys, 0, key_space - 1).astype(np.int64)


def uniform_keys(count: int, key_space: int, seed: int = 0) -> np.ndarray:
    """Uniformly distributed join keys."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, key_space, size=count, dtype=np.int64)
