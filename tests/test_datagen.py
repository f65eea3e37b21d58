"""Synthetic input generators: structural properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.datagen import (
    CSRGraph,
    _to_csr,
    banded_graph,
    citation_graph,
    gaussian_keys,
    packet_stream,
    rmat_graph,
    uniform_keys,
    zipf_choices,
)


class TestCSRGraph:
    def test_validate_accepts_well_formed(self):
        g = citation_graph(200, seed=1)
        g.validate()

    def test_degree_and_neighbors_agree(self):
        g = citation_graph(200, seed=1)
        for v in range(g.num_vertices):
            assert g.degree(v) == len(g.neighbors(v))

    def test_validate_rejects_bad_offsets(self):
        g = CSRGraph(np.array([0, 2, 1]), np.array([0, 1]))
        with pytest.raises(ValueError):
            g.validate()

    def test_validate_rejects_out_of_range_columns(self):
        g = CSRGraph(np.array([0, 1]), np.array([5]))
        with pytest.raises(ValueError):
            g.validate()


class TestCitationGraph:
    def test_deterministic(self):
        a = citation_graph(300, seed=3)
        b = citation_graph(300, seed=3)
        assert np.array_equal(a.col_indices, b.col_indices)

    def test_seed_changes_graph(self):
        a = citation_graph(300, seed=3)
        b = citation_graph(300, seed=4)
        assert not np.array_equal(a.col_indices, b.col_indices)

    def test_symmetrized(self):
        g = citation_graph(300, seed=3)
        # pick an edge and check its reverse exists (unless truncated)
        v = next(v for v in range(1, 300) if g.degree(v))
        u = int(g.neighbors(v)[0])
        if g.degree(u) < 256:  # reverse can only be dropped by hub truncation
            assert v in g.neighbors(u)

    def test_max_degree_respected(self):
        g = citation_graph(2000, mean_degree=16, seed=0, max_degree=64)
        assert int(np.diff(g.row_offsets).max()) <= 64

    def test_locality_of_neighbors(self):
        """With high locality, most neighbours are nearby in id space."""
        g = citation_graph(2000, locality=0.95, seed=0)
        near = far = 0
        for v in range(100, 2000, 50):
            for u in g.neighbors(v):
                if abs(int(u) - v) < 200:
                    near += 1
                else:
                    far += 1
        assert near > far


class TestRmatGraph:
    def test_shape(self):
        g = rmat_graph(8, edge_factor=8, seed=0)
        assert g.num_vertices == 256
        g.validate()

    def test_heavy_tail(self):
        g = rmat_graph(10, edge_factor=8, seed=0)
        degrees = np.diff(g.row_offsets)
        assert degrees.max() > 4 * degrees.mean()

    def test_max_degree_truncated(self):
        g = rmat_graph(10, edge_factor=16, seed=0, max_degree=32)
        assert int(np.diff(g.row_offsets).max()) <= 32

    def test_deterministic(self):
        a = rmat_graph(8, seed=5)
        b = rmat_graph(8, seed=5)
        assert np.array_equal(a.col_indices, b.col_indices)

    @pytest.mark.parametrize(
        "n_log2,edge_factor,seed,max_degree",
        [(8, 8, 0, 512), (10, 16, 3, 32), (9, 12, 7, 8), (6, 4, 11, 2)],
    )
    def test_matches_the_per_vertex_reference(self, n_log2, edge_factor, seed, max_degree):
        """The one-pass dedupe equals deduplicating each row on its own,
        hub truncation draws included."""
        g = rmat_graph(n_log2, edge_factor=edge_factor, seed=seed, max_degree=max_degree)
        ref = _rmat_per_vertex(n_log2, edge_factor, seed, max_degree)
        assert np.array_equal(g.row_offsets, ref.row_offsets)
        assert np.array_equal(g.col_indices, ref.col_indices)
        assert g.degrees == np.diff(ref.row_offsets).tolist()
        assert g.offsets == ref.row_offsets.tolist()


def _rmat_per_vertex(n_log2, edge_factor, seed, max_degree, a=0.57, b=0.19, c=0.19):
    """R-MAT with one ``np.unique`` per row: the reference for ``rmat_graph``."""
    n = 1 << n_log2
    m = n * edge_factor
    rng = np.random.default_rng(seed)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for _ in range(n_log2):
        src <<= 1
        dst <<= 1
        r = rng.random(m)
        dst += ((r >= a) & (r < a + b)) | (r >= a + b + c)
        src += r >= a + b
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    starts = np.searchsorted(src, np.arange(n))
    ends = np.searchsorted(src, np.arange(1, n + 1))
    adjacency = []
    for v in range(n):
        neigh = np.unique(dst[starts[v] : ends[v]])
        if len(neigh) > max_degree:
            keep = rng.choice(len(neigh), size=max_degree, replace=False)
            neigh = np.sort(neigh[keep])
        adjacency.append(neigh)
    return _to_csr(n, adjacency)


class TestBandedGraph:
    def test_neighbors_within_band(self):
        band = 16
        g = banded_graph(500, band=band, seed=0)
        for v in range(0, 500, 25):
            for u in g.neighbors(v):
                assert abs(int(u) - v) <= band

    def test_hubs_exist(self):
        g = banded_graph(2000, band=48, mean_degree=10, seed=0, hub_fraction=0.1)
        degrees = np.diff(g.row_offsets)
        assert degrees.max() >= 3 * degrees.mean()

    def test_validates(self):
        banded_graph(300, seed=2).validate()


class TestZipf:
    def test_range(self):
        picks = zipf_choices(5000, 100, seed=0)
        assert picks.min() >= 0
        assert picks.max() < 100

    def test_popularity_skew(self):
        picks = zipf_choices(20000, 1000, s=1.2, seed=0)
        top10 = np.sum(picks < 10)
        assert top10 > len(picks) * 0.3


class TestPacketStream:
    def test_layout_is_contiguous(self):
        s = packet_stream(100, seed=0)
        for i in range(99):
            assert s.offsets[i + 1] == s.offsets[i] + s.lengths[i]
        assert s.total_bytes == int(s.offsets[-1] + s.lengths[-1])

    def test_min_length(self):
        s = packet_stream(500, mean_length=64, seed=0)
        assert s.lengths.min() >= 64

    def test_match_rate_approximate(self):
        s = packet_stream(5000, match_rate=0.2, seed=0)
        assert 0.1 < s.suspicious.mean() < 0.3


class TestKeys:
    def test_uniform_spread(self):
        keys = uniform_keys(20000, 1 << 16, seed=0)
        counts, _ = np.histogram(keys, bins=16)
        assert counts.min() > 0.5 * counts.mean()

    def test_gaussian_concentrated(self):
        keys = gaussian_keys(20000, 1 << 16, seed=0)
        mid = np.sum((keys > (1 << 15) - (1 << 13)) & (keys < (1 << 15) + (1 << 13)))
        assert mid > 0.6 * len(keys)

    def test_bounds(self):
        for keys in (uniform_keys(1000, 512, seed=1), gaussian_keys(1000, 512, seed=1)):
            assert keys.min() >= 0 and keys.max() < 512


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=300), seed=st.integers(0, 100))
def test_citation_always_valid(n, seed):
    citation_graph(n, seed=seed).validate()


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=10, max_value=300), band=st.integers(1, 50), seed=st.integers(0, 100))
def test_banded_always_valid(n, band, seed):
    banded_graph(n, band=band, seed=seed).validate()
