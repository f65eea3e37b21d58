"""GPUConfig and CacheConfig validation."""

import pytest

from repro.gpu.config import KEPLER_K20C, CacheConfig, GPUConfig


class TestCacheConfig:
    def test_geometry(self):
        c = CacheConfig(size_bytes=32 * 1024, line_bytes=128, associativity=4)
        assert c.num_lines == 256
        assert c.num_sets == 64

    def test_fully_divisible_required(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, line_bytes=128, associativity=4)

    def test_direct_mapped(self):
        c = CacheConfig(size_bytes=1024, line_bytes=128, associativity=1)
        assert c.num_sets == c.num_lines == 8


class TestGPUConfig:
    def test_kepler_defaults_match_table1(self):
        c = KEPLER_K20C
        assert c.num_smx == 13
        assert c.max_threads_per_smx == 2048
        assert c.max_tbs_per_smx == 16
        assert c.shared_mem_per_smx == 32 * 1024
        assert c.l1.size_bytes == 32 * 1024
        assert c.l2.size_bytes == 1536 * 1024
        assert c.line_bytes == 128
        assert c.kdu_entries == 32

    def test_describe_lists_key_rows(self):
        text = KEPLER_K20C.describe()
        assert "SMXs" in text
        assert "13" in text
        assert "32 KB" in text
        assert "Max concurrent kernels" in text

    def test_with_overrides_returns_new_instance(self):
        c = KEPLER_K20C.with_overrides(num_smx=4)
        assert c.num_smx == 4
        assert KEPLER_K20C.num_smx == 13

    def test_requires_at_least_one_smx(self):
        with pytest.raises(ValueError):
            GPUConfig(num_smx=0)

    def test_line_size_consistency_enforced(self):
        with pytest.raises(ValueError):
            GPUConfig(l1=CacheConfig(size_bytes=8 * 1024, line_bytes=64))

    def test_a_line_size_other_than_128_is_refused(self):
        """Traces are lowered at 128-byte lines, so a machine with matching
        64-byte caches is still refused, by name."""
        with pytest.raises(ValueError, match="line_bytes must be 128.*not 64"):
            GPUConfig(
                line_bytes=64,
                l1=CacheConfig(size_bytes=32 * 1024, line_bytes=64, associativity=4),
                l2=CacheConfig(size_bytes=1536 * 1024, line_bytes=64, associativity=16),
            )

    def test_line_size_field_keeps_the_fingerprint(self):
        # literal: the field stays, so every result-cache address stays too
        from repro.gpu.serialize import config_fingerprint

        assert config_fingerprint(GPUConfig()) == "b625a980bdb803ed"
        assert GPUConfig().to_dict()["line_bytes"] == 128

    def test_unknown_warp_scheduler_rejected(self):
        with pytest.raises(ValueError):
            GPUConfig(warp_scheduler="magic")
        with pytest.raises(ValueError, match="'tl'"):
            GPUConfig(warp_scheduler="tl")  # the retired two-level policy

    def test_lrr_accepted(self):
        assert GPUConfig(warp_scheduler="lrr").warp_scheduler == "lrr"

    def test_frozen(self):
        with pytest.raises(Exception):
            KEPLER_K20C.num_smx = 1
