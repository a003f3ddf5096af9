"""Unit tests for the cost model and the bloom filter."""

import math

import numpy as np
import pytest

from repro.core import (
    BloomEdgeIndex,
    BloomFilter,
    CostParameters,
    binomial,
    estimate_f,
    estimate_load,
    expected_f_from_distribution,
    optimal_parameters,
)
from repro.exceptions import ReproError
from repro.graph.generators import erdos_renyi


class TestBinomial:
    def test_small_values_exact(self):
        assert binomial(5, 2) == pytest.approx(10.0)
        assert binomial(10, 0) == 1.0
        assert binomial(7, 7) == pytest.approx(1.0)

    def test_out_of_range_zero(self):
        assert binomial(3, 5) == 0.0
        assert binomial(-1, 0) == 0.0
        assert binomial(3, -1) == 0.0

    def test_large_values_capped(self):
        assert binomial(10_000, 5_000) == 1e18

    def test_matches_math_comb(self):
        for n in range(0, 30):
            for k in range(0, n + 1):
                assert binomial(n, k) == pytest.approx(math.comb(n, k), rel=1e-9)


class TestEstimates:
    def test_estimate_f_verification_is_one(self):
        assert estimate_f(100, 0) == 1.0

    def test_estimate_f_upper_bound(self):
        assert estimate_f(10, 2) == pytest.approx(45.0)

    def test_estimate_load_equation2(self):
        costs = CostParameters(gray_check=2.0, scan=1.0, ce=3.0)
        assert estimate_load(4, 1, costs) == pytest.approx(2.0 + 3.0 * 4.0)

    def test_expected_f_from_distribution(self):
        dist = {2: 0.5, 4: 0.5}
        # min degree 3 keeps only d=4: 0.5 * C(4,2) = 3
        assert expected_f_from_distribution(dist, 3, 2) == pytest.approx(3.0)

    def test_expected_f_empty(self):
        assert expected_f_from_distribution({}, 0, 1) == 0.0

    def test_expected_f_capped(self):
        dist = {100000: 1.0}
        assert expected_f_from_distribution(dist, 0, 4) == 1e18


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(1000, 0.01, seed=1)
        keys = list(range(0, 5000, 5))
        for k in keys:
            bloom.add(k)
        assert all(k in bloom for k in keys)

    def test_fp_rate_near_target(self):
        bloom = BloomFilter(2000, 0.02, seed=2)
        for k in range(2000):
            bloom.add(k)
        false_positives = sum(1 for k in range(10_000, 40_000) if k in bloom)
        assert false_positives / 30_000 < 0.06  # 3x slack on the 2% target

    def test_estimated_fp_rate_reasonable(self):
        bloom = BloomFilter(500, 0.01, seed=3)
        for k in range(500):
            bloom.add(k)
        assert 0.0 < bloom.estimated_fp_rate() < 0.05

    def test_empty_filter_rejects_everything(self):
        bloom = BloomFilter(100, 0.01)
        assert 42 not in bloom

    def test_determinism_across_instances(self):
        a = BloomFilter(100, 0.01, seed=9)
        b = BloomFilter(100, 0.01, seed=9)
        for k in [3, 1000, 77777]:
            a.add(k)
            b.add(k)
        probe = [k in a for k in range(200)]
        assert probe == [k in b for k in range(200)]

    def test_memory_bytes_positive(self):
        assert BloomFilter(100, 0.01).memory_bytes() > 0

    def test_optimal_parameters_monotone(self):
        m_small, _ = optimal_parameters(100, 0.01)
        m_big, _ = optimal_parameters(1000, 0.01)
        assert m_big > m_small
        m_loose, _ = optimal_parameters(100, 0.1)
        assert m_loose < m_small

    def test_invalid_fp_rate(self):
        with pytest.raises(ReproError):
            optimal_parameters(100, 0.0)
        with pytest.raises(ReproError):
            optimal_parameters(100, 1.5)

    def test_zero_items_clamped(self):
        m, k = optimal_parameters(0, 0.5)
        assert m >= 8 and k >= 1

    def test_repr(self):
        assert "BloomFilter" in repr(BloomFilter(10, 0.1))


class TestPackedBloomParity:
    def test_add_many_matches_scalar_add(self):
        rng = np.random.default_rng(2)
        keys = rng.integers(0, 2**40, size=400, dtype=np.uint64)
        a = BloomFilter(400, fp_rate=0.02, seed=9)
        b = BloomFilter(400, fp_rate=0.02, seed=9)
        for k in keys:
            a.add(int(k))
        b.add_many(keys)
        assert np.array_equal(a._bits, b._bits)
        assert a.count == b.count

    def test_batched_probe_matches_contains(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 2**40, size=300, dtype=np.uint64)
        bloom = BloomFilter(300, fp_rate=0.01, seed=4)
        bloom.add_many(keys[:150])
        probes = np.concatenate(
            [keys, rng.integers(0, 2**40, size=300, dtype=np.uint64)]
        )
        batched = bloom.might_contain_many(probes)
        scalar = [int(k) in bloom for k in probes]
        assert batched.tolist() == scalar
        # No false negatives on the inserted half.
        assert batched[:150].all()

    def test_no_false_negatives_after_batch_insert(self):
        keys = np.arange(1000, dtype=np.uint64) * np.uint64(2654435761)
        bloom = BloomFilter(1000, fp_rate=0.01, seed=0)
        bloom.add_many(keys)
        assert bloom.might_contain_many(keys).all()


class TestBloomMemoryReporting:
    def test_memory_bytes_equals_allocation(self):
        """Regression: memory_bytes() must report the packed bit array's
        actual footprint, not a per-bit byte count (the old bug reported
        ~8x the allocation)."""
        for items, fp in [(100, 0.01), (5000, 0.001), (1, 0.5)]:
            bloom = BloomFilter(items, fp_rate=fp)
            assert bloom.memory_bytes() == bloom._bits.nbytes
            # Packed: one byte per 8 bits, rounded up to a uint64 word.
            assert bloom.memory_bytes() == ((bloom.num_bits + 63) // 64) * 8
            if bloom.num_bits >= 64:
                assert bloom.memory_bytes() < bloom.num_bits  # packed

    def test_index_reports_filter_footprint(self):
        index = BloomEdgeIndex(erdos_renyi(60, 0.2, seed=7))
        assert index.memory_bytes() == index._bloom._bits.nbytes


class TestProbeDedupParity:
    """The batched prober hashes once per *unique* key (repeated keys are
    gathered back through the ``np.unique`` inverse).  These tests pin
    that the dedup is invisible: answers, bit patterns and probe-count
    statistics all match hashing every key individually."""

    def test_repeated_keys_match_scalar_probes(self):
        bloom = BloomFilter(200, fp_rate=0.05, seed=6)
        bloom.add_many(np.arange(120, dtype=np.uint64) * np.uint64(97))
        rng = np.random.default_rng(8)
        # ~12x average repetition: the expansion hot path's shape, where
        # one GRAY image pairs against a whole candidate row.
        base = rng.integers(0, 2**40, size=50, dtype=np.uint64)
        keys = rng.choice(base, size=600)
        batched = bloom.might_contain_many(keys)
        assert batched.tolist() == [int(k) in bloom for k in keys]

    def test_probe_positions_preserve_order_and_duplicates(self):
        bloom = BloomFilter(64, fp_rate=0.1, seed=2)
        keys = np.array([9, 3, 9, 9, 3, 7], dtype=np.uint64)
        positions = bloom._probe_positions(keys)
        assert positions.shape == (6, bloom.num_hashes)
        expected = np.array([list(bloom._probes(int(k))) for k in keys])
        assert np.array_equal(positions, expected)

    def test_add_many_with_duplicates_matches_scalar_adds(self):
        keys = np.array([5, 5, 11, 5, 11, 23], dtype=np.uint64)
        a = BloomFilter(50, fp_rate=0.05, seed=1)
        b = BloomFilter(50, fp_rate=0.05, seed=1)
        a.add_many(keys)
        for k in keys:
            b.add(int(k))
        assert np.array_equal(a._bits, b._bits)
        assert a.count == b.count == len(keys)
