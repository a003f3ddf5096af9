"""The paper's random partition: numpy's PCG64 stream, reproduced.

``random_partition`` draws ``np.random.default_rng(seed).integers(0, k,
size=n)`` without importing ``numpy.random`` (:mod:`repro.graph._pcg64`).
These tests hold it to numpy draw for draw, and pin one draw's digest so
the partition — and every makespan it decides — stays fixed even if
numpy ever changes its own stream.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import GraphError
from repro.graph import random_partition
from repro.graph._pcg64 import bounded_integers
from repro.core.distribution import DistributionStrategy, worker_rng


def numpy_draw(seed, k, n):
    return np.random.default_rng(seed).integers(0, k, size=n)


class TestStream:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.one_of(st.integers(0, 2**70), st.integers(0, 9)),
        k=st.one_of(
            st.integers(1, 2**32 - 1),
            st.integers(1, 64),
            # About half of all 32-bit words are rejected.
            st.just(2**31 + 1),
            st.just(2**32 - 1),
        ),
        n=st.integers(0, 10**4),
    )
    def test_equals_numpy(self, seed, k, n):
        expected = numpy_draw(seed, k, n)
        drawn = bounded_integers(seed, k, n)
        assert drawn.dtype == expected.dtype == np.int64
        assert drawn.shape == expected.shape
        assert np.array_equal(drawn, expected)
        assert np.array_equal(random_partition(n, k, seed).owner_array, expected)

    @pytest.mark.parametrize("seed, k, n", [
        # Several blocks of states, and a rejection-heavy multi-block draw.
        (0, 4, 300_000),
        (2**64 + 5, 2**31 + 1, 200_000),
    ])
    def test_long_draws_cross_blocks(self, seed, k, n):
        assert np.array_equal(bounded_integers(seed, k, n), numpy_draw(seed, k, n))

    def test_pinned_draw(self):
        """R-MAT scale 8 (2**8 vertices) on 4 workers, seed 0."""
        owner = random_partition(2**8, 4, seed=0).owner_array
        assert owner[:16].tolist() == [3, 2, 2, 1, 1, 0, 0, 0, 0, 3, 2, 3, 2, 2, 3, 2]
        assert np.bincount(owner).tolist() == [60, 59, 63, 74]
        assert hashlib.sha256(owner.astype("<i8").tobytes()).hexdigest() == (
            "a230233b18631730ad00ecc48a8700ddbe5dc78876e7c81d1343cd335922048c"
        )


class TestRefusals:
    @pytest.mark.parametrize("k", [2**32, 2**40])
    def test_numpy_64_bit_path_is_refused(self, k):
        with pytest.raises(GraphError, match="2\\*\\*32"):
            random_partition(10, k)

    def test_no_worker_is_refused(self):
        with pytest.raises(GraphError, match="need >= 1 worker"):
            random_partition(10, 0)

    def test_bad_seeds_fail_as_numpy_does(self):
        with pytest.raises(ValueError) as numpy_error:
            numpy_draw(-1, 4, 10)
        with pytest.raises(ValueError, match=f"^{numpy_error.value}$"):
            random_partition(10, 4, seed=-1)
        for seed in (1.5, "7"):
            with pytest.raises(TypeError):
                numpy_draw(seed, 4, 10)
            with pytest.raises(TypeError):
                random_partition(10, 4, seed=seed)

    def test_negative_size_fails_as_numpy_does(self):
        with pytest.raises(ValueError, match="negative dimensions"):
            random_partition(-1, 4)


class TestRoutingRng:
    def test_built_on_the_first_draw(self):
        """A worker's state carries only its ``(seed, worker_id)`` until a
        strategy draws; the RNG then built is ``worker_rng``'s stream."""
        state = {"dist_seed": (3, 1)}
        rng = DistributionStrategy._rng(state)
        assert state["dist_rng"] is rng
        assert DistributionStrategy._rng(state) is rng
        assert rng.random() == worker_rng(3, 1).random()
