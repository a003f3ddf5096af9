"""Parity tests for the native expansion kernels (:mod:`repro.core.kernels`).

The native kernels promise *bit-identical* results to the numpy
reference — counts, instances, edge-index probe statistics and ledgers —
with only wall-clock allowed to differ.  On machines without numba the
``PSGL_KERNEL_INTERPRETED`` hook (patched here as
``kernels.ALLOW_INTERPRETED``) runs the exact kernel bodies as plain
Python, so this suite pins the native path's behaviour everywhere; the
CI numba leg runs the same tests against the compiled kernels.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bsp import ExecutionConfig
from repro.core import PSgL, kernels
from repro.core.bloom import BloomFilter
from repro.core.edge_index import (
    BloomEdgeIndex,
    ExactEdgeIndex,
    NullEdgeIndex,
    build_edge_index,
)
from repro.graph.generators import erdos_renyi
from repro.pattern import paper_patterns

from .parity import assert_equivalent, assert_illegal, reference_run

GRAPH = erdos_renyi(48, 0.22, seed=11)
#: The end-to-end legs compare against the reference oracle, which is
#: several times slower than either kernel: a smaller graph keeps PG5 cheap.
LISTING_GRAPH = erdos_renyi(36, 0.22, seed=11)

INDEX_KINDS = ("none", "bloom", "exact")


@pytest.fixture
def interpreted_native(monkeypatch):
    """Let ``kernel='native'`` execute (interpreted when numba is absent)."""
    if not kernels.HAVE_NUMBA:
        monkeypatch.setattr(kernels, "ALLOW_INTERPRETED", True)
    yield


@lru_cache(maxsize=None)
def reference(pattern_name, index_kind):
    return reference_run(LISTING_GRAPH, pattern_name, edge_index=index_kind)


# ----------------------------------------------------------------------
# Knob semantics
# ----------------------------------------------------------------------
class TestResolution:
    def test_choices_and_unknown(self):
        assert kernels.KERNEL_CHOICES == ("auto", "numpy", "native")
        with pytest.raises(ValueError):
            kernels.resolve_kernel("fused")

    def test_auto_never_picks_interpreted(self, monkeypatch):
        # The interpreted hook is a test vehicle, slower than numpy —
        # auto must ignore it even when enabled.
        monkeypatch.setattr(kernels, "ALLOW_INTERPRETED", True)
        expected = "native" if kernels.HAVE_NUMBA else "numpy"
        assert kernels.resolve_kernel("auto") == expected

    def test_native_falls_back_without_runtime(self, monkeypatch):
        monkeypatch.setattr(kernels, "ALLOW_INTERPRETED", False)
        if kernels.HAVE_NUMBA:
            assert kernels.resolve_kernel("native") == "native"
        else:
            assert kernels.resolve_kernel("native") == "numpy"

    def test_kernel_info_shape(self):
        info = kernels.kernel_info("auto")
        assert set(info) == {
            "requested", "effective", "runtime", "numba", "numba_version"
        }
        assert info["runtime"] in ("jit", "interpreted", "numpy")
        assert info["numba"] == kernels.HAVE_NUMBA

    def test_result_records_effective_kernel(self, interpreted_native):
        for kernel in ("native", "numpy"):
            result = PSgL(GRAPH, kernel=kernel).run(paper_patterns()["PG2"])
            assert result.kernel == kernel


# ----------------------------------------------------------------------
# Unit parity: probe kernels vs their numpy references
# ----------------------------------------------------------------------
class TestProbeParity:
    def test_bloom_contains_many_matches_filter(self):
        rng = np.random.default_rng(0)
        bloom = BloomFilter(500, fp_rate=0.03, seed=9)
        members = rng.integers(0, 1 << 40, size=400, dtype=np.uint64)
        bloom.add_many(members)
        probes = np.concatenate(
            [members[:100], rng.integers(0, 1 << 40, size=300, dtype=np.uint64)]
        )
        expected = bloom.might_contain_many(probes)
        got = kernels.bloom_contains_many(bloom, probes)
        np.testing.assert_array_equal(got, expected)

    def test_bloom_scalar_positions_match(self):
        # The kernel walks (h1 + i*h2) mod m exactly like _probes does,
        # so even false positives agree key-by-key.
        bloom = BloomFilter(50, fp_rate=0.2, seed=3)
        bloom.add_many(np.arange(40, dtype=np.uint64) * 7919)
        keys = np.arange(3000, dtype=np.uint64)
        np.testing.assert_array_equal(
            kernels.bloom_contains_many(bloom, keys),
            bloom.might_contain_many(keys),
        )

    def test_sorted_contains_many(self):
        rng = np.random.default_rng(1)
        haystack = np.unique(rng.integers(0, 10_000, 600).astype(np.uint64))
        needles = rng.integers(0, 10_000, 800).astype(np.uint64)
        expected = np.isin(needles, haystack)
        got = kernels.sorted_contains_many(haystack, needles)
        np.testing.assert_array_equal(got, expected)

    def test_membership_sorted(self):
        # Two CSR segments, [1, 4, 9] and [16, 25]; needle i is looked
        # up in segment vd[i] only.
        indptr = np.array([0, 3, 5, 5], dtype=np.int64)
        indices = np.array([1, 4, 9, 16, 25], dtype=np.int64)
        vd = np.array([0, 0, 0, 1, 1, 0, 2], dtype=np.int64)
        needles = np.array([0, 1, 5, 16, 26, 25, 1], dtype=np.int64)
        np.testing.assert_array_equal(
            kernels.membership_sorted(indptr, indices, vd, needles),
            [False, True, False, True, False, False, False],
        )

    def test_empty_inputs(self):
        bloom = BloomFilter(10, fp_rate=0.1, seed=1)
        assert len(kernels.bloom_contains_many(bloom, np.array([], np.uint64))) == 0
        assert len(
            kernels.sorted_contains_many(
                np.array([], np.uint64), np.array([], np.uint64)
            )
        ) == 0

    def test_probe_pack_covers_builtin_indexes(self):
        for kind, cls, code in (
            ("bloom", BloomEdgeIndex, 1),
            ("exact", ExactEdgeIndex, 2),
            ("none", NullEdgeIndex, 0),
        ):
            index = build_edge_index(GRAPH, kind=kind, seed=5)
            assert type(index) is cls
            pack = kernels.probe_pack_for(index)
            assert pack is not None and pack[0] == code

    def test_probe_pack_rejects_unknown_index(self):
        class CustomIndex(ExactEdgeIndex):
            pass

        custom = CustomIndex.__new__(CustomIndex)
        assert kernels.probe_pack_for(custom) is None


# ----------------------------------------------------------------------
# End-to-end parity: full listing runs, numpy vs native
# ----------------------------------------------------------------------
class TestListingParity:
    @pytest.mark.parametrize("index_kind", INDEX_KINDS)
    @pytest.mark.parametrize(
        "pattern_name", ["PG1", "PG2", "PG3", "PG4", "PG5"]
    )
    def test_native_matches_numpy(
        self, interpreted_native, pattern_name, index_kind
    ):
        for kernel in ("numpy", "native"):
            assert_equivalent(
                ExecutionConfig(kernel=kernel),
                reference(pattern_name, index_kind),
            )

    def test_parity_on_columnar_thread_backend(self, interpreted_native):
        assert_equivalent(
            ExecutionConfig(kernel="native", backend="thread"),
            reference("PG3", "bloom"),
        )

    def test_trace_meta_records_kernel(self, interpreted_native):
        from repro.obs import Tracer

        tracer = Tracer()
        index = build_edge_index(GRAPH, kind="bloom", seed=5)
        PSgL(
            GRAPH, num_workers=2, edge_index=index,
            kernel="native", trace=tracer,
        ).run(paper_patterns()["PG2"])
        info = tracer.meta["kernel"]
        assert info["requested"] == "native"
        assert info["effective"] == "native"

    def test_unknown_kernel_rejected(self):
        assert_illegal(dict(kernel="fused"), "unknown kernel")


# ----------------------------------------------------------------------
# Hypothesis sweep: random graphs, random patterns, both probe kernels
# ----------------------------------------------------------------------
class TestKernelProperties:
    @settings(deadline=None, max_examples=20)
    @given(
        seed=st.integers(0, 2**16),
        capacity=st.integers(8, 600),
        fp_rate=st.floats(0.01, 0.3),
        n_keys=st.integers(0, 300),
    )
    def test_bloom_kernel_agrees_on_random_filters(
        self, seed, capacity, fp_rate, n_keys
    ):
        rng = np.random.default_rng(seed)
        bloom = BloomFilter(capacity, fp_rate=fp_rate, seed=seed)
        members = rng.integers(0, 1 << 62, size=n_keys, dtype=np.uint64)
        bloom.add_many(members)
        probes = rng.integers(0, 1 << 62, size=256, dtype=np.uint64)
        np.testing.assert_array_equal(
            kernels.bloom_contains_many(bloom, probes),
            bloom.might_contain_many(probes),
        )

    @settings(deadline=None, max_examples=10)
    @given(
        n=st.integers(8, 28),
        p=st.floats(0.15, 0.5),
        seed=st.integers(0, 2**10),
        pattern_name=st.sampled_from(["PG1", "PG2", "PG3"]),
        index_kind=st.sampled_from(list(INDEX_KINDS)),
    )
    def test_listing_parity_on_random_graphs(
        self, n, p, seed, pattern_name, index_kind
    ):
        # hypothesis shares one fixture instance across examples, so the
        # interpreted hook is flipped by hand rather than via monkeypatch.
        saved = kernels.ALLOW_INTERPRETED
        kernels.ALLOW_INTERPRETED = True
        try:
            graph = erdos_renyi(n, p, seed=seed)
            pattern = paper_patterns()[pattern_name]
            results = {}
            for kernel in ("numpy", "native"):
                index = build_edge_index(graph, kind=index_kind, seed=seed)
                result = PSgL(
                    graph, num_workers=3, edge_index=index, kernel=kernel
                ).run(pattern, collect_instances=True)
                results[kernel] = (
                    result.count,
                    sorted(map(tuple, result.instances)),
                    result.index_queries,
                    result.index_pruned,
                )
            assert results["native"] == results["numpy"]
        finally:
            kernels.ALLOW_INTERPRETED = saved
