"""The light-weight edge index (Section 5.2.3).

The data graph lives in distributed memory, so checking a *remote* edge's
existence during candidate generation would cost a network round trip.
The paper instead replicates a small bloom filter over all edges on every
worker: candidate pruning consults it locally, accepting a small false-
positive rate (those survivors are killed by the exact adjacency check
when the corresponding GRAY vertex is later expanded).

Three interchangeable implementations support the Table 2 ablation:

* :class:`BloomEdgeIndex` — the paper's index;
* :class:`ExactEdgeIndex` — a sorted key array over edges (an upper bound
  on what any such index can prune; also how the tests validate the
  bloom);
* :class:`NullEdgeIndex` — claims every edge exists, i.e. the index
  disabled ("w/o index" columns).

Every implementation answers one probe at a time
(:meth:`~EdgeIndexBase.might_contain`, the reference plane) and a whole
batch of edges at once (:meth:`~EdgeIndexBase.might_contain_pairs`, the
production plane's batch-expansion kernel); the two must agree
probe-for-probe, including the ``queries``/``positives`` statistics,
which charge one query per edge either way.
"""

from __future__ import annotations

import copy

import numpy as np

from ..graph.graph import Graph
from .bloom import BloomFilter


def _edge_key(u: int, v: int, n: int) -> int:
    """Canonical integer key of undirected edge ``(u, v)``."""
    if u > v:
        u, v = v, u
    return u * n + v


def _edge_keys_pairs(us: np.ndarray, vs: np.ndarray, n: int) -> np.ndarray:
    """Canonical keys of elementwise ``(us[i], vs[i])`` edges, as ``uint64``.

    Matches :func:`_edge_key` value-for-value: keys are ``min * n + max``
    and ``n**2`` fits 64 bits for any graph this package can hold.
    """
    a = np.asarray(us, dtype=np.int64)
    b = np.asarray(vs, dtype=np.int64)
    lo = np.minimum(a, b).astype(np.uint64)
    hi = np.maximum(a, b).astype(np.uint64)
    return lo * np.uint64(n) + hi


def _all_edge_keys(graph: Graph) -> np.ndarray:
    """Key of every undirected edge, one numpy pass over the CSR arrays."""
    us, vs = graph.edge_arrays()
    return us.astype(np.uint64) * np.uint64(graph.num_vertices) + vs.astype(
        np.uint64
    )


class EdgeIndexBase:
    """Common interface: approximate membership plus probe statistics."""

    def __init__(self):
        self.queries = 0
        self.positives = 0
        self.probe_kernel = "numpy"

    def set_kernel(self, kernel: str) -> None:
        """Select the batched-probe implementation (``"numpy"`` or
        ``"native"``).

        ``"native"`` routes :meth:`might_contain_pairs` through the
        fused jitted probe loop
        in :mod:`repro.core.kernels` when a native runtime is available;
        answers and the ``queries``/``positives`` statistics are
        bit-identical either way, so flipping the kernel mid-run is safe.
        Implementations without a native probe ignore the setting.
        """
        from . import kernels

        if kernel not in ("numpy", "native"):
            raise ValueError(
                f"unknown probe kernel {kernel!r} (numpy|native)"
            )
        self.probe_kernel = (
            "native" if kernel == "native" and kernels.native_ready() else "numpy"
        )

    def reset_statistics(self) -> None:
        """Zero the probe counters (indexes are reused across runs)."""
        self.queries = 0
        self.positives = 0

    def detached_view(self) -> "EdgeIndexBase":
        """Shallow copy with private probe counters.

        Shares the (read-only) filter/key arrays with the parent — no
        rebuild cost — but owns fresh ``queries``/``positives``
        statistics, so concurrent jobs probing one replicated index
        never race on the counters.  This is how the query service hands
        each job its own view of the graph's one resident index.
        """
        clone = copy.copy(self)
        clone.reset_statistics()
        return clone

    def might_contain(self, u: int, v: int) -> bool:
        """Whether edge ``(u, v)`` possibly exists (never a false negative
        for real implementations)."""
        raise NotImplementedError

    def might_contain_pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Batched form: one bool per edge ``(us[i], vs[i])``.

        The batch-expansion kernel's candidate and cross-combination
        probes.  Statistics account one query per pair, matching a
        scalar :meth:`might_contain` loop — which is what this fallback
        runs; concrete indexes override it with a vectorised probe.
        """
        return np.fromiter(
            (self.might_contain(int(u), int(v)) for u, v in zip(us, vs)),
            dtype=bool,
            count=len(us),
        )

    def _record(self, answer: bool) -> bool:
        self.queries += 1
        if answer:
            self.positives += 1
        return answer

    def _record_many(self, answers: np.ndarray) -> np.ndarray:
        self.queries += len(answers)
        self.positives += int(np.count_nonzero(answers))
        return answers

    @property
    def pruned(self) -> int:
        """Number of probes answered 'definitely absent'."""
        return self.queries - self.positives


class BloomEdgeIndex(EdgeIndexBase):
    """Bloom-filter edge index; O(m) build, small footprint, adjustable
    precision."""

    def __init__(self, graph: Graph, fp_rate: float = 0.01, seed: int = 0):
        super().__init__()
        self._n = graph.num_vertices
        self._bloom = BloomFilter(max(graph.num_edges, 1), fp_rate, seed)
        self._bloom.add_many(_all_edge_keys(graph))

    def might_contain(self, u: int, v: int) -> bool:
        return self._record(_edge_key(u, v, self._n) in self._bloom)

    def _lookup_keys(self, keys: np.ndarray) -> np.ndarray:
        if getattr(self, "probe_kernel", "numpy") == "native":
            from . import kernels

            return kernels.bloom_contains_many(self._bloom, keys)
        return self._bloom.might_contain_many(keys)

    def might_contain_pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        keys = _edge_keys_pairs(us, vs, self._n)
        return self._record_many(self._lookup_keys(keys))

    def memory_bytes(self) -> int:
        """Index footprint (the paper notes ~2GB for Twitter's 1.2B edges)."""
        return self._bloom.memory_bytes()

    def estimated_fp_rate(self) -> float:
        """Realised false-positive probability of the underlying filter."""
        return self._bloom.estimated_fp_rate()


class ExactEdgeIndex(EdgeIndexBase):
    """Sorted-array edge index: zero false positives, larger footprint."""

    def __init__(self, graph: Graph):
        super().__init__()
        self._n = graph.num_vertices
        self._keys = np.sort(_all_edge_keys(graph))

    def _lookup_many(self, keys: np.ndarray) -> np.ndarray:
        k = len(self._keys)
        if k == 0:
            return np.zeros(len(keys), dtype=bool)
        if getattr(self, "probe_kernel", "numpy") == "native":
            from . import kernels

            return kernels.sorted_contains_many(self._keys, keys)
        pos = np.searchsorted(self._keys, keys)
        return (pos < k) & (self._keys[np.minimum(pos, k - 1)] == keys)

    def might_contain(self, u: int, v: int) -> bool:
        key = np.uint64(_edge_key(u, v, self._n))
        return self._record(bool(self._lookup_many(np.array([key]))[0]))

    def might_contain_pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        keys = _edge_keys_pairs(us, vs, self._n)
        return self._record_many(self._lookup_many(keys))


class NullEdgeIndex(EdgeIndexBase):
    """The index disabled: every probe answers 'maybe', so no early
    pruning happens and all invalid Gpsis survive to exact verification."""

    def might_contain(self, u: int, v: int) -> bool:
        return self._record(True)

    def might_contain_pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        return self._record_many(np.ones(len(us), dtype=bool))


def build_edge_index(graph: Graph, kind: str = "bloom", fp_rate: float = 0.01, seed: int = 0) -> EdgeIndexBase:
    """Factory: ``kind`` in ``{"bloom", "exact", "none"}``."""
    if kind == "bloom":
        return BloomEdgeIndex(graph, fp_rate=fp_rate, seed=seed)
    if kind == "exact":
        return ExactEdgeIndex(graph)
    if kind == "none":
        return NullEdgeIndex()
    raise ValueError(f"unknown edge index kind {kind!r}")
