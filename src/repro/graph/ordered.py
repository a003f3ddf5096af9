"""Degree-ordered view of a data graph (Section 3, "Ordered Graph").

The paper imposes a total order on data vertices:

1. ``v < u`` if ``deg(v) < deg(u)``;
2. ties broken by vertex id (``v < u`` if ``deg(v) == deg(u)`` and
   ``id(v) < id(u)``).

For each vertex the paper then defines

* ``nb(v)`` — number of neighbours ranked *below* ``v`` ("smaller rank"), and
* ``ns(v)`` — number of neighbours ranked *above* ``v``,

and observes (Property 1) that the ``nb`` distribution is *more skewed* than
the raw degree distribution while ``ns`` is *more balanced*.  Both quantities
drive the deterministic initial-pattern-vertex rule (Theorem 5).

Because ranks sort by degree first, every candidate rule of Algorithm 5
that bounds a vertex by degree or by order is a rank interval, and the
adjacency keyed by rank (:attr:`OrderedGraph.rank_keys`) answers "the
neighbours of ``u`` ranked strictly between ``a`` and ``b``" with two
binary searches.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .graph import Graph


class OrderedGraph:
    """A :class:`Graph` plus the paper's degree-based total order.

    The order is exposed as an integer ``rank`` per vertex: ``rank(v) <
    rank(u)`` iff ``v < u`` in the paper's order.  Ranks are a permutation of
    ``0..n-1`` so comparisons are single integer compares in the hot loops.
    """

    __slots__ = ("graph", "_rank", "_nb", "_ns", "_by_rank", "_rank_keys")

    def __init__(self, graph: Graph):
        self.graph = graph
        n = graph.num_vertices
        degrees = graph.degrees
        # Sort by (degree, id); position in that order is the rank.
        order = np.lexsort((np.arange(n), degrees))
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        self._rank = rank
        self._by_rank = order
        self._rank_keys = None
        # nb/ns in one vectorised pass over the CSR arrays: flag every
        # adjacency slot whose target ranks below its source, then reduce
        # per-vertex via a prefix sum over the slice boundaries.
        indptr, indices = graph.to_csr()
        below = rank[indices] < np.repeat(rank, degrees)
        sums = np.concatenate(([0], np.cumsum(below, dtype=np.int64)))
        nb = sums[indptr[1:]] - sums[indptr[:-1]]
        self._nb = np.asarray(nb, dtype=np.int64)
        self._ns = np.asarray(degrees - nb, dtype=np.int64)

    # ------------------------------------------------------------------
    def rank(self, v: int) -> int:
        """Position of ``v`` in the degree-based total order."""
        return int(self._rank[v])

    @property
    def ranks(self) -> np.ndarray:
        """Rank of every vertex (a permutation of ``0..n-1``)."""
        return self._rank

    @property
    def by_rank(self) -> np.ndarray:
        """The vertex of every rank: ``by_rank[ranks[v]] == v``."""
        return self._by_rank

    @property
    def rank_shift(self) -> int:
        """Bits of a rank: every rank is below ``1 << rank_shift``."""
        return max(self.graph.num_vertices - 1, 1).bit_length()

    @property
    def rank_keys(self) -> np.ndarray:
        """Every adjacency slot keyed ``u << rank_shift | rank[v]``,
        sorted: the neighbours of ``u`` in rank order, ``u``-major.  Built
        on first use and cached; one int64 per directed edge."""
        if self._rank_keys is None:
            graph = self.graph
            keys = np.repeat(
                np.arange(graph.num_vertices, dtype=np.int64) << self.rank_shift,
                graph.degrees,
            )
            keys |= self._rank[graph.indices]
            keys.sort()
            keys.flags.writeable = False
            self._rank_keys = keys
        return self._rank_keys

    def rank_floor(self, degree: int) -> int:
        """The lowest rank whose vertex has at least ``degree`` neighbours
        (``n`` when none has): ranks sort by degree first, so the degree
        rule is a rank bound."""
        return int(np.count_nonzero(self.graph.degrees < degree))

    def precedes(self, u: int, v: int) -> bool:
        """Whether ``u < v`` in the paper's order."""
        return self._rank[u] < self._rank[v]

    def nb(self, v: int) -> int:
        """Number of neighbours of ``v`` with smaller rank."""
        return int(self._nb[v])

    def ns(self, v: int) -> int:
        """Number of neighbours of ``v`` with larger rank."""
        return int(self._ns[v])

    @property
    def nb_values(self) -> np.ndarray:
        """``nb`` for every vertex."""
        return self._nb

    @property
    def ns_values(self) -> np.ndarray:
        """``ns`` for every vertex."""
        return self._ns

    def check_property1(self) -> Tuple[int, int, int]:
        """Sanity identity behind Property 1.

        Each edge contributes exactly once to ``nb`` (at its higher-ranked
        end) and once to ``ns`` (at its lower-ranked end), so both sums
        equal ``|E|``.  Returns ``(sum(nb), sum(ns), |E|)``.
        """
        return int(self._nb.sum()), int(self._ns.sum()), self.graph.num_edges

    def __repr__(self) -> str:
        return f"OrderedGraph({self.graph!r})"
