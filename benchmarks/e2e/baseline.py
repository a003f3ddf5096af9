"""Single-thread COST baseline and count oracle: file -> count.

A competent one-core enumerator for the three benchmark patterns, in
plain numpy over a degree-ordered CSR (the lean sorted-intersection
loop of *Shared Memory Parallel Subgraph Enumeration*, arXiv:1705.09358,
written as array operations).  It imports nothing from ``repro``: it is
the denominator of ``cost_ratio`` and the oracle every ``psgl count`` is
checked against, so it must not move when the program does.

Run as a subprocess::

    python baseline.py PG1 graph.txt [--repeat N]

prints ``count=<n>``; ``--repeat`` makes the process count the file N
times, so that the harness can time a process as long as it needs.
"""

from __future__ import annotations

import sys

import numpy as np

#: Upper bound on candidate rows materialised at once (bounds memory).
CHUNK_ROWS = 1 << 21


def read_edges(path):
    """Unique undirected edges ``(lo, hi)`` of a whitespace edge list."""
    pairs = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
    if pairs.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if pairs.shape[1] < 2 or pairs.min() < 0:
        raise ValueError(f"{path}: not a non-negative two-column edge list")
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    keep = lo != hi
    return np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)


class OrientedCSR:
    """Edges directed from lower to higher (degree, id) rank.

    Vertices are renumbered by rank, so ``u -> v`` implies ``u < v`` and
    every out-degree is O(sqrt(|E|)).  ``keys`` is the sorted array of
    ``u * n + v`` used for edge-membership binary search.
    """

    def __init__(self, edges):
        ids, dense = np.unique(edges, return_inverse=True)
        dense = dense.reshape(-1, 2)
        n = self.n = len(ids)
        degree = np.bincount(dense.ravel(), minlength=n)
        rank = np.empty(n, dtype=np.int64)
        rank[np.lexsort((np.arange(n), degree))] = np.arange(n)
        a, b = rank[dense[:, 0]], rank[dense[:, 1]]
        src, dst = np.minimum(a, b), np.maximum(a, b)
        self.keys = np.sort(src * n + dst)
        self.src = self.keys // n
        self.dst = self.keys % n
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.src, minlength=n), out=self.indptr[1:])
        self.out_degree = np.diff(self.indptr)

    def has_edges(self, us, vs):
        """Vectorised ``us[i] -> vs[i]`` membership."""
        if len(self.keys) == 0:
            return np.zeros(len(us), dtype=bool)
        wanted = us * self.n + vs
        at = np.searchsorted(self.keys, wanted)
        at[at == len(self.keys)] = 0
        return self.keys[at] == wanted

    def expand(self, tails):
        """All ``(row, w)`` with ``tails[row] -> w``: the out-neighbour
        lists of ``tails`` laid end to end, with their row numbers."""
        counts = self.out_degree[tails]
        total = int(counts.sum())
        rows = np.repeat(np.arange(len(tails)), counts)
        starts = np.cumsum(counts) - counts
        offset = np.arange(total) - np.repeat(starts, counts)
        return rows, self.dst[np.repeat(self.indptr[tails], counts) + offset]


def _chunks(weights):
    """Slices of consecutive rows whose summed weight stays near
    ``CHUNK_ROWS``."""
    if len(weights) == 0:
        return
    cuts = np.searchsorted(
        np.cumsum(weights), np.arange(CHUNK_ROWS, int(weights.sum()), CHUNK_ROWS)
    )
    bounds = np.unique(np.concatenate([[0], cuts + 1, [len(weights)]]))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        yield slice(int(lo), int(hi))


def triangles(g):
    """Rows ``(a, b, c)``, ``a < b < c`` by rank, one per triangle."""
    found = []
    for part in _chunks(g.out_degree[g.dst]):
        a, b = g.src[part], g.dst[part]
        rows, c = g.expand(b)
        hit = g.has_edges(a[rows], c)
        found.append(np.stack([a[rows][hit], b[rows][hit], c[hit]], axis=1))
    if not found:
        return np.empty((0, 3), dtype=np.int64)
    return np.concatenate(found)


def count_triangles(g):
    return len(triangles(g))


def count_four_cliques(g):
    """Each triangle ``a < b < c`` extends by every ``d`` past ``c``
    adjacent to all three."""
    tri = triangles(g)
    total = 0
    for part in _chunks(g.out_degree[tri[:, 2]]):
        a, b, c = tri[part].T
        rows, d = g.expand(c)
        hit = g.has_edges(a[rows], d)
        rows, d = rows[hit], d[hit]
        total += int(g.has_edges(b[rows], d).sum())
    return total


def count_squares(g):
    """4-cycles, each found at its highest-ranked corner ``v``: every
    two paths ``v - u - w`` with ``u, w < v`` sharing ``w`` close one."""
    n = g.n
    # Undirected adjacency as (vertex, neighbour) rows sorted by vertex.
    both = np.sort(np.concatenate([g.keys, g.dst * n + g.src]))
    vertex, neighbour = both // n, both % n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(vertex, minlength=n), out=indptr[1:])
    degree = np.diff(indptr)
    # Paths v - u with u < v are exactly the oriented edges u -> v; take
    # them grouped by v, so a chunk never splits one corner's paths.
    by_corner = np.argsort(g.dst, kind="stable")
    src, dst = g.src[by_corner], g.dst[by_corner]
    in_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=n), out=in_indptr[1:])
    per_corner = np.bincount(dst, weights=degree[src], minlength=n).astype(np.int64)
    total = 0
    for corners in _chunks(per_corner):
        part = slice(int(in_indptr[corners.start]), int(in_indptr[corners.stop]))
        u, v = src[part], dst[part]
        counts = degree[u]
        starts = np.cumsum(counts) - counts
        offset = np.arange(int(counts.sum())) - np.repeat(starts, counts)
        w = neighbour[np.repeat(indptr[u], counts) + offset]
        v = np.repeat(v, counts)
        low = w < v
        _, paths = np.unique(v[low] * n + w[low], return_counts=True)
        total += int((paths * (paths - 1) // 2).sum())
    return total


COUNTERS = {
    "PG1": count_triangles,
    "PG2": count_squares,
    "PG4": count_four_cliques,
}


def count_file(pattern, path):
    """File on disk -> instance count."""
    return COUNTERS[pattern](OrientedCSR(read_edges(path)))


def main(argv=None):
    args = list(sys.argv[1:] if argv is None else argv)
    repeat = 1
    if "--repeat" in args:
        at = args.index("--repeat")
        repeat = int(args[at + 1])
        del args[at:at + 2]
    if len(args) != 2 or args[0] not in COUNTERS or repeat < 1:
        print(f"usage: baseline.py {{{'|'.join(COUNTERS)}}} EDGE_LIST [--repeat N]",
              file=sys.stderr)
        return 2
    for _ in range(repeat):
        count = count_file(args[0], args[1])
    print(f"count={count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
