"""Synthetic graph generators.

The paper evaluates on SNAP/KONECT graphs plus one NetworkX Erdos-Renyi
random graph.  We have no network access, so the benchmark datasets are
scaled-down synthetic analogs produced here:

* :func:`erdos_renyi` — the paper's RandGraph (Poisson-ish degrees);
* :func:`chung_lu_power_law` — power-law graphs with a tunable exponent
  ``gamma``, matched to each real graph's reported skew (WikiTalk
  ``gamma ~ 1.09`` is the most skewed, UsPatent ``gamma ~ 3.13`` the
  mildest);
* :func:`barabasi_albert` — preferential attachment, an alternative
  power-law model used in ablations;
* small deterministic families (:func:`complete_graph`, :func:`cycle_graph`,
  :func:`star_graph`, :func:`grid_graph`) with closed-form subgraph counts
  used as test oracles.

All generators take an integer ``seed`` and are fully deterministic.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..exceptions import GraphError
from .graph import Graph


def erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p) random graph (the paper's RandGraph analog).

    Uses the standard geometric skipping trick so the cost is proportional
    to the number of edges, not ``n**2``.
    """
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    edges: List[Tuple[int, int]] = []
    if p == 0.0 or n < 2:
        return Graph(n, edges)
    if p == 1.0:
        return complete_graph(n)
    # Iterate potential edges in lexicographic order, skipping geometrically.
    log_q = np.log1p(-p)
    v, w = 1, -1
    while v < n:
        r = rng.random()
        w = w + 1 + int(np.floor(np.log1p(-r) / log_q))
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return Graph(n, edges)


def chung_lu_power_law(
    n: int,
    gamma: float,
    avg_degree: float = 8.0,
    max_degree: int = 0,
    seed: int = 0,
) -> Graph:
    """Power-law graph via the Chung-Lu model.

    Each vertex gets a weight ``w_i ~ i**(-1/(gamma-1))`` (scaled to hit
    ``avg_degree``); the edge ``(i, j)`` appears with probability
    ``min(1, w_i * w_j / sum(w))``.  The realised degree distribution follows
    a power law with exponent ``gamma``; smaller ``gamma`` means heavier
    hubs.

    Parameters
    ----------
    max_degree:
        Optional cap on the expected degree of the largest hub (0 = no cap).
        Keeps ultra-skewed analogs (WikiTalk, ``gamma`` near 1) tractable.
    """
    if gamma <= 1.0:
        raise GraphError(f"gamma must be > 1 for Chung-Lu, got {gamma}")
    if n < 2:
        return Graph(n, [])
    rng = np.random.default_rng(seed)
    ranksize = np.arange(1, n + 1, dtype=np.float64)
    weights = ranksize ** (-1.0 / (gamma - 1.0))
    weights *= (avg_degree * n) / weights.sum()
    if max_degree > 0:
        # Capping hubs removes weight mass; rescale the uncapped tail a few
        # times so the realised average degree still lands near the target.
        for _ in range(4):
            capped = weights > float(max_degree)
            deficit = avg_degree * n - np.minimum(weights, float(max_degree)).sum()
            tail_sum = weights[~capped].sum()
            if deficit <= 0 or tail_sum <= 0:
                break
            weights[~capped] *= 1.0 + deficit / tail_sum
        weights = np.minimum(weights, float(max_degree))
    total = weights.sum()
    # Efficient sampling: the expected number of edges incident to i among
    # j > i is sum_j min(1, w_i w_j / W).  We sample per-vertex via
    # geometric skipping over the (sorted, descending) weight array.
    edges: List[Tuple[int, int]] = []
    for i in range(n - 1):
        wi = weights[i]
        j = i + 1
        while j < n:
            p = wi * weights[j] / total
            if p >= 1.0:
                edges.append((i, j))
                j += 1
                continue
            if p <= 0.0:
                break
            # Skip ahead geometrically using the current probability as an
            # upper bound (weights are non-increasing), then accept with the
            # exact probability at the landing position.
            r = rng.random()
            skip = int(np.floor(np.log1p(-r) / np.log1p(-p)))
            j += skip
            if j >= n:
                break
            p_exact = wi * weights[j] / total
            if rng.random() < p_exact / p:
                edges.append((i, j))
            j += 1
    # Vertex ids are in descending-weight order, which makes hubs the low
    # ids.  Shuffle labels so partitions don't accidentally align with the
    # degree sequence.
    perm = rng.permutation(n)
    edges = [(int(perm[u]), int(perm[v])) for u, v in edges]
    return Graph(n, edges)


def barabasi_albert(n: int, m: int, seed: int = 0) -> Graph:
    """Preferential-attachment power-law graph (``gamma ~ 3``).

    Each new vertex attaches to ``m`` existing vertices chosen proportional
    to their current degree.
    """
    if m < 1 or m >= n:
        raise GraphError(f"need 1 <= m < n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    edges: List[Tuple[int, int]] = []
    # Repeated-nodes list implements preferential attachment in O(1)/draw.
    repeated: List[int] = list(range(m))
    for v in range(m, n):
        targets = set()
        while len(targets) < m:
            if repeated and rng.random() > 1.0 / (len(repeated) + 1):
                targets.add(repeated[rng.integers(len(repeated))])
            else:
                targets.add(int(rng.integers(v)))
        for t in targets:
            edges.append((v, t))
            repeated.append(v)
            repeated.append(t)
    return Graph(n, edges)


def rmat(
    scale: int,
    avg_degree: float = 8.0,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
) -> Graph:
    """R-MAT recursive-matrix graph (Chakrabarti et al.), the standard
    synthetic benchmark family for graph systems (Graph500 uses it).

    ``2**scale`` vertices; each of the ``avg_degree * n / 2`` edges drops
    one quadrant at a time down the recursive 2x2 partition with
    probabilities ``(a, b, c, 1-a-b-c)``.  The default parameters give the
    usual heavy-tailed, community-structured graph.
    """
    if scale < 1 or scale > 24:
        raise GraphError(f"scale must be in [1, 24], got {scale}")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise GraphError(f"quadrant probabilities ({a}, {b}, {c}) exceed 1")
    rng = np.random.default_rng(seed)
    n = 1 << scale
    num_edges = int(avg_degree * n / 2)
    # Vectorised: one random quadrant choice per (edge, level).
    thresholds = np.cumsum([a, b, c])
    draws = rng.random((num_edges, scale))
    quadrant = np.searchsorted(thresholds, draws)  # 0..3 per cell
    row_bits = (quadrant >> 1) & 1
    col_bits = quadrant & 1
    powers = 1 << np.arange(scale - 1, -1, -1)
    us = (row_bits * powers).sum(axis=1)
    vs = (col_bits * powers).sum(axis=1)
    return Graph(n, np.column_stack((us, vs)))


def complete_graph(n: int) -> Graph:
    """K_n: every pair of vertices joined; rich closed-form counts."""
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    """C_n: a single n-cycle (n >= 3)."""
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """K_{1,n-1}: vertex 0 joined to all others; triangle free."""
    if n < 1:
        raise GraphError(f"star needs n >= 1, got {n}")
    return Graph(n, [(0, i) for i in range(1, n)])


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols grid; quadrangle-rich and triangle-free."""
    if rows < 1 or cols < 1:
        raise GraphError(f"grid needs positive dims, got {rows}x{cols}")

    def vid(r: int, c: int) -> int:
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph(rows * cols, edges)
