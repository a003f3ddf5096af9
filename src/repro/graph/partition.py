"""Vertex partitioning across BSP workers.

The paper deliberately keeps partitioning simple: "the data graph is simply
random partitioned, and the Gpsis are distributed online" (Section 5.1).
We provide the paper's random partition plus hash and contiguous-range
partitions used in ablations.
"""

from __future__ import annotations

import os
from typing import List

import numpy as np

from ..exceptions import GraphError
from ._pcg64 import K_LIMIT, bounded_integers


class Partition:
    """Assignment of vertices ``0..n-1`` to ``k`` workers."""

    __slots__ = ("_owner", "_k")

    def __init__(self, owner: np.ndarray, num_workers: int):
        if num_workers < 1:
            raise GraphError(f"need >= 1 worker, got {num_workers}")
        if len(owner) and (owner.min() < 0 or owner.max() >= num_workers):
            raise GraphError("owner array references nonexistent worker")
        self._owner = owner.astype(np.int64)
        self._k = num_workers

    @property
    def num_workers(self) -> int:
        """Number of workers ``K``."""
        return self._k

    @property
    def num_vertices(self) -> int:
        """Number of partitioned vertices."""
        return len(self._owner)

    def owner(self, v: int) -> int:
        """Worker id owning vertex ``v``."""
        return int(self._owner[v])

    @property
    def owner_array(self) -> np.ndarray:
        """The vertex -> worker map as an ``int64`` array (read-only use;
        lets shuffles gather owners for whole destination columns at
        once instead of one ``owner()`` call per message)."""
        return self._owner

    def vertices_of(self, worker: int) -> np.ndarray:
        """All vertices owned by ``worker`` (sorted)."""
        return np.nonzero(self._owner == worker)[0]

    def sizes(self) -> List[int]:
        """Vertex count per worker."""
        return [int(np.count_nonzero(self._owner == w)) for w in range(self._k)]

    def __repr__(self) -> str:
        return f"Partition(n={len(self._owner)}, K={self._k})"


def random_partition(num_vertices: int, num_workers: int, seed: int = 0) -> Partition:
    """The paper's default: each vertex to a uniformly random worker.

    The owners are ``np.random.default_rng(seed).integers(0, num_workers,
    size=num_vertices)`` — numpy's PCG64 stream, reproduced with plain
    numpy arithmetic (:mod:`repro.graph._pcg64`), so a count never
    imports ``numpy.random``.  ``seed=None`` draws 128 bits of OS
    entropy, as numpy does.  ``num_workers`` must be below ``2**32``
    (numpy's 64-bit draw is not reproduced): :class:`GraphError`.
    """
    if num_workers < 1:
        raise GraphError(f"need >= 1 worker, got {num_workers}")
    if num_workers >= K_LIMIT:
        raise GraphError(
            f"random_partition supports < 2**32 workers, got {num_workers}"
        )
    if seed is None:
        seed = int.from_bytes(os.urandom(16), "little")
    owner = bounded_integers(seed, num_workers, num_vertices)
    return Partition(owner, num_workers)


def hash_partition(num_vertices: int, num_workers: int) -> Partition:
    """Deterministic modulo-hash partition (Pregel's default)."""
    owner = np.arange(num_vertices, dtype=np.int64) % num_workers
    return Partition(owner, num_workers)


def range_partition(num_vertices: int, num_workers: int) -> Partition:
    """Contiguous equal ranges; pathological for degree-sorted graphs,
    used to demonstrate why the paper avoids structure-correlated splits."""
    if num_workers < 1:
        raise GraphError(f"need >= 1 worker, got {num_workers}")
    owner = np.minimum(
        np.arange(num_vertices, dtype=np.int64)
        * num_workers
        // max(num_vertices, 1),
        num_workers - 1,
    )
    return Partition(owner, num_workers)
