"""``np.unique`` by stable sort and adjacent difference.

``np.unique`` pays a generic dispatch per call and, in its plain form,
lazily imports ``numpy.ma`` (~20 ms on the first call of a cold
``psgl count``).  Every grouping on the count path goes through this one
helper instead; results are those of
``np.unique(keys, return_index=True, return_inverse=True)``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def sorted_unique(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(uniq, first_idx, inverse)`` of ``keys``.

    ``uniq`` is ascending, ``first_idx[g]`` the first row holding
    ``uniq[g]`` (the sort is stable) and ``uniq[inverse]`` rebuilds
    ``keys``.  A 2-D ``keys`` groups whole rows, ordered
    lexicographically (``np.unique(..., axis=0)``).
    """
    if keys.ndim == 2:
        order = np.lexsort(keys.T[::-1])
    else:
        order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    fresh = np.ones(len(keys), dtype=bool)
    if keys.ndim == 2:
        fresh[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    else:
        np.not_equal(ranked[1:], ranked[:-1], out=fresh[1:])
    starts = np.flatnonzero(fresh)
    uniq = ranked[starts]
    del ranked
    # The barrier groups every row it delivers here: one n-length
    # temporary at a time beside ``order`` and ``inverse``.
    group = np.cumsum(fresh)
    group -= 1
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = group
    return uniq, order[starts], inverse
