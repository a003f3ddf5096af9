"""Optional native (numba-jitted) kernels for the expansion hot path.

After the columnar wire plane and the batch-expansion kernel, the
remaining per-superstep Python cost sits in two loops: the per-signature-
group work inside :func:`repro.core.batch_expand.expand_columns` (GRAY
verification by CSR segment search, the flat WHITE candidate list with
its GRAY-image prefilter) and the splitmix64 double-hash probe loop behind
the bloom edge index.  This module provides *fused* single-pass implementations of
both, compiled with numba when it is installed.

Numba is **not** a dependency.  The module degrades in three tiers:

* numba present → the kernels are ``@njit(cache=True, nogil=True)``
  compiled (``nogil`` lets the thread backend and the work-stealing
  scheduler overlap expansion for real);
* numba absent → ``kernel="auto"`` resolves to the numpy reference path,
  and ``kernel="native"`` falls back to numpy too (recorded in
  :func:`kernel_info`, never an error);
* numba absent but :data:`ALLOW_INTERPRETED` set (env var
  ``PSGL_KERNEL_INTERPRETED=1``) → ``kernel="native"`` runs these same
  kernel bodies as plain Python.  This is a *test hook*: it is orders of
  magnitude slower than numpy, but it executes the exact code numba would
  compile, so the parity suite can pin the native path's bit-identical
  behaviour on machines without numba.

Parity contract
---------------
Every kernel replays the numpy reference *decision-for-decision*: the
bloom probe evaluates the same ``(h1 + i*h2) mod m`` positions as
:meth:`BloomFilter._probes <repro.core.bloom.BloomFilter._probes>`, and
the fused candidate kernel probes candidate ``c`` of row ``r`` against
GRAY image ``j`` iff it survived images ``0..j-1`` — exactly the
short-circuit compression of
:func:`~repro.core.batch_expand._white_candidates` — so edge-index
``queries``/``positives`` statistics, instance sets and ledgers are
bit-identical across kernels (``tests/test_kernels.py`` pins this).
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..bsp.config import KERNEL_CHOICES

__all__ = [
    "HAVE_NUMBA",
    "NUMBA_VERSION",
    "ALLOW_INTERPRETED",
    "KERNEL_CHOICES",
    "resolve_kernel",
    "kernel_info",
    "native_ready",
    "bloom_contains_many",
    "sorted_contains_many",
    "membership_sorted",
    "white_candidates",
    "probe_pack_for",
    "ProbePack",
]

try:  # pragma: no cover - exercised only on the CI numba leg
    import numba

    HAVE_NUMBA = True
    NUMBA_VERSION: Optional[str] = numba.__version__
except ImportError:  # the container's default: plain numpy
    numba = None
    HAVE_NUMBA = False
    NUMBA_VERSION = None

#: Test hook: allow ``kernel="native"`` to run the kernel bodies as plain
#: (uncompiled) Python when numba is missing.  Far slower than numpy —
#: only the parity tests should enable it.
ALLOW_INTERPRETED = os.environ.get("PSGL_KERNEL_INTERPRETED", "") not in ("", "0")

def _jit(func):
    if HAVE_NUMBA:  # pragma: no cover - CI numba leg
        return numba.njit(cache=True, nogil=True)(func)
    return func


def native_ready() -> bool:
    """Whether ``kernel="native"`` can actually execute native kernels
    (compiled, or interpreted via the test hook)."""
    return HAVE_NUMBA or ALLOW_INTERPRETED


def resolve_kernel(kernel: str) -> str:
    """Map a requested kernel to the effective one.

    ``auto`` picks ``native`` exactly when numba is installed (the
    interpreted hook is never auto-selected — it is slower than numpy);
    ``native`` without any native runtime falls back to ``numpy``
    gracefully rather than erroring, per the no-hard-dependency contract.
    Unknown values raise ``ValueError`` — callers wrap this into their
    layer's error type.
    """
    if kernel not in KERNEL_CHOICES:
        raise ValueError(
            f"unknown kernel {kernel!r}; choices: {KERNEL_CHOICES}"
        )
    if kernel == "auto":
        return "native" if HAVE_NUMBA else "numpy"
    if kernel == "native" and not native_ready():
        return "numpy"
    return kernel


def kernel_info(requested: str = "auto") -> Dict[str, Any]:
    """Resolved-kernel metadata for traces, ``/metrics`` and benchmarks."""
    effective = resolve_kernel(requested)
    if effective == "native":
        runtime = "jit" if HAVE_NUMBA else "interpreted"
    else:
        runtime = "numpy"
    return {
        "requested": requested,
        "effective": effective,
        "runtime": runtime,
        "numba": HAVE_NUMBA,
        "numba_version": NUMBA_VERSION,
    }


# ----------------------------------------------------------------------
# Kernel bodies.  Written in the numba nopython subset; without numba the
# same bodies run as plain Python over numpy scalars (the interpreted
# test hook), so wrappers below suppress the uint64-wraparound warnings
# numpy emits for scalar overflow (the wraparound itself is the point —
# it is what the masked Python-int reference computes).
# ----------------------------------------------------------------------

@_jit
def _splitmix64(x):
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


@_jit
def _bloom_contains(bits, seed, num_bits, num_hashes, key):
    # Same double-hash walk as BloomFilter._probes: pos starts at h1 % m
    # and strides by h2 (reduced mod m up front so uint64 never wraps).
    h1 = _splitmix64(key ^ seed)
    h2 = _splitmix64(h1) | np.uint64(1)
    m = np.uint64(num_bits)
    pos = h1 % m
    stride = h2 % m
    for _ in range(num_hashes):
        word = bits[pos >> np.uint64(6)]
        if (word >> (pos & np.uint64(63))) & np.uint64(1) == np.uint64(0):
            return False
        pos = (pos + stride) % m
    return True


@_jit
def _bloom_contains_many(bits, seed, num_bits, num_hashes, keys, out):
    for i in range(keys.shape[0]):
        out[i] = _bloom_contains(bits, seed, num_bits, num_hashes, keys[i])


@_jit
def _sorted_contains(haystack, needle):
    lo = 0
    hi = haystack.shape[0]
    while lo < hi:
        mid = (lo + hi) // 2
        if haystack[mid] < needle:
            lo = mid + 1
        else:
            hi = mid
    return lo < haystack.shape[0] and haystack[lo] == needle


@_jit
def _sorted_contains_many(haystack, needles, out):
    for i in range(needles.shape[0]):
        out[i] = _sorted_contains(haystack, needles[i])


@_jit
def _segment_contains_many(indptr, indices, vd, needles, out):
    for i in range(needles.shape[0]):
        out[i] = _sorted_contains(
            indices[indptr[vd[i]]:indptr[vd[i] + 1]], needles[i]
        )


@_jit
def _white_candidates_kernel(
    sub_map,      # int64 (live, k): mappings of the live rows
    vd,           # int64 (live,): each row's expanding data vertex
    mapped_cols,  # int64 (c,): mapped pattern vertices (injectivity rule)
    gray_cols,    # int64 (g,): GRAY image columns, pattern-neighbour order
    lower,        # int64 (live,): exclusive rank lower bounds
    upper,        # int64 (live,): exclusive rank upper bounds
    indptr,       # int64 (n + 1,): CSR slice boundaries
    indices,      # int64 (2m,): CSR neighbour lists; N(vd) is the pool
    ranks,        # int64 (n,): degree-order rank per data vertex
    degrees,      # int64 (n,): degree per data vertex
    min_degree,   # degree rule: deg(candidate) >= deg(white pattern vertex)
    index_kind,   # 0 = null, 1 = bloom, 2 = exact
    bits,         # uint64 bloom words (empty unless kind 1)
    seed,         # uint64 bloom seed
    num_bits,     # bloom m
    num_hashes,   # bloom k
    sorted_keys,  # uint64 sorted edge keys (empty unless kind 2)
    n_vertices,   # edge-key base |V|
    out_row,      # int64 (sum deg(vd),): row of each survivor, compacted
    out_cand,     # int64 (sum deg(vd),): the survivor itself
    out_stats,    # int64 (3,): probes issued / answered positive / survivors
):
    n64 = np.uint64(n_vertices)
    queries = 0
    positives = 0
    kept = 0
    for r in range(sub_map.shape[0]):
        lo = lower[r]
        up = upper[r]
        if lo >= up:
            continue
        for p in range(indptr[vd[r]], indptr[vd[r] + 1]):
            cand = indices[p]
            if degrees[cand] < min_degree:
                continue
            rank = ranks[cand]
            if rank <= lo or rank >= up:
                continue
            ok = True
            for j in range(mapped_cols.shape[0]):
                if sub_map[r, mapped_cols[j]] == cand:
                    ok = False
                    break
            if not ok:
                continue
            for j in range(gray_cols.shape[0]):
                image = sub_map[r, gray_cols[j]]
                if image < cand:
                    key = np.uint64(image) * n64 + np.uint64(cand)
                else:
                    key = np.uint64(cand) * n64 + np.uint64(image)
                queries += 1
                if index_kind == 1:
                    hit = _bloom_contains(bits, seed, num_bits, num_hashes, key)
                elif index_kind == 2:
                    hit = _sorted_contains(sorted_keys, key)
                else:
                    hit = True
                if hit:
                    positives += 1
                else:
                    ok = False
                    break
            if ok:
                out_row[kept] = r
                out_cand[kept] = cand
                kept += 1
    out_stats[0] = queries
    out_stats[1] = positives
    out_stats[2] = kept


# ----------------------------------------------------------------------
# Public wrappers (allocate outputs, normalise dtypes, silence the
# interpreted-mode scalar-overflow warnings).
# ----------------------------------------------------------------------

_EMPTY_U64 = np.zeros(0, dtype=np.uint64)


class ProbePack(tuple):
    """``(kind, bits, seed, num_bits, num_hashes, sorted_keys, n)`` —
    everything the fused kernel needs to answer an edge probe itself."""

    __slots__ = ()


def probe_pack_for(edge_index) -> Optional[ProbePack]:
    """Extract the probe data of a known edge-index type.

    Returns ``None`` for index implementations the kernel cannot probe
    natively — the caller then keeps the numpy path for that index, so
    custom/third-party indexes keep working under ``kernel="native"``.
    """
    from .edge_index import BloomEdgeIndex, ExactEdgeIndex, NullEdgeIndex

    if type(edge_index) is BloomEdgeIndex:
        bloom = edge_index._bloom
        return ProbePack((
            1,
            bloom._bits,
            np.uint64(bloom._seed & ((1 << 64) - 1)),
            bloom.num_bits,
            bloom.num_hashes,
            _EMPTY_U64,
            edge_index._n,
        ))
    if type(edge_index) is ExactEdgeIndex:
        return ProbePack((2, _EMPTY_U64, np.uint64(0), 1, 0, edge_index._keys, edge_index._n))
    if type(edge_index) is NullEdgeIndex:
        return ProbePack((0, _EMPTY_U64, np.uint64(0), 1, 0, _EMPTY_U64, 1))
    return None


def bloom_contains_many(bloom, keys: np.ndarray) -> np.ndarray:
    """Jitted twin of :meth:`BloomFilter.might_contain_many` — same
    positions, same answers, one fused loop instead of the (keys x
    hashes) position matrix."""
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    out = np.zeros(len(keys), dtype=np.bool_)
    if len(keys):
        with np.errstate(over="ignore"):
            _bloom_contains_many(
                bloom._bits,
                np.uint64(bloom._seed & ((1 << 64) - 1)),
                bloom.num_bits,
                bloom.num_hashes,
                keys,
                out,
            )
    return out


def sorted_contains_many(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Jitted twin of :meth:`ExactEdgeIndex._lookup_many`."""
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    out = np.zeros(len(keys), dtype=np.bool_)
    if len(keys):
        _sorted_contains_many(sorted_keys, keys, out)
    return out


def membership_sorted(
    indptr: np.ndarray, indices: np.ndarray, vd: np.ndarray, needles: np.ndarray
) -> np.ndarray:
    """Jitted twin of :meth:`Graph.has_edges <repro.graph.graph.Graph.has_edges>`
    as GRAY verification uses it: ``needles[i] in N(vd[i])``."""
    out = np.zeros(len(needles), dtype=np.bool_)
    if len(needles):
        _segment_contains_many(
            np.asarray(indptr),
            np.asarray(indices),
            np.ascontiguousarray(vd, dtype=np.int64),
            np.ascontiguousarray(needles, dtype=np.int64),
            out,
        )
    return out


def white_candidates(
    sub_map_live: np.ndarray,
    vd: np.ndarray,
    mapped_cols: np.ndarray,
    gray_cols: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    graph,
    ranks: np.ndarray,
    min_degree: int,
    pack: ProbePack,
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Fused WHITE candidate list over the live rows of a block.

    Returns ``(row_of, cand, queries, positives)``: the survivors of
    :func:`~repro.core.batch_expand._white_candidates` in the same order
    (rows ascending, ``N(vd)`` order within a row) and the probes that
    path would have charged to the edge index (the caller credits them
    to the index's counters).
    """
    kind, bits, seed, num_bits, num_hashes, sorted_keys, n_vertices = pack
    vd = np.ascontiguousarray(vd, dtype=np.int64)
    room = int(graph.degrees[vd].sum())
    row_of = np.empty(room, dtype=np.int64)
    cand = np.empty(room, dtype=np.int64)
    stats = np.zeros(3, dtype=np.int64)
    if room:
        with np.errstate(over="ignore"):
            _white_candidates_kernel(
                np.ascontiguousarray(sub_map_live, dtype=np.int64),
                vd,
                mapped_cols,
                gray_cols,
                lower,
                upper,
                np.asarray(graph.indptr),
                np.asarray(graph.indices),
                np.asarray(ranks),
                np.asarray(graph.degrees),
                min_degree,
                kind,
                bits,
                seed,
                num_bits,
                num_hashes,
                sorted_keys,
                n_vertices,
                row_of,
                cand,
                stats,
            )
    kept = int(stats[2])
    return row_of[:kept], cand[:kept], int(stats[0]), int(stats[1])
