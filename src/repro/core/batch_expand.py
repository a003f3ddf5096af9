"""Batched Gpsi expansion: Algorithm 1 over packed columns.

The object hot path (:func:`repro.core.expansion.expand_gpsi`) runs once
per delivered Gpsi: it constructs Python objects, walks the pattern
neighbours in a Python loop, and materialises the candidate cross product
with ``itertools.product``.  Under the columnar wire plane the messages
already arrive as a :class:`~repro.core.psi.GpsiColumns` slice per data
vertex, so this module expands the *whole slice at once* without ever
constructing a :class:`~repro.core.psi.Gpsi`:

1. rows are grouped by their ``(black, mapped_mask, next_vertex)``
   colouring signature with one ``np.unique`` pass — every row in a group
   shares the expanding vertex, the GRAY/WHITE classification of its
   pattern neighbours, the completeness of its children and their
   ``useful_grays``;
2. per group, GRAY verification is one vectorised ``searchsorted``
   membership test against ``N(vd)`` and WHITE candidate generation is
   one masked matrix over ``rows x N(vd)`` (degree/rank/injectivity rules
   against the shared ``degrees``/``ranks`` arrays, GRAY-image prefilter
   through the index's pairwise batch probe);
3. candidate cross products materialise as vectorised repeat/tile over
   the mapping matrix, and :func:`~repro.core.candidates.combination_consistent`
   runs as a batch mask with the same short-circuit probe compression as
   the scalar loop;
4. children are merged back into the parents' delivery order, so every
   downstream consumer — distribution strategies, RNG streams, outbox row
   order, the cost ledger — observes exactly the sequence the object path
   would have produced.

Parity with the scalar reference is *bit-identical* for instance sets,
counts, per-group costs (with the default integer-valued
:class:`~repro.core.cost.CostParameters`), edge-index probe statistics
and ledger totals; ``tests/test_batch_expand.py`` pins all of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..graph.ordered import OrderedGraph
from ..pattern.pattern import PatternGraph
from . import kernels
from .cost import CostParameters, DEFAULT_COSTS
from .edge_index import EdgeIndexBase
from .psi import GpsiColumns, PACKED_UNSET_NEXT, UNMAPPED, _black_words


@dataclass
class PendingChildren:
    """Incomplete children of one batch expansion, still in columns.

    ``grays``/``white_counts`` are per-child tuples shared across each
    signature group (the same tuple object, not copies): ``grays[i]`` are
    the useful GRAY vertices of child ``i`` and ``white_counts[i][j]`` the
    number of WHITE pattern neighbours of ``grays[i][j]`` — everything a
    distribution strategy's ``choose_many`` needs.
    """

    mapping: np.ndarray
    black: np.ndarray
    grays: List[Tuple[int, ...]]
    white_counts: List[Tuple[int, ...]]

    @property
    def n(self) -> int:
        return self.mapping.shape[0]

    def __len__(self) -> int:
        return self.n


@dataclass
class BatchOutcome:
    """What expanding one delivered column slice produced.

    ``complete`` rows and ``pending`` children are both in the object
    path's order: parents in delivery order, combinations in
    ``itertools.product`` order within each parent.  ``generated_by_vp``
    is the per-expanding-vertex Gpsi tally (the Table 2 statistic).
    """

    complete: Optional[np.ndarray] = None
    pending: Optional[PendingChildren] = None
    cost: float = 0.0
    generated: int = 0
    generated_by_vp: Dict[int, int] = field(default_factory=dict)


def _combine_black_words(words: np.ndarray) -> int:
    """One row of uint32 mask words -> the Python int bitmask."""
    return sum(int(w) << (32 * i) for i, w in enumerate(words))


def _black_to_words(black: int, words: int) -> np.ndarray:
    return np.array(
        [(black >> (32 * w)) & 0xFFFFFFFF for w in range(words)],
        dtype=np.uint32,
    )


def _sorted_membership(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Vectorised ``needle in haystack`` for a sorted haystack — the
    batched form of ``Graph.has_edge(vd, image)`` against ``N(vd)``."""
    m = len(haystack)
    if m == 0:
        return np.zeros(len(needles), dtype=bool)
    pos = np.searchsorted(haystack, needles)
    return (pos < m) & (haystack[np.minimum(pos, m - 1)] == needles)


def _uncovered_black(black: int, pattern: PatternGraph) -> bool:
    """Whether any pattern edge still lacks a BLACK endpoint."""
    for a, b in pattern.edges():
        if not (black >> a & 1) and not (black >> b & 1):
            return True
    return False


def expand_columns(
    columns: GpsiColumns,
    data_vertex: int,
    pattern: PatternGraph,
    ordered: OrderedGraph,
    edge_index: EdgeIndexBase,
    costs: CostParameters = DEFAULT_COSTS,
    kernel: str = "numpy",
) -> BatchOutcome:
    """Run Algorithm 1 on every row of ``columns`` at ``data_vertex``.

    Equivalent to calling :func:`~repro.core.expansion.expand_gpsi` on
    each row in order and concatenating the outcomes — same instances,
    same children in the same order, same cost, same probe statistics —
    but grouped by colouring signature so the per-row Python work
    collapses to a handful of numpy passes per group.

    ``kernel`` selects the per-group inner-loop implementation (see
    :mod:`repro.core.kernels`): ``"numpy"`` is the reference, ``"native"``
    runs the fused jitted GRAY-membership + WHITE-candidate kernels when
    a native runtime is available (falling back to numpy otherwise), and
    ``"auto"`` picks native exactly when numba is installed.  Outcomes
    are bit-identical across kernels.
    """
    use_native = kernels.resolve_kernel(kernel) == "native"
    # Indexes the kernel cannot probe natively keep the numpy candidate
    # path (probe parity requires the kernel to answer probes itself).
    probe_pack = kernels.probe_pack_for(edge_index) if use_native else None
    outcome = BatchOutcome()
    n, k = columns.n, columns.k
    if n == 0:
        return outcome
    graph = ordered.graph
    neigh_vd = graph.neighbors(data_vertex)
    deg_vd = len(neigh_vd)
    mapping = columns.mapping
    next_col = columns.next_vertex
    if bool(np.any(next_col == PACKED_UNSET_NEXT)):
        raise ValueError("cannot batch-expand a Gpsi with no next vertex")

    # Group rows by colouring signature.  The mapped mask is included
    # explicitly (rather than derived from black) so the grouping is safe
    # for any valid column content, not just states reachable from
    # Gpsi.initial.
    mapped_bits = (mapping != UNMAPPED).astype(np.uint64)
    mask_key = (mapped_bits << np.arange(k, dtype=np.uint64)).sum(
        axis=1, dtype=np.uint64
    )
    if n == 1:
        first_idx = np.zeros(1, dtype=np.int64)
        inverse = np.zeros(1, dtype=np.int64)
    elif columns.black.shape[1] == 1 and k <= 24:
        # One mask word and a short mapping (every paper pattern): the
        # whole signature packs into one uint64 — 1-D np.unique is far
        # cheaper than the axis=0 structured sort.
        key = (
            (columns.black[:, 0].astype(np.uint64) << np.uint64(32))
            | (mask_key << np.uint64(8))
            | next_col.astype(np.uint64)
        )
        _, first_idx, inverse = np.unique(
            key, return_index=True, return_inverse=True
        )
    else:
        sig = np.column_stack(
            [
                columns.black.astype(np.int64),
                mask_key.astype(np.int64),
                next_col.astype(np.int64),
            ]
        )
        _, first_idx, inverse = np.unique(
            sig, axis=0, return_index=True, return_inverse=True
        )
        inverse = inverse.ravel()

    # Per-chunk accumulators; ``order`` keys restore delivery order.
    complete_chunks: List[np.ndarray] = []
    complete_order: List[np.ndarray] = []
    pending_chunks: List[np.ndarray] = []
    pending_black: List[np.ndarray] = []
    pending_order: List[np.ndarray] = []
    pending_meta: List[Tuple[int, Tuple[int, ...], Tuple[int, ...]]] = []

    words = columns.black.shape[1]
    ranks = ordered.ranks
    degrees = graph.degrees

    for g in range(len(first_idx)):
        rows = np.flatnonzero(inverse == g)
        template = int(first_idx[g])
        vp = int(next_col[template])
        black = _combine_black_words(columns.black[template])
        group_mask = int(mask_key[template])
        new_black = black | (1 << vp)
        sub_map = mapping[rows]
        m = len(rows)

        # Walk vp's pattern neighbours in sorted order with a live-row
        # mask; dead rows stop being charged exactly where the scalar
        # loop returns.
        alive = np.ones(m, dtype=bool)
        white_masks: List[Tuple[int, np.ndarray]] = []
        for np_ in pattern.neighbors(vp):
            n_alive = int(np.count_nonzero(alive))
            if n_alive == 0:
                break
            if black >> np_ & 1:
                continue
            if group_mask >> np_ & 1:
                # GRAY: exact adjacency verification against N(vd).
                outcome.cost += costs.gray_check * n_alive
                live = np.flatnonzero(alive)
                if use_native:
                    ok = kernels.membership_sorted(neigh_vd, sub_map[live, np_])
                else:
                    ok = _sorted_membership(neigh_vd, sub_map[live, np_])
                alive[live[~ok]] = False
            else:
                # WHITE: candidate matrix over rows x N(vd).
                outcome.cost += costs.scan * deg_vd * n_alive
                if probe_pack is not None:
                    cand_mask = _candidate_matrix_native(
                        sub_map, alive, np_, vp, black, group_mask,
                        neigh_vd, pattern, ranks, degrees,
                        graph.num_vertices, edge_index, probe_pack,
                    )
                else:
                    cand_mask = _candidate_matrix(
                        sub_map, alive, np_, vp, black, group_mask,
                        neigh_vd, pattern, ranks, degrees,
                        graph.num_vertices, edge_index,
                    )
                alive &= cand_mask.any(axis=1)
                white_masks.append((np_, cand_mask))

        live = np.flatnonzero(alive)
        if len(live) == 0:
            continue

        if not white_masks:
            # Verification-only expansion: colours change, mapping stays.
            child_map = sub_map[live].copy()
            child_order = rows[live]
            n_children = len(live)
            consistent = None
            child_mask = group_mask
        else:
            child_map, child_order, n_attempted = _cross_product(
                sub_map, rows, live, white_masks, neigh_vd
            )
            outcome.cost += costs.ce * n_attempted
            white_vps = [wp for wp, _ in white_masks]
            if len(white_vps) > 1:
                consistent = _consistent_mask(
                    child_map, white_vps, pattern, ranks, edge_index
                )
                child_map = child_map[consistent]
                child_order = child_order[consistent]
            n_children = child_map.shape[0]
            if n_children == 0:
                continue
            child_mask = group_mask
            for wp in white_vps:
                child_mask |= 1 << wp

        outcome.generated += n_children
        outcome.generated_by_vp[vp] = (
            outcome.generated_by_vp.get(vp, 0) + n_children
        )
        full = (1 << k) - 1
        is_complete = child_mask == full and not _uncovered_black(
            new_black, pattern
        )
        if is_complete:
            complete_chunks.append(child_map)
            complete_order.append(child_order)
        else:
            pending_chunks.append(child_map)
            pending_black.append(
                np.broadcast_to(
                    _black_to_words(new_black, words), (n_children, words)
                )
            )
            pending_order.append(child_order)
            grays = pattern.useful_grays_for(new_black, child_mask)
            white_counts = tuple(
                sum(
                    1
                    for w in pattern.neighbors(gvp)
                    if not (child_mask >> w & 1)
                )
                for gvp in grays
            )
            pending_meta.append((n_children, grays, white_counts))

    if complete_chunks:
        order = np.concatenate(complete_order)
        perm = np.argsort(order, kind="stable")
        outcome.complete = np.concatenate(complete_chunks, axis=0)[perm]
    if pending_chunks:
        order = np.concatenate(pending_order)
        perm = np.argsort(order, kind="stable")
        grays_flat: List[Tuple[int, ...]] = []
        whites_flat: List[Tuple[int, ...]] = []
        for count, grays, white_counts in pending_meta:
            grays_flat.extend([grays] * count)
            whites_flat.extend([white_counts] * count)
        outcome.pending = PendingChildren(
            mapping=np.concatenate(pending_chunks, axis=0)[perm],
            black=np.concatenate(pending_black, axis=0)[perm],
            grays=[grays_flat[i] for i in perm],
            white_counts=[whites_flat[i] for i in perm],
        )
    return outcome


def _candidate_matrix(
    sub_map: np.ndarray,
    alive: np.ndarray,
    white_vp: int,
    expanding_vp: int,
    black: int,
    group_mask: int,
    neigh_vd: np.ndarray,
    pattern: PatternGraph,
    ranks: np.ndarray,
    degrees: np.ndarray,
    num_vertices: int,
    edge_index: EdgeIndexBase,
) -> np.ndarray:
    """Admissible-candidate mask (rows x N(vd)) for one WHITE neighbour.

    Vectorises Algorithm 5 for every live row at once: the degree rule is
    one group-constant vector, rank bounds and injectivity are per-row
    gathers over the shared arrays, and the GRAY-image prefilter issues
    exactly the probes the scalar short-circuit loop would — candidate
    ``c`` of row ``r`` is probed against image ``j`` iff it survived
    images ``0..j-1`` (dead rows are never probed at all).
    """
    m, deg_vd = sub_map.shape[0], len(neigh_vd)
    mask = np.zeros((m, deg_vd), dtype=bool)
    live = np.flatnonzero(alive)

    # Rule 1b: exclusive rank bounds from order-constrained mapped vertices.
    lower = np.full(len(live), -1, dtype=np.int64)
    upper = np.full(len(live), num_vertices, dtype=np.int64)
    for below in pattern.must_rank_below(white_vp):
        if group_mask >> below & 1:
            np.maximum(lower, ranks[sub_map[live, below]], out=lower)
    for above in pattern.must_rank_above(white_vp):
        if group_mask >> above & 1:
            np.minimum(upper, ranks[sub_map[live, above]], out=upper)
    feasible = lower < upper
    if not bool(feasible.any()):
        return mask

    # Rules 1a + 1b + injectivity as one mask over the live rows.
    live_mask = np.broadcast_to(
        degrees[neigh_vd] >= pattern.degree(white_vp), (len(live), deg_vd)
    ).copy()
    live_mask &= feasible[:, None]
    neigh_ranks = ranks[neigh_vd]
    live_mask &= neigh_ranks[None, :] > lower[:, None]
    live_mask &= neigh_ranks[None, :] < upper[:, None]
    k = sub_map.shape[1]
    for col in range(k):
        if group_mask >> col & 1:
            live_mask &= neigh_vd[None, :] != sub_map[live, col][:, None]

    # Rule 2: GRAY-image prefilter, one image at a time in pattern-
    # neighbour order, compressing between images (probe-count parity
    # with the scalar loop).
    for np_ in pattern.neighbors(white_vp):
        if np_ == expanding_vp:
            continue
        if not (group_mask >> np_ & 1) or (black >> np_ & 1):
            continue  # only GRAY (mapped, unexpanded) images prefilter
        r_idx, c_idx = np.nonzero(live_mask)
        if len(r_idx) == 0:
            break
        res = edge_index.might_contain_pairs(
            neigh_vd[c_idx], sub_map[live, np_][r_idx]
        )
        live_mask[r_idx[~res], c_idx[~res]] = False

    mask[live] = live_mask
    return mask


def _candidate_matrix_native(
    sub_map: np.ndarray,
    alive: np.ndarray,
    white_vp: int,
    expanding_vp: int,
    black: int,
    group_mask: int,
    neigh_vd: np.ndarray,
    pattern: PatternGraph,
    ranks: np.ndarray,
    degrees: np.ndarray,
    num_vertices: int,
    edge_index: EdgeIndexBase,
    probe_pack: "kernels.ProbePack",
) -> np.ndarray:
    """Native twin of :func:`_candidate_matrix`.

    The group-constant classification (rank-bound sources, injectivity
    columns, GRAY prefilter images, degree rule) is computed here with
    the same numpy gathers; the per-(row, candidate) decision loop —
    including the edge probes, which the kernel answers straight from
    the index's packed data — runs fused in
    :func:`repro.core.kernels.white_candidates`.  The probe counts the
    kernel reports are credited to ``edge_index`` so the statistics stay
    probe-for-probe identical to the numpy path.
    """
    m, deg_vd = sub_map.shape[0], len(neigh_vd)
    mask = np.zeros((m, deg_vd), dtype=bool)
    live = np.flatnonzero(alive)

    lower = np.full(len(live), -1, dtype=np.int64)
    upper = np.full(len(live), num_vertices, dtype=np.int64)
    for below in pattern.must_rank_below(white_vp):
        if group_mask >> below & 1:
            np.maximum(lower, ranks[sub_map[live, below]], out=lower)
    for above in pattern.must_rank_above(white_vp):
        if group_mask >> above & 1:
            np.minimum(upper, ranks[sub_map[live, above]], out=upper)
    if not bool((lower < upper).any()):
        return mask

    k = sub_map.shape[1]
    mapped_cols = np.array(
        [col for col in range(k) if group_mask >> col & 1], dtype=np.int64
    )
    gray_cols = np.array(
        [
            np_
            for np_ in pattern.neighbors(white_vp)
            if np_ != expanding_vp
            and (group_mask >> np_ & 1)
            and not (black >> np_ & 1)
        ],
        dtype=np.int64,
    )
    deg_ok = np.ascontiguousarray(
        degrees[neigh_vd] >= pattern.degree(white_vp), dtype=np.bool_
    )
    neigh_ranks = np.ascontiguousarray(ranks[neigh_vd], dtype=np.int64)
    live_mask, queries, positives = kernels.white_candidates(
        sub_map[live],
        mapped_cols,
        gray_cols,
        lower,
        upper,
        neigh_vd,
        neigh_ranks,
        deg_ok,
        probe_pack,
    )
    edge_index.queries += queries
    edge_index.positives += positives
    mask[live] = live_mask
    return mask


def _cross_product(
    sub_map: np.ndarray,
    rows: np.ndarray,
    live: np.ndarray,
    white_masks: List[Tuple[int, np.ndarray]],
    neigh_vd: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Materialise every candidate combination for the live rows.

    Returns ``(child_mapping, parent_order_keys, combos_attempted)`` with
    children in ``itertools.product`` order within each parent and
    parents in delivery order.  The single-WHITE case (the overwhelmingly
    common one) is a pure ``np.nonzero`` scatter; the multi-WHITE case
    falls back to a per-row mixed-radix repeat/tile.
    """
    if len(white_masks) == 1:
        wp, cand_mask = white_masks[0]
        live_rows = cand_mask[live]
        r_idx, c_idx = np.nonzero(live_rows)
        child_map = sub_map[live][r_idx].copy()
        child_map[:, wp] = neigh_vd[c_idx]
        return child_map, rows[live][r_idx], len(r_idx)

    chunks: List[np.ndarray] = []
    orders: List[np.ndarray] = []
    total = 0
    for i in live.tolist():
        lists = [neigh_vd[cand_mask[i]] for _, cand_mask in white_masks]
        sizes = [len(lst) for lst in lists]
        n_combos = 1
        for s in sizes:
            n_combos *= s
        total += n_combos
        idx = np.arange(n_combos)
        child = np.repeat(sub_map[i][None, :], n_combos, axis=0)
        stride = n_combos
        for (wp, _), s, lst in zip(white_masks, sizes, lists):
            stride //= s
            child[:, wp] = lst[(idx // stride) % s]
        chunks.append(child)
        orders.append(np.full(n_combos, rows[i], dtype=np.int64))
    return (
        np.concatenate(chunks, axis=0),
        np.concatenate(orders),
        total,
    )


def _consistent_mask(
    child_map: np.ndarray,
    white_vps: List[int],
    pattern: PatternGraph,
    ranks: np.ndarray,
    edge_index: EdgeIndexBase,
) -> np.ndarray:
    """Batched :func:`~repro.core.candidates.combination_consistent`.

    Walks the ``(i, j)`` pairs in the scalar loop's order with a running
    survivor mask, so index probes fire for exactly the combinations the
    scalar short circuit would probe: a combination failing pair ``(0,1)``
    is never probed for pair ``(0,2)``, and within a pair the cheap
    distinctness/order checks gate the probe.
    """
    n = child_map.shape[0]
    ok = np.ones(n, dtype=bool)
    kw = len(white_vps)
    order = pattern.partial_order
    for i in range(kw):
        for j in range(i + 1, kw):
            pa, pb = white_vps[i], white_vps[j]
            a = child_map[:, pa]
            b = child_map[:, pb]
            pair_ok = a != b
            if (pa, pb) in order:
                pair_ok &= ranks[a] < ranks[b]
            if (pb, pa) in order:
                pair_ok &= ranks[b] < ranks[a]
            if pattern.has_edge(pa, pb):
                probe = ok & pair_ok
                idx = np.flatnonzero(probe)
                if len(idx):
                    res = edge_index.might_contain_pairs(a[idx], b[idx])
                    pair_ok[idx] = res
                ok &= pair_ok
            else:
                ok &= pair_ok
            if not bool(ok.any()):
                return ok
    return ok
