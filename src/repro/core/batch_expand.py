"""Batched Gpsi expansion: Algorithm 1 over packed columns.

The reference expansion (:func:`repro.core.expansion.expand_gpsi`) runs
once per Gpsi: it constructs Python objects, walks the pattern
neighbours in a Python loop, and materialises the candidate cross product
with ``itertools.product``.  On the engine's message plane the messages
already arrive as packed :class:`~repro.core.psi.GpsiColumns`, so this
module expands a *whole delivered block at once* — rows addressed to any
data vertices; row ``i`` expands at ``mapping[i, next_vertex[i]]`` —
without ever constructing a :class:`~repro.core.psi.Gpsi`:

1. rows are grouped by their ``(black, mapped_mask, next_vertex)``
   colouring signature with one sort pass — every row in a group shares
   the expanding pattern vertex, the GRAY/WHITE classification of its
   pattern neighbours, the completeness of its children and their
   ``useful_grays``; nothing in Algorithm 1 needs them to share a data
   vertex;
2. per group, GRAY verification is one ``searchsorted`` over the graph's
   sorted edge-key column (:meth:`Graph.has_edges
   <repro.graph.graph.Graph.has_edges>`) and WHITE candidate generation
   one flat ragged gather of every row's ``N(vd)`` with a ``row_of``
   index (degree/rank/injectivity rules against the shared
   ``degrees``/``ranks`` arrays, GRAY-image prefilter through one pairwise
   batch probe per image);
3. candidate cross products materialise by segment arithmetic over the
   flat candidate lists, and :func:`~repro.core.candidates.combination_consistent`
   runs as a batch mask with the same short-circuit probe compression as
   the scalar loop;
4. children are merged back into the parents' delivery order, so every
   downstream consumer — distribution strategies, RNG streams, outbox row
   order, the cost ledger — observes exactly the sequence the object path
   would have produced.  Under an exact edge index a fully mapped child is
   complete at once (see :attr:`EdgeIndexBase.exact
   <repro.core.edge_index.EdgeIndexBase.exact>`); complete rows are only
   counted unless a consumer reads them.

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
from ..unique import sorted_unique
from .edge_index import EdgeIndexBase
from .psi import GpsiColumns, PACKED_UNSET_NEXT, UNMAPPED


@dataclass
class PendingChildren:
    """Incomplete children of one batch expansion, still in columns.

    ``groups`` is the group table — one ``(grays, white_counts)`` pair per
    signature group that produced children, a handful per block — and
    ``group_of[i]`` child ``i``'s row in it: ``grays`` are the child's
    useful GRAY vertices and ``white_counts[j]`` the number of WHITE
    pattern neighbours of ``grays[j]`` — everything a distribution
    strategy's ``choose_many`` needs.
    """

    mapping: np.ndarray
    black: np.ndarray
    group_of: np.ndarray
    groups: List[Tuple[Tuple[int, ...], Tuple[int, ...]]]

    @property
    def n(self) -> int:
        return self.mapping.shape[0]

    def __len__(self) -> int:
        return self.n


@dataclass
class BatchOutcome:
    """What expanding one delivered block of rows produced.

    ``complete`` rows and ``pending`` children are both in the object
    path's order: parents in delivery order, combinations in
    ``itertools.product`` order within each parent.  ``generated_by_vp``
    is the per-expanding-vertex Gpsi tally (the Table 2 statistic).

    ``n_complete`` counts the complete rows; the ordered ``complete``
    array is only assembled from its per-group chunks when read, so a
    run that only counts never concatenates or sorts its instances.
    """

    pending: Optional[PendingChildren] = None
    cost: float = 0.0
    generated: int = 0
    generated_by_vp: Dict[int, int] = field(default_factory=dict)
    n_complete: int = 0
    _complete_chunks: List[np.ndarray] = field(default_factory=list, repr=False)
    _complete_order: List[np.ndarray] = field(default_factory=list, repr=False)

    def add_complete(self, rows: np.ndarray, order: np.ndarray) -> None:
        """Record one group's complete rows and their delivery-order keys."""
        self._complete_chunks.append(rows)
        self._complete_order.append(order)
        self.n_complete += len(rows)

    @property
    def complete(self) -> Optional[np.ndarray]:
        """The complete rows in delivery order (``None`` when there are
        none), assembled on first read."""
        chunks = self._complete_chunks
        if not chunks:
            return None
        if len(chunks) > 1:
            order = np.concatenate(self._complete_order)
            perm = np.argsort(order, kind="stable")
            self._complete_chunks = [np.concatenate(chunks, axis=0)[perm]]
            self._complete_order = [order[perm]]
        return self._complete_chunks[0]


#: Attempted combinations per cross-product run (see
#: :func:`_cross_product`): bounds its temporaries, a few hundred bytes
#: per combination once the consistency probes hash them.
CROSS_BLOCK_COMBOS = 1 << 13


def _combine_black_words(words: np.ndarray) -> int:
    """One row of uint32 mask words -> the Python int bitmask."""
    return sum(int(w) << (32 * i) for i, w in enumerate(words))


def _black_to_words(black: int, words: int) -> np.ndarray:
    return np.array(
        [(black >> (32 * w)) & 0xFFFFFFFF for w in range(words)],
        dtype=np.uint32,
    )


def _uncovered(black: int, pattern: PatternGraph) -> int:
    """How many pattern edges still lack a BLACK endpoint."""
    return sum(
        1 for a, b in pattern.edges()
        if not (black >> a & 1) and not (black >> b & 1)
    )


def expand_columns(
    columns: GpsiColumns,
    pattern: PatternGraph,
    ordered: OrderedGraph,
    edge_index: EdgeIndexBase,
    costs: CostParameters = DEFAULT_COSTS,
    kernel: str = "numpy",
) -> BatchOutcome:
    """Run Algorithm 1 on every row of ``columns``, each at its own
    expanding data vertex ``mapping[i, next_vertex[i]]``.

    Equivalent to calling :func:`~repro.core.expansion.expand_gpsi` on
    each row in order and concatenating the outcomes — same instances,
    same children in the same order, same cost, same probe statistics —
    but grouped by colouring signature so the per-row Python work
    collapses to a handful of numpy passes per group, whatever vertices
    the rows are addressed to.  Cutting a block anywhere and
    concatenating the outcomes of the pieces gives the same result.

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
    if columns.black.shape[1] == 1 and k <= 24:
        # One mask word and a short mapping (every paper pattern): the
        # whole signature packs into one uint64 — a 1-D sort is far
        # cheaper than the lexicographic one.
        sig = (
            (columns.black[:, 0].astype(np.uint64) << np.uint64(32))
            | (mask_key << np.uint64(8))
            | next_col.astype(np.uint64)
        )
    else:
        sig = np.column_stack(
            [
                columns.black.astype(np.int64),
                mask_key.astype(np.int64),
                next_col.astype(np.int64),
            ]
        )
    _, first_idx, inverse = sorted_unique(sig)

    # Per-chunk accumulators; ``order`` keys restore delivery order.
    pending_chunks: List[np.ndarray] = []
    pending_black: List[np.ndarray] = []
    pending_order: List[np.ndarray] = []
    pending_groups: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []

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
        vd = sub_map[:, vp]
        m = len(rows)

        # Walk vp's pattern neighbours in sorted order with a live-row
        # mask; dead rows stop being charged exactly where the scalar
        # loop returns.
        alive = np.ones(m, dtype=bool)
        # Per WHITE neighbour: (vertex, candidates per group row, the
        # candidates themselves, flat, rows ascending).
        whites: List[Tuple[int, np.ndarray, np.ndarray]] = []
        for np_ in pattern.neighbors(vp):
            live = np.flatnonzero(alive)
            if len(live) == 0:
                break
            if black >> np_ & 1:
                continue
            if group_mask >> np_ & 1:
                # GRAY: exact adjacency verification against N(vd).
                outcome.cost += costs.gray_check * len(live)
                if use_native:
                    ok = kernels.membership_sorted(
                        graph.indptr, graph.indices, vd[live], sub_map[live, np_]
                    )
                else:
                    ok = graph.has_edges(vd[live], sub_map[live, np_])
                alive[live[~ok]] = False
            else:
                # WHITE: one flat candidate list over the live rows' N(vd).
                outcome.cost += costs.scan * int(degrees[vd[live]].sum())
                row_of, cand = _white_candidates(
                    sub_map[live], vd[live], np_, vp, black, group_mask,
                    pattern, graph, ranks, edge_index, probe_pack,
                )
                per_row = np.zeros(m, dtype=np.int64)
                per_row[live] = np.bincount(row_of, minlength=len(live))
                alive &= per_row > 0
                whites.append((np_, per_row, cand))

        live = np.flatnonzero(alive)
        if len(live) == 0:
            continue

        if not whites:
            # Verification-only expansion: colours change, mapping stays.
            child_map = sub_map[live]
            child_order = rows[live]
            child_mask = group_mask
        else:
            child_map, parent, attempted = _cross_product(
                sub_map, live, whites, pattern, ranks, edge_index
            )
            outcome.cost += costs.ce * attempted
            child_order = rows[parent]
            child_mask = group_mask
            for wp, _, _ in whites:
                child_mask |= 1 << wp
        n_children = child_map.shape[0]
        if n_children == 0:
            continue

        outcome.generated += n_children
        outcome.generated_by_vp[vp] = (
            outcome.generated_by_vp.get(vp, 0) + n_children
        )
        full = child_mask == (1 << k) - 1
        uncovered = _uncovered(new_black, pattern) if full else 0
        if full and (edge_index.exact or not uncovered):
            # A full mapping under an exact index closes here: each
            # uncovered edge was proved by the probe that admitted its
            # later-mapped endpoint.  Charge its verification here too.
            outcome.cost += costs.gray_check * uncovered * n_children
            outcome.add_complete(child_map, child_order)
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
            pending_groups.append((grays, white_counts))

    if pending_chunks:
        order = np.concatenate(pending_order)
        perm = np.argsort(order, kind="stable")
        counts = [len(chunk) for chunk in pending_chunks]
        outcome.pending = PendingChildren(
            mapping=np.concatenate(pending_chunks, axis=0)[perm],
            black=np.concatenate(pending_black, axis=0)[perm],
            group_of=np.repeat(np.arange(len(counts)), counts)[perm],
            groups=pending_groups,
        )
    return outcome


def _white_candidates(
    sub_live: np.ndarray,
    vd: np.ndarray,
    white_vp: int,
    expanding_vp: int,
    black: int,
    group_mask: int,
    pattern: PatternGraph,
    graph,
    ranks: np.ndarray,
    edge_index: EdgeIndexBase,
    probe_pack: Optional["kernels.ProbePack"],
) -> Tuple[np.ndarray, np.ndarray]:
    """Admissible candidates of one WHITE neighbour for every live row,
    as the flat pair ``(row_of, cand)`` — rows ascending, ``N(vd)`` order
    within a row.

    Vectorises Algorithm 5 over the concatenated ``N(vd)`` segments of
    the rows: the degree rule, rank bounds and injectivity are gathers
    over the shared arrays, and the GRAY-image prefilter issues exactly
    the probes the scalar short-circuit loop would — candidate ``c`` of
    row ``r`` is probed against image ``j`` iff it survived images
    ``0..j-1`` — as one ``might_contain_pairs`` per image.  With a
    ``probe_pack`` the per-(row, candidate) decisions, probes included,
    run fused in :func:`repro.core.kernels.white_candidates` and the
    probe counts it reports are credited to ``edge_index``.
    """
    n_live = len(vd)
    # Rule 1b: exclusive rank bounds from order-constrained mapped vertices.
    lower = np.full(n_live, -1, dtype=np.int64)
    upper = np.full(n_live, graph.num_vertices, dtype=np.int64)
    for below in pattern.must_rank_below(white_vp):
        if group_mask >> below & 1:
            np.maximum(lower, ranks[sub_live[:, below]], out=lower)
    for above in pattern.must_rank_above(white_vp):
        if group_mask >> above & 1:
            np.minimum(upper, ranks[sub_live[:, above]], out=upper)
    # A candidate is a neighbour of vd, so it never equals vd's own image.
    mapped_cols = [
        col
        for col in range(sub_live.shape[1])
        if group_mask >> col & 1 and col != expanding_vp
    ]
    # Only GRAY (mapped, unexpanded) images prefilter.
    gray_cols = [
        np_
        for np_ in pattern.neighbors(white_vp)
        if np_ != expanding_vp and group_mask >> np_ & 1 and not black >> np_ & 1
    ]
    if probe_pack is not None:
        row_of, cand, queries, positives = kernels.white_candidates(
            sub_live, vd,
            np.array(mapped_cols, dtype=np.int64),
            np.array(gray_cols, dtype=np.int64),
            lower, upper, graph, ranks, pattern.degree(white_vp), probe_pack,
        )
        edge_index.queries += queries
        edge_index.positives += positives
        return row_of, cand

    lens = np.where(lower < upper, graph.degrees[vd], 0)
    ends = np.cumsum(lens)
    slots = np.repeat(graph.indptr[vd] - (ends - lens), lens)
    slots += np.arange(len(slots))
    cand = graph.indices[slots]
    row_of = np.repeat(np.arange(n_live), lens)
    # Rules 1a + 1b + injectivity as one mask over the flat list.
    keep = graph.degrees[cand] >= pattern.degree(white_vp)
    cand_ranks = ranks[cand]
    keep &= cand_ranks > lower[row_of]
    keep &= cand_ranks < upper[row_of]
    for col in mapped_cols:
        keep &= cand != sub_live[row_of, col]
    row_of, cand = row_of[keep], cand[keep]
    # Rule 2: GRAY-image prefilter, one image at a time in pattern-
    # neighbour order, compressing between images (probe-count parity
    # with the scalar loop).
    for np_ in gray_cols:
        if len(cand) == 0:
            break
        res = edge_index.might_contain_pairs(cand, sub_live[row_of, np_])
        row_of, cand = row_of[res], cand[res]
    return row_of, cand


def _cross_product(
    sub_map: np.ndarray,
    live: np.ndarray,
    whites: List[Tuple[int, np.ndarray, np.ndarray]],
    pattern: PatternGraph,
    ranks: np.ndarray,
    edge_index: EdgeIndexBase,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Materialise the consistent candidate combinations of the live rows.

    Returns ``(child_mapping, parent, combos_attempted)`` — ``parent[c]``
    the group row of child ``c`` — with children in ``itertools.product``
    order within each parent and parents ascending.  Child ``c`` of a
    parent is combination number ``c``; its digit for WHITE vertex ``j``
    (mixed radix, first vertex most significant) picks from the parent's
    segment of that vertex's flat candidate list.  Combinations grow with
    the product of the candidate counts, so rows are taken in runs of
    about :data:`CROSS_BLOCK_COMBOS` attempted combinations (one row at
    least): the temporaries stay bounded whatever the block expands to.
    """
    combos = np.ones(len(live), dtype=np.int64)
    for _, per_row, _ in whites:
        combos *= per_row[live]
    begins = np.cumsum(combos) - combos
    cuts = np.flatnonzero(np.diff(begins // CROSS_BLOCK_COMBOS)) + 1
    bounds = [0, *cuts.tolist(), len(live)]
    white_vps = [wp for wp, _, _ in whites]
    starts = [np.cumsum(per_row) - per_row for _, per_row, _ in whites]
    maps: List[np.ndarray] = []
    parents: List[np.ndarray] = []
    for lo, hi in zip(bounds, bounds[1:]):
        run = combos[lo:hi]
        parent = np.repeat(live[lo:hi], run)
        number = np.arange(len(parent)) - np.repeat(begins[lo:hi] - begins[lo], run)
        stride = np.repeat(run, run)
        images = []
        for (_, per_row, cand), start in zip(whites, starts):
            size = per_row[parent]
            stride //= size
            images.append(cand[start[parent] + (number // stride) % size])
        if len(whites) > 1:
            # Check the WHITE images alone; only survivors get a mapping.
            consistent = _consistent_mask(
                images, white_vps, pattern, ranks, edge_index
            )
            parent = parent[consistent]
            images = [image[consistent] for image in images]
        child_map = sub_map[parent]
        for wp, image in zip(white_vps, images):
            child_map[:, wp] = image
        maps.append(child_map)
        parents.append(parent)
    return np.concatenate(maps), np.concatenate(parents), int(combos.sum())


def _consistent_mask(
    images: List[np.ndarray],
    white_vps: List[int],
    pattern: PatternGraph,
    ranks: np.ndarray,
    edge_index: EdgeIndexBase,
) -> np.ndarray:
    """Batched :func:`~repro.core.candidates.combination_consistent` over
    the combinations' WHITE images (``images[j]`` holds ``white_vps[j]``'s).

    Walks the ``(i, j)`` pairs in the scalar loop's order with a running
    survivor mask, so index probes fire for exactly the combinations the
    scalar short circuit would probe: a combination failing pair ``(0,1)``
    is never probed for pair ``(0,2)``, and within a pair the cheap
    distinctness/order checks gate the probe.
    """
    ok = np.ones(len(images[0]), dtype=bool)
    kw = len(white_vps)
    order = pattern.partial_order
    for i in range(kw):
        for j in range(i + 1, kw):
            pa, pb = white_vps[i], white_vps[j]
            a, b = images[i], images[j]
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
