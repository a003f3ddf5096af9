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
2. per group, GRAY verification is one lookup in the graph's hashed
   edge-key table (:meth:`Graph.has_edges
   <repro.graph.graph.Graph.has_edges>`) and WHITE candidate generation
   one flat ragged gather with a ``row_of`` index — of each row's rank
   window only: the degree and rank rules are one open rank interval
   per row, found with two binary searches in the rank-keyed adjacency
   (:attr:`OrderedGraph.rank_keys
   <repro.graph.ordered.OrderedGraph.rank_keys>`); injectivity is a mask,
   the GRAY-image prefilter one pairwise batch probe per image, and one
   sort restores ``N(vd)`` order;
3. the candidate cross product is a prefix join: combinations grow one
   WHITE vertex at a time by segment repeats over the flat candidate
   lists, and each extension is checked against the earlier images in
   :func:`~repro.core.candidates.combination_consistent`'s colex pair
   order — a combination failing a pair is never extended, and a prefix
   is probed once for all the combinations sharing it.  A level is built
   in parts of at most :data:`JOIN_LEVEL_ROWS` rows, cut between
   prefixes, each joined to the end before the next;
4. children are merged back into the parents' delivery order, so every
   downstream consumer — distribution strategies, RNG streams, outbox row
   order, the cost ledger — observes exactly the sequence the object path
   would have produced.  Under an exact edge index a fully mapped child is
   complete at once (see :attr:`EdgeIndexBase.exact
   <repro.core.edge_index.EdgeIndexBase.exact>`); complete rows are only
   counted unless a consumer reads them, and a closing group with one
   WHITE vertex — every candidate a child, no pair to join — is counted
   without running the cross product at all.

Parity with the scalar reference is *bit-identical* for instance sets,
counts, per-group costs, edge-index probe statistics and ledger totals;
``tests/test_batch_expand.py`` pins all of it.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .._record import Record
from ..graph.ordered import OrderedGraph
from ..pattern.pattern import PatternGraph
from .cost import DEFAULT_COSTS
from ..unique import sorted_unique
from .edge_index import EdgeIndexBase
from .psi import GpsiColumns, PACKED_UNSET_NEXT, UNMAPPED


class PendingChildren(Record):
    """Incomplete children of one batch expansion, still in columns.

    ``groups`` is the group table — one ``(grays, white_counts)`` pair per
    signature group that produced children, a handful per block — and
    ``group_of[i]`` child ``i``'s row in it: ``grays`` are the child's
    useful GRAY vertices and ``white_counts[j]`` the number of WHITE
    pattern neighbours of ``grays[j]`` — everything a distribution
    strategy's ``choose_many`` needs.
    """

    __slots__ = ("mapping", "black", "group_of", "groups")

    def __init__(
        self,
        mapping: np.ndarray,
        black: np.ndarray,
        group_of: np.ndarray,
        groups: List[Tuple[Tuple[int, ...], Tuple[int, ...]]],
    ) -> None:
        self.mapping = mapping
        self.black = black
        self.group_of = group_of
        self.groups = groups

    @property
    def n(self) -> int:
        return self.mapping.shape[0]

    def __len__(self) -> int:
        return self.n


class BatchOutcome(Record):
    """What expanding one delivered block of rows produced.

    ``complete`` rows and ``pending`` children are both in the object
    path's order: parents in delivery order, combinations in
    ``itertools.product`` order within each parent.  ``generated_by_vp``
    is the per-expanding-vertex Gpsi tally (the Table 2 statistic).

    ``n_complete`` counts the complete rows; the ordered ``complete``
    array is only built, group by group, when read, so a run that only
    counts never materialises, concatenates or sorts its instances.
    """

    __slots__ = (
        "pending", "cost", "generated", "generated_by_vp", "n_complete",
        "_closing", "_complete",
    )

    def __init__(self) -> None:
        self.pending: Optional[PendingChildren] = None
        self.cost = 0.0
        self.generated = 0
        self.generated_by_vp: Dict[int, int] = {}
        self.n_complete = 0
        self._closing: List[Callable[[], Tuple[np.ndarray, np.ndarray]]] = []
        self._complete: Optional[np.ndarray] = None

    def add_complete(
        self, n: int, build: Callable[[], Tuple[np.ndarray, np.ndarray]]
    ) -> None:
        """Record one group's ``n`` complete rows: ``build()`` returns
        them and their delivery-order keys, and runs on first read."""
        self._closing.append(build)
        self.n_complete += n

    @property
    def complete(self) -> Optional[np.ndarray]:
        """The complete rows in delivery order (``None`` when there are
        none), built on first read."""
        if self._complete is None and self._closing:
            chunks, orders = zip(*(build() for build in self._closing))
            rows = np.concatenate(chunks, axis=0)
            if len(chunks) > 1:
                rows = rows[np.argsort(np.concatenate(orders), kind="stable")]
            self._complete = rows
        return self._complete


#: Rows one join level of :func:`_cross_product` builds at once, unless a
#: single parent row builds more: bounds its temporaries, a few hundred
#: bytes per row once the consistency probes hash them.
JOIN_LEVEL_ROWS = 1 << 14


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
    """
    costs = DEFAULT_COSTS
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
                ok = graph.has_edges(vd[live], sub_map[live, np_])
                alive[live[~ok]] = False
            else:
                # WHITE: one flat candidate list over the live rows' N(vd).
                outcome.cost += costs.scan * int(degrees[vd[live]].sum())
                row_of, cand = _white_candidates(
                    sub_map[live], vd[live], np_, vp, black, group_mask,
                    pattern, ordered, edge_index,
                )
                per_row = np.zeros(m, dtype=np.int64)
                per_row[live] = np.bincount(row_of, minlength=len(live))
                alive &= per_row > 0
                whites.append((np_, per_row, cand))

        live = np.flatnonzero(alive)
        if len(live) == 0:
            continue

        child_mask = group_mask
        for wp, _, _ in whites:
            child_mask |= 1 << wp
        full = child_mask == (1 << k) - 1
        uncovered = _uncovered(new_black, pattern) if full else 0
        # A full mapping under an exact index closes here: each uncovered
        # edge was proved by the probe that admitted its later-mapped
        # endpoint.
        closes = full and (edge_index.exact or not uncovered)
        if closes and len(whites) == 1:
            # Count on close: every candidate is a child, so the children
            # are counted now and built only if a consumer reads them.
            n_children = int(whites[0][1][live].sum())
            outcome.cost += costs.ce * n_children
            children = partial(
                _one_white_children, sub_map, live, whites[0], rows,
                ordered.rank_shift,
            )
        else:
            if not whites:
                # Verification-only expansion: colours change, mapping stays.
                child_map = sub_map[live]
                child_order = rows[live]
            else:
                whites = [
                    (wp, per_row, _vertex_order(per_row, cand, ordered.rank_shift))
                    for wp, per_row, cand in whites
                ]
                child_map, parent, attempted = _cross_product(
                    sub_map, live, whites, pattern, ordered.ranks, edge_index
                )
                outcome.cost += costs.ce * attempted
                child_order = rows[parent]
            n_children = child_map.shape[0]
            children = partial(_built, child_map, child_order)
        if n_children == 0:
            continue

        outcome.generated += n_children
        outcome.generated_by_vp[vp] = (
            outcome.generated_by_vp.get(vp, 0) + n_children
        )
        if closes:
            # The uncovered edges' verification is charged here too.
            outcome.cost += costs.gray_check * uncovered * n_children
            outcome.add_complete(n_children, children)
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
    ordered: OrderedGraph,
    edge_index: EdgeIndexBase,
) -> Tuple[np.ndarray, np.ndarray]:
    """Admissible candidates of one WHITE neighbour for every live row,
    as the flat pair ``(row_of, cand)`` — rows ascending, rank order
    within a row (:func:`_vertex_order` puts a row's candidates back in
    ``N(vd)`` order, for the consumers that build children).

    Vectorises Algorithm 5 over the rows.  Rules 1a and 1b are one rank
    window per row — ranks sort by degree first, so the degree floor is
    a lower rank bound — and only the window's slots of the rank-keyed
    adjacency (:attr:`OrderedGraph.rank_keys
    <repro.graph.ordered.OrderedGraph.rank_keys>`) are gathered.
    Injectivity is a mask, and the GRAY-image prefilter issues exactly
    the probes the scalar short-circuit loop would — candidate ``c`` of
    row ``r`` is probed against image ``j`` iff it survived images
    ``0..j-1`` — as one ``might_contain_pairs`` per image.
    """
    ranks = ordered.ranks
    shift = ordered.rank_shift
    low_bits = (1 << shift) - 1
    n_live = len(vd)
    # Rules 1a + 1b: the open rank window (lower, upper) of every row.
    lower = np.full(
        n_live, ordered.rank_floor(pattern.degree(white_vp)) - 1, dtype=np.int64
    )
    upper = np.full(n_live, ordered.graph.num_vertices, dtype=np.int64)
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
    keys = ordered.rank_keys
    base = vd << shift
    lo = np.searchsorted(keys, base + lower + 1)
    lens = np.maximum(np.searchsorted(keys, base + upper) - lo, 0)
    cand = ordered.by_rank[keys[_ragged_slots(lo, lens)] & low_bits]
    row_of = np.repeat(np.arange(n_live), lens)
    keep = np.ones(len(cand), dtype=bool)
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


def _vertex_order(per_row: np.ndarray, cand: np.ndarray, shift: int) -> np.ndarray:
    """Flat candidates, ``per_row[r]`` of them for row ``r`` in rank
    order, put back into ``N(vd)``'s vertex-id order within each row."""
    key = np.repeat(np.arange(len(per_row)), per_row) << shift | cand
    key.sort()
    return key & ((1 << shift) - 1)


def _ragged_slots(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The flat slots of the segments ``[starts[i], starts[i] + lens[i])``,
    one after the other."""
    ends = np.cumsum(lens)
    slots = np.repeat(starts - (ends - lens), lens)
    slots += np.arange(len(slots))
    return slots


def _one_white_children(
    sub_map: np.ndarray,
    live: np.ndarray,
    white: Tuple[int, np.ndarray, np.ndarray],
    rows: np.ndarray,
    shift: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The children of a group with one WHITE vertex and their delivery-
    order keys: every candidate of every live row, in
    :func:`_cross_product`'s order — with no second image there is no
    pair to check.  Only a read of the complete rows gets here, so a run
    that only counts never sorts the candidates."""
    wp, per_row, cand = white
    cand = _vertex_order(per_row, cand, shift)
    size = per_row[live]
    child_map = np.repeat(sub_map[live], size, axis=0)
    child_map[:, wp] = cand[_ragged_slots((np.cumsum(per_row) - per_row)[live], size)]
    return child_map, np.repeat(rows[live], size)


def _built(rows: np.ndarray, order: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Children the group had to build anyway, handed back as they are."""
    return rows, order


def _runs(sizes: np.ndarray, bound: int) -> List[Tuple[int, int]]:
    """Cut rows into consecutive ``(lo, hi)`` runs whose ``sizes`` sum to
    at most ``bound``; a row larger than ``bound`` is a run by itself."""
    ends = np.cumsum(sizes)
    runs, lo = [], 0
    while lo < len(sizes):
        base = int(ends[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(ends, base + bound, side="right")), lo + 1)
        runs.append((lo, hi))
        lo = hi
    return runs


def _cross_product(
    sub_map: np.ndarray,
    live: np.ndarray,
    whites: List[Tuple[int, np.ndarray, np.ndarray]],
    pattern: PatternGraph,
    ranks: np.ndarray,
    edge_index: EdgeIndexBase,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Join the live rows' WHITE candidates one vertex at a time.

    Returns ``(child_mapping, parent, combos_attempted)`` — ``parent[c]``
    the group row of child ``c`` — with children in ``itertools.product``
    order within each parent and parents ascending.  Each prefix of WHITE
    images is extended by the next vertex's candidates (a segment repeat,
    so lexicographic order holds) and checked against the earlier images
    at once, in :func:`~repro.core.candidates.combination_consistent`'s
    colex pair order: a combination failing pair ``(0, 1)`` is never
    built with a third image.  A prefix probed at level ``j`` stands for
    the ``prod(|C_l|, l > j)`` full combinations the scalar loop probes
    it for, so it is probed once and the other ``weight - 1`` probes
    are credited to the index's statistics.  The ledger still prices
    every attempted combination (Equation 2).

    A level that would build more than :data:`JOIN_LEVEL_ROWS` rows is
    split between its prefixes, and each part is joined through the
    remaining levels before the next one starts, so children keep
    product order; a single prefix that builds more runs whole.
    """
    # weights[j][r]: full combinations of row r sharing a level-j prefix.
    weights: List[np.ndarray] = []
    weight = np.ones(len(sub_map), dtype=np.int64)
    for _, per_row, _ in reversed(whites):
        weights.append(weight)
        weight = weight * per_row
    weights.reverse()
    white_vps = [wp for wp, _, _ in whites]
    starts = [np.cumsum(per_row) - per_row for _, per_row, _ in whites]
    order = pattern.partial_order
    maps: List[np.ndarray] = [sub_map[live[:0]]]
    parents: List[np.ndarray] = [live[:0]]
    # Level-j prefixes still to extend, as (j, parent rows, their images);
    # the top of the stack is the earliest in product order.
    stack = [(0, live, [])]
    while stack:
        j, parent, images = stack.pop()
        if j == len(whites):
            child_map = sub_map[parent]
            for wp, image in zip(white_vps, images):
                child_map[:, wp] = image
            maps.append(child_map)
            parents.append(parent)
            continue
        pb, per_row, cand = whites[j]
        size = per_row[parent]
        runs = _runs(size, JOIN_LEVEL_ROWS)
        if len(runs) > 1:
            stack.extend(
                (j, parent[lo:hi], [image[lo:hi] for image in images])
                for lo, hi in reversed(runs)
            )
            continue
        b = cand[_ragged_slots(starts[j][parent], size)]
        parent = np.repeat(parent, size)
        images = [np.repeat(image, size) for image in images]
        ok = np.ones(len(b), dtype=bool)
        for pa, a in zip(white_vps, images):
            ok &= a != b
            if (pa, pb) in order:
                ok &= ranks[a] < ranks[b]
            if (pb, pa) in order:
                ok &= ranks[b] < ranks[a]
            if pattern.has_edge(pa, pb):
                idx = np.flatnonzero(ok)
                if len(idx) == 0:
                    break
                res = edge_index.might_contain_pairs(a[idx], b[idx])
                ok[idx] = res
                if j + 1 < len(whites):  # the last level weighs 1
                    extra = weights[j][parent[idx]] - 1
                    edge_index.queries += int(extra.sum())
                    edge_index.positives += int(extra[res].sum())
        if not ok.all():
            keep = np.flatnonzero(ok)
            parent = parent[keep]
            images = [image[keep] for image in images]
            b = b[keep]
        if len(parent):
            stack.append((j + 1, parent, images + [b]))
    return np.concatenate(maps), np.concatenate(parents), int(weight[live].sum())
