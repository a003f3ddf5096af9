"""Batched expansion kernel: bit-identical parity with the scalar path.

The columnar batch kernel (:mod:`repro.core.batch_expand`) must be an
*observable no-op*: expanding a packed column slice produces exactly what
running :func:`repro.core.expansion.expand_gpsi` row by row would —
the same instances in the same order, the same pending children with the
same useful-GRAY sets, the same cost charge, the same edge-index probe
counters.  These tests pin that equivalence at the kernel level:

1. the kernel directly, driven superstep by superstep against the scalar
   reference on every paper pattern and every index kind (plus a
   hypothesis sweep over random graphs) — one destination vertex per
   call, the whole frontier of a superstep in one call, and the frontier
   cut at arbitrary rows;
2. the cross product's prefix join: probe statistics and ledger totals
   as the full enumeration reports them, with each shared prefix probed
   once physically;
3. the ``useful_grays_for`` memo on :class:`PatternGraph` (it is keyed
   per pattern instance and must never leak across patterns).

Whole listing jobs — every strategy, backend, shuffle and graph storage
against the reference oracle — are ``tests/test_plane_parity.py``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import Gpsi, expand_columns, expand_gpsi, pack_gpsis
from repro.core.edge_index import ExactEdgeIndex, build_edge_index
from repro.core.init_vertex import select_initial_vertex
from repro.graph import Graph, OrderedGraph
from repro.graph.generators import chung_lu_power_law, erdos_renyi, rmat
from repro.pattern import PatternGraph, get_pattern, paper_patterns


def _with_planted_clique(graph, k):
    """``graph`` plus a K_k on its first ``k`` vertices."""
    planted = {(i, j) for i in range(k) for j in range(i + 1, k)}
    return Graph(graph.num_vertices, sorted(planted | set(graph.edges())))


GRAPHS = {
    "er": erdos_renyi(28, 0.25, seed=13),
    "powerlaw": chung_lu_power_law(30, gamma=2.5, avg_degree=4, seed=5),
}
# The ER graph with a K6 planted: six 5-cliques at least.
GRAPHS["planted"] = _with_planted_clique(GRAPHS["er"], 6)


def _black_int(words) -> int:
    return sum(int(w) << (32 * i) for i, w in enumerate(words))


def scalar_outcomes(gpsis, pattern, ordered, index):
    """``expand_gpsi`` row by row, concatenated, in comparable form."""
    out = dict(complete=[], pending=[], cost=0.0, generated=0, by_vp={})
    for g in gpsis:
        one = expand_gpsi(g, pattern, ordered, index)
        out["cost"] += one.cost
        out["generated"] += one.generated
        if one.generated:
            vp = g.next_vertex
            out["by_vp"][vp] = out["by_vp"].get(vp, 0) + one.generated
        out["complete"].extend(one.complete)
        out["pending"].extend(one.pending)
    return out


def batch_outcomes(pieces, pattern, ordered, index):
    """One ``expand_columns`` call per piece, concatenated likewise."""
    out = dict(complete=[], pending=[], cost=0.0, generated=0, by_vp={})
    for gpsis in pieces:
        b = expand_columns(
            pack_gpsis(gpsis, k=pattern.num_vertices), pattern, ordered, index
        )
        out["cost"] += b.cost
        out["generated"] += b.generated
        for vp, n in b.generated_by_vp.items():
            out["by_vp"][vp] = out["by_vp"].get(vp, 0) + n
        if b.complete is not None:
            out["complete"].extend(tuple(r) for r in b.complete.tolist())
        if b.pending is not None:
            for m, w, (grays, _) in zip(
                b.pending.mapping.tolist(), b.pending.black,
                (b.pending.groups[g] for g in b.pending.group_of.tolist()),
            ):
                child = Gpsi(tuple(m), _black_int(w), -1)
                assert grays == tuple(child.useful_grays(pattern))
                out["pending"].append(child)
    return out


def drive_parity(graph, pattern, index_kind, max_supersteps=12):
    """Run the whole expansion BFS on the scalar path and on the kernel,
    asserting parity at every superstep and returning the total
    completed-instance count.  The kernel runs three ways: one call per
    destination vertex's delivery; the whole frontier of the superstep —
    all destination vertices, in shuffled vertex order — in one call;
    and that frontier cut at arbitrary rows (mid-vertex too), one call
    per piece.

    Routing is deterministic (first useful GRAY) so the drive needs no
    RNG; each path probes its own index copy so probe counters compare.
    """
    ordered = OrderedGraph(graph)
    scalar, per_vertex, whole, cut = (
        build_edge_index(graph, kind=index_kind, fp_rate=0.01, seed=7)
        for _ in range(4)
    )
    rng = np.random.default_rng(graph.num_edges)
    init_vp = select_initial_vertex(pattern, graph)
    frontier = [
        (vd, Gpsi.initial(pattern, init_vp, vd))
        for vd in range(graph.num_vertices)
        if graph.degree(vd) >= pattern.degree(init_vp)
    ]
    total_complete = 0
    for _ in range(max_supersteps):
        if not frontier:
            break
        by_dest = {}
        for vd, g in frontier:
            by_dest.setdefault(vd, []).append(g)
        deliveries = list(by_dest.values())
        rows = [g for gpsis in deliveries for g in gpsis]

        expected = scalar_outcomes(rows, pattern, ordered, scalar)
        assert batch_outcomes(deliveries, pattern, ordered, per_vertex) == expected
        assert (per_vertex.queries, per_vertex.positives) == (
            scalar.queries, scalar.positives
        )

        shuffled = [
            g for i in rng.permutation(len(deliveries)) for g in deliveries[i]
        ]
        expected_shuffled = scalar_outcomes(
            shuffled, pattern, ordered, scalar.detached_view()
        )
        assert batch_outcomes([shuffled], pattern, ordered, whole) == expected_shuffled
        cuts = sorted(rng.integers(0, len(rows) + 1, size=3).tolist())
        pieces = [
            shuffled[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(rows)])
        ]
        assert batch_outcomes(pieces, pattern, ordered, cut) == expected_shuffled
        for index in (whole, cut):
            assert (index.queries, index.positives) == (
                scalar.queries, scalar.positives
            )

        total_complete += len(expected["complete"])
        frontier = []
        for child in expected["pending"]:
            grays = child.useful_grays(pattern)
            if grays:
                nxt = grays[0]
                frontier.append((child.mapping[nxt], child.with_next(nxt)))
    assert not frontier, "expansion did not terminate"
    return total_complete


class TestKernelParity:
    @pytest.mark.parametrize("index_kind", ["bloom", "exact", "none"])
    @pytest.mark.parametrize("pattern_name", sorted(paper_patterns()))
    def test_matches_scalar_reference(self, pattern_name, index_kind):
        pattern = paper_patterns()[pattern_name]
        count = drive_parity(GRAPHS["er"], pattern, index_kind)
        if index_kind != "bloom":  # bloom FPs may admit extra combos
            assert count == drive_parity(GRAPHS["er"], pattern, "exact")

    @pytest.mark.parametrize("pattern_name", ["PG2", "PG5"])
    def test_matches_scalar_on_powerlaw(self, pattern_name):
        pattern = paper_patterns()[pattern_name]
        drive_parity(GRAPHS["powerlaw"], pattern, "bloom")

    @pytest.mark.parametrize("index_kind", ["bloom", "exact", "none"])
    @pytest.mark.parametrize("pattern_name", ["K5", "S4"])
    def test_matches_scalar_with_many_white_neighbours(
        self, pattern_name, index_kind
    ):
        # K5's first expansion joins four WHITE vertices (six edge pairs),
        # S4's hub three leaves held apart by the partial order alone.
        pattern = get_pattern(pattern_name)
        count = drive_parity(GRAPHS["planted"], pattern, index_kind)
        assert count > 0
        if index_kind != "bloom":
            assert count == drive_parity(GRAPHS["planted"], pattern, "exact")

    @pytest.mark.parametrize("pattern_name", [*sorted(paper_patterns()), "K5"])
    def test_cross_product_runs_do_not_change_the_outcome(
        self, monkeypatch, pattern_name
    ):
        # Tiny join levels: every level is cut between (never inside)
        # prefixes, and no level builds more than the bound or one
        # prefix's own extension.
        from repro.core import batch_expand

        real_runs = batch_expand._runs
        built = []

        def checked_runs(sizes, bound):
            assert bound == batch_expand.JOIN_LEVEL_ROWS
            runs = real_runs(sizes, bound)
            assert [lo for lo, _ in runs] == [0, *(hi for _, hi in runs[:-1])]
            assert runs[-1][1] == len(sizes)
            for lo, hi in runs:
                rows = int(sizes[lo:hi].sum())
                assert rows <= max(bound, int(sizes[lo])) and (
                    rows <= bound or hi - lo == 1
                )
                built.append((rows > bound, hi - lo > 1))
            return runs

        monkeypatch.setattr(batch_expand, "_runs", checked_runs)
        graph = GRAPHS["planted" if pattern_name == "K5" else "powerlaw"]
        pattern = get_pattern(pattern_name)
        for bound in (1, 5):
            monkeypatch.setattr(batch_expand, "JOIN_LEVEL_ROWS", bound)
            for index_kind in ("exact", "bloom", "none"):
                drive_parity(graph, pattern, index_kind)
        # Both cuts happened: a lone prefix past the bound, and runs of
        # several prefixes within it.
        assert any(big for big, _ in built) and any(many for _, many in built)

    def test_empty_slice_is_noop(self):
        graph = GRAPHS["er"]
        pattern = paper_patterns()["PG1"]
        idx = build_edge_index(graph, kind="exact")
        out = expand_columns(pack_gpsis([], k=3), pattern, OrderedGraph(graph), idx)
        assert out.complete is None and out.pending is None
        assert out.cost == 0.0 and out.generated == 0

    def test_rejects_unaddressed_rows(self):
        graph = GRAPHS["er"]
        pattern = paper_patterns()["PG1"]
        idx = build_edge_index(graph, kind="exact")
        cols = pack_gpsis([Gpsi.initial(pattern, 0, 5)])
        cols.next_vertex[0] = 0xFF
        with pytest.raises(ValueError, match="no next vertex"):
            expand_columns(cols, pattern, OrderedGraph(graph), idx)


class PairCountingIndex(ExactEdgeIndex):
    """Exact index that records every pair physically probed."""

    def __init__(self, graph):
        super().__init__(graph)
        self.pairs = []

    def might_contain_pairs(self, us, vs):
        self.pairs.extend(zip(us.tolist(), vs.tolist()))
        return super().might_contain_pairs(us, vs)


class TestJoinAccounting:
    """The cross product joins one WHITE vertex at a time and probes a
    prefix once for all the combinations sharing it; the statistics and
    the ledger still count every combination the scalar loop tries."""

    #: ``(index_queries, index_pruned, ledger total)`` of each paper
    #: pattern on R-MAT 8 (seed 0, 4 workers), as the materialise-then-
    #: mask cross product produced them.
    PINNED = {
        ("PG1", "bloom"): (1896, 599, 8886),
        ("PG1", "exact"): (1896, 603, 8882),
        ("PG1", "none"): (1896, 0, 9485),
        ("PG2", "bloom"): (23806, 5708, 95227),
        ("PG2", "exact"): (23806, 5729, 95185),
        ("PG2", "none"): (23806, 0, 106643),
        ("PG3", "bloom"): (39004, 14678, 160011),
        ("PG3", "exact"): (38809, 14717, 159241),
        ("PG3", "none"): (59129, 0, 255845),
        ("PG4", "bloom"): (23139, 6075, 43898),
        ("PG4", "exact"): (23113, 6095, 43887),
        ("PG4", "none"): (28557, 0, 47226),
        ("PG5", "bloom"): (1238180, 523461, 3025393),
        ("PG5", "exact"): (1238297, 527319, 3017418),
        ("PG5", "none"): (1235598, 0, 4134301),
    }

    @pytest.mark.parametrize("index_kind", ["bloom", "exact", "none"])
    @pytest.mark.parametrize("pattern_name", sorted(paper_patterns()))
    def test_statistics_and_ledger_are_unchanged(self, pattern_name, index_kind):
        from repro.core import PSgL

        result = PSgL(
            rmat(8, seed=0), num_workers=4, edge_index=index_kind, seed=0
        ).run(paper_patterns()[pattern_name])
        assert (
            result.index_queries, result.index_pruned, result.ledger.total_cost()
        ) == self.PINNED[pattern_name, index_kind]

    def test_a_failed_first_pair_is_never_extended(self):
        from itertools import product

        from repro.core import combination_consistent
        from repro.core.batch_expand import _cross_product

        # K4 without an order; vertex 0 expands, 1-3 are WHITE.  No data
        # edge joins WHITE 1's candidates {1, 2} to WHITE 2's {3, 4}, so
        # every pair (0, 1) fails its probe; both join WHITE 3's
        # {5, 6, 7}, which a probe for (0, 2) or (1, 2) would admit.
        pattern = PatternGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        graph = Graph(
            8,
            [(0, v) for v in range(1, 8)]
            + [(u, v) for u in range(1, 5) for v in range(5, 8)],
        )
        cands = [
            [[1, 2], [3, 4], [5, 6, 7]],  # row 0: 2 x 2 x 3 combinations
            [[1], [4], [5, 6]],  # row 1: 1 x 1 x 2
        ]
        whites = [
            (
                wp,
                np.array([len(row[j]) for row in cands]),
                np.array([c for row in cands for c in row[j]]),
            )
            for j, wp in enumerate([1, 2, 3])
        ]
        sub_map = np.array([[0, -1, -1, -1]] * 2)
        index = PairCountingIndex(graph)
        child_map, parent, attempted = _cross_product(
            sub_map, np.arange(2), whites, pattern,
            OrderedGraph(graph).ranks, index,
        )
        assert child_map.shape == (0, 4) and len(parent) == 0
        assert attempted == 2 * 2 * 3 + 1 * 1 * 2
        # Physically: the five (0, 1) pairs, once each.
        assert sorted(index.pairs) == [(1, 3), (1, 4), (1, 4), (2, 3), (2, 4)]
        # Statistically: one probe per combination, as the scalar loop.
        scalar = build_edge_index(graph, kind="exact")
        ordered = OrderedGraph(graph)
        for row in cands:
            for combo in product(*row):
                assert not combination_consistent(
                    list(combo), [1, 2, 3], pattern, ordered, scalar
                )
        assert (index.queries, index.positives) == (14, 0)
        assert (scalar.queries, scalar.positives) == (14, 0)

    def test_each_prefix_is_probed_once(self):
        graph = GRAPHS["er"]
        pattern = paper_patterns()["PG4"]
        ordered = OrderedGraph(graph)
        init_vp = select_initial_vertex(pattern, graph)
        rows = [
            Gpsi.initial(pattern, init_vp, vd)
            for vd in range(graph.num_vertices)
            if graph.degree(vd) >= pattern.degree(init_vp)
        ]
        scalar = build_edge_index(graph, kind="exact")
        expected = scalar_outcomes(rows, pattern, ordered, scalar)
        index = PairCountingIndex(graph)
        assert batch_outcomes([rows], pattern, ordered, index) == expected
        assert (index.queries, index.positives) == (
            scalar.queries, scalar.positives
        )
        # The statistics count every combination; far fewer pairs were
        # physically probed.
        assert 0 < len(index.pairs) < index.queries


class TestDispatchShape:
    """The engine probes and routes per delivered block, not
    per data vertex: the two entry points the harness times are called
    O(workers x supersteps x blocks) times, whatever ``num_vertices``."""

    WORKERS = 4

    def entry_point_calls(self, monkeypatch, graph):
        from repro.core import PSgL
        from repro.core.distribution import WorkloadAwareStrategy
        from repro.core.edge_index import BloomEdgeIndex

        calls = {"choose_many": 0, "might_contain_pairs": 0}

        def counted(cls, name):
            real = getattr(cls, name)

            def proxy(self, *args):
                calls[name] += 1
                return real(self, *args)

            monkeypatch.setattr(cls, name, proxy)

        with monkeypatch.context() as monkeypatch:
            counted(WorkloadAwareStrategy, "choose_many")
            counted(BloomEdgeIndex, "might_contain_pairs")
            result = PSgL(graph, num_workers=self.WORKERS).run(
                paper_patterns()["PG1"]
            )
        assert result.count > 0
        return calls, result

    def test_calls_do_not_grow_with_the_graph(self, monkeypatch):
        from repro.runtime.executor import EXPAND_BLOCK_ROWS

        small, small_run = self.entry_point_calls(monkeypatch, rmat(7, seed=3))
        large, large_run = self.entry_point_calls(monkeypatch, rmat(9, seed=3))
        assert large_run.total_gpsis > 4 * small_run.total_gpsis
        # Small enough that a worker's delivery is one block in both runs.
        assert large_run.total_gpsis < self.WORKERS * EXPAND_BLOCK_ROWS
        assert large == small
        # PG1: one routing call per (worker, expanding superstep with
        # pending children) and one probe call — the (v2, v3) cross
        # check — per block; the parent made one of each per data vertex.
        assert large == {
            "choose_many": self.WORKERS,
            "might_contain_pairs": self.WORKERS,
        }


@st.composite
def random_graphs(draw, max_vertices=20, edge_fraction=0.4):
    n = draw(st.integers(min_value=4, max_value=max_vertices))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(
            st.sampled_from(possible),
            max_size=int(len(possible) * edge_fraction) + 1,
            unique=True,
        )
    )
    return Graph(n, edges)


class TestKernelParityProperties:
    @settings(
        deadline=None,
        max_examples=25,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(graph=random_graphs(), pattern_name=st.sampled_from(["PG1", "PG2", "PG3"]))
    def test_random_graphs(self, graph, pattern_name):
        pattern = paper_patterns()[pattern_name]
        drive_parity(graph, pattern, "exact")


class TestUsefulGraysCache:
    """Satellite: the per-pattern ``useful_grays_for`` memo."""

    def test_cache_hit_returns_same_tuple(self):
        pattern = paper_patterns()["PG2"]
        a = pattern.useful_grays_for(0b0001, 0b0011)
        b = pattern.useful_grays_for(0b0001, 0b0011)
        assert a is b  # memoised, not recomputed

    def test_matches_scalar_useful_grays(self):
        for pattern in paper_patterns().values():
            k = pattern.num_vertices
            init = Gpsi.initial(pattern, 0, 17)
            assert pattern.useful_grays_for(
                init.black, init.mapped_mask()
            ) == tuple(init.useful_grays(pattern))

    def test_no_cross_pattern_leak(self):
        """Two patterns sharing a (black, mask) key must answer from
        their own structure — the memo is per instance, never global.
        With v1 BLACK and {v0, v1} mapped, the path v0-v1-v2 has no
        useful GRAY (v0's only neighbour is mapped and every edge is
        covered) while the triangle keeps v0 GRAY-useful through its
        uncovered (v0, v2) edge."""
        path = PatternGraph(3, [(0, 1), (1, 2)], name="P3")
        tri = PatternGraph(3, [(0, 1), (1, 2), (0, 2)], name="K3")
        key = (0b010, 0b011)
        # Warm the path's cache first: a global (black, mask)-keyed memo
        # would now hand the path's empty answer to the triangle.
        assert path.useful_grays_for(*key) == ()
        assert tri.useful_grays_for(*key) == (0,)
        # And in the reverse warm-up order on fresh instances.
        tri2 = PatternGraph(3, [(0, 1), (1, 2), (0, 2)], name="K3")
        path2 = PatternGraph(3, [(0, 1), (1, 2)], name="P3")
        assert tri2.useful_grays_for(*key) == (0,)
        assert path2.useful_grays_for(*key) == ()
        # The caches live on the instances, not the class.
        assert path._useful_grays_cache is not tri._useful_grays_cache

    def test_cache_survives_pickling(self):
        import pickle

        pattern = paper_patterns()["PG3"]
        pattern.useful_grays_for(0b00001, 0b00011)
        clone = pickle.loads(pickle.dumps(pattern))
        assert clone.useful_grays_for(0b00001, 0b00011) == (
            pattern.useful_grays_for(0b00001, 0b00011)
        )


def gather_then_mask(
    sub_live, vd, white_vp, expanding_vp, black, group_mask, pattern,
    ordered, edge_index,
):
    """Algorithm 5 as a mask over every ``N(vd)`` slot: the candidate
    scan the rank window replaced, kept as its oracle."""
    graph, ranks = ordered.graph, ordered.ranks
    n_live = len(vd)
    lower = np.full(n_live, -1, dtype=np.int64)
    upper = np.full(n_live, graph.num_vertices, dtype=np.int64)
    for below in pattern.must_rank_below(white_vp):
        if group_mask >> below & 1:
            np.maximum(lower, ranks[sub_live[:, below]], out=lower)
    for above in pattern.must_rank_above(white_vp):
        if group_mask >> above & 1:
            np.minimum(upper, ranks[sub_live[:, above]], out=upper)
    lens = graph.degrees[vd]
    cand = np.concatenate(
        [graph.indices[graph.indptr[v]:graph.indptr[v + 1]] for v in vd]
        + [np.zeros(0, dtype=np.int64)]
    )
    row_of = np.repeat(np.arange(n_live), lens)
    keep = graph.degrees[cand] >= pattern.degree(white_vp)
    keep &= ranks[cand] > lower[row_of]
    keep &= ranks[cand] < upper[row_of]
    for col in range(sub_live.shape[1]):
        if group_mask >> col & 1 and col != expanding_vp:
            keep &= cand != sub_live[row_of, col]
    row_of, cand = row_of[keep], cand[keep]
    for np_ in pattern.neighbors(white_vp):
        if np_ == expanding_vp or not group_mask >> np_ & 1 or black >> np_ & 1:
            continue
        if len(cand) == 0:
            break
        res = edge_index.might_contain_pairs(cand, sub_live[row_of, np_])
        row_of, cand = row_of[res], cand[res]
    # Both come back as the packed rows' 4-byte ids.
    return row_of.astype(np.int32), cand.astype(np.int32)


def check_windows(graph, pattern_name, index_kind) -> int:
    """List ``pattern_name`` on ``graph`` with every ``_white_candidates``
    call checked against :func:`gather_then_mask` — same arrays, same
    probe statistics; returns how many calls were checked."""
    from unittest import mock

    from repro.core import PSgL, batch_expand

    real = batch_expand._white_candidates
    calls = []

    def checked(*args):
        index = args[-1]
        before = index.queries, index.positives
        got = real(*args)
        after = index.queries, index.positives
        want = gather_then_mask(*args)
        # Rows ascending, rank order within a row; by vertex id, the
        # oracle's arrays exactly.
        row_of, cand = got
        ranks = args[7].ranks[cand]
        same_row = row_of[1:] == row_of[:-1]
        assert np.all(row_of[1:] >= row_of[:-1])
        assert np.all(ranks[1:][same_row] > ranks[:-1][same_row])
        by_vertex = np.lexsort((cand, row_of))
        for a, b in zip((row_of[by_vertex], cand[by_vertex]), want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert (index.queries - after[0], index.positives - after[1]) == (
            after[0] - before[0], after[1] - before[1]
        )
        index.queries, index.positives = after
        calls.append(1)
        return got

    with mock.patch.object(batch_expand, "_white_candidates", checked):
        PSgL(graph, num_workers=3, edge_index=index_kind).run(
            get_pattern(pattern_name)
        )
    return len(calls)


WINDOW_PATTERNS = ["PG1", "PG2", "PG3", "PG4", "PG5", "C5"]


class TestRankWindow:
    """``_white_candidates`` gathers only each row's rank window (Rules
    1a and 1b) yet returns what masking every ``N(vd)`` slot returned:
    the same ``(row_of, cand)`` in the same order, and the same probes."""

    @pytest.mark.parametrize("index_kind", ["exact", "bloom"])
    @pytest.mark.parametrize("pattern_name", WINDOW_PATTERNS)
    def test_matches_gather_then_mask(self, pattern_name, index_kind):
        assert check_windows(GRAPHS["powerlaw"], pattern_name, index_kind) > 0

    @settings(
        deadline=None,
        max_examples=40,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        graph=random_graphs(max_vertices=24, edge_fraction=0.5),
        pattern_name=st.sampled_from(WINDOW_PATTERNS),
        index_kind=st.sampled_from(["exact", "bloom"]),
    )
    def test_matches_gather_then_mask_on_random_graphs(
        self, graph, pattern_name, index_kind
    ):
        check_windows(graph, pattern_name, index_kind)


class TestCountOnClose:
    """Under an exact index a group whose one WHITE vertex completes the
    mapping is counted without being built: a count-only run never joins
    or materialises it, and a run that reads its instances gets them in
    the oracle's order."""

    @pytest.mark.parametrize("pattern_name", ["PG2", "PG3"])
    def test_count_only_builds_no_closing_child(self, monkeypatch, pattern_name):
        from repro.core import PSgL, batch_expand, run_reference
        from repro.core.psi import UNMAPPED

        joins, builds = [], []
        real_join = batch_expand._cross_product
        real_build = batch_expand._one_white_children

        def counted_join(sub_map, live, whites, *rest):
            unmapped = int((sub_map[0] == UNMAPPED).sum())
            joins.append(len(whites) == 1 and unmapped == 1)
            return real_join(sub_map, live, whites, *rest)

        def counted_build(*args):
            builds.append(1)
            return real_build(*args)

        monkeypatch.setattr(batch_expand, "_cross_product", counted_join)
        monkeypatch.setattr(batch_expand, "_one_white_children", counted_build)
        graph = rmat(8, seed=2)
        pattern = paper_patterns()[pattern_name]

        def psgl():
            return PSgL(graph, num_workers=4, edge_index="exact", seed=0)

        counted = psgl().run(pattern)
        assert counted.count > 0
        # No single-WHITE closing group was joined, and none was built.
        assert not any(joins) and not builds
        for flags in (dict(collect_instances=True), dict(count_per_vertex=True)):
            got = psgl().run(pattern, **flags)
            want = run_reference(psgl(), pattern, **flags)
            assert got.count == want.count == counted.count
            assert got.instances == want.instances  # order included
            assert got.per_vertex_counts == want.per_vertex_counts
            assert got.ledger.summary() == want.ledger.summary()
        # Reading the instances built the closing groups, joining none.
        assert builds and not any(joins)
