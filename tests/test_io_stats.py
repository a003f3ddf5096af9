"""Unit tests for edge-list I/O and degree statistics."""

import io

import pytest

from repro.exceptions import GraphFormatError
from repro.graph import (
    Graph,
    chung_lu_power_law,
    complete_graph,
    degree_distribution,
    degree_histogram,
    erdos_renyi,
    expected_nb_ns,
    fit_power_law_gamma,
    graph_from_string,
    read_edge_list,
    sampled_degree_distribution,
    skew_report,
    star_graph,
    write_edge_list,
)


class TestIO:
    def test_roundtrip(self, tmp_path):
        g = complete_graph(5)
        path = tmp_path / "k5.txt"
        write_edge_list(g, path)
        loaded, id_map = read_edge_list(path)
        assert loaded == g
        assert id_map == {i: i for i in range(5)}

    def test_comments_and_blank_lines(self):
        text = "# comment\n\n% other comment\n0 1\n1 2\n"
        g = graph_from_string(text)
        assert g.num_edges == 2

    def test_non_contiguous_ids_compacted(self):
        g, id_map = read_edge_list(io.StringIO("10 20\n20 30\n"))
        assert g.num_vertices == 3
        assert sorted(id_map.values()) == [10, 20, 30]

    def test_bad_token_raises(self):
        with pytest.raises(GraphFormatError):
            graph_from_string("0 x\n")

    def test_short_line_raises(self):
        with pytest.raises(GraphFormatError):
            graph_from_string("42\n")

    def test_stream_write(self):
        buf = io.StringIO()
        write_edge_list(complete_graph(3), buf)
        body = [l for l in buf.getvalue().splitlines() if not l.startswith("#")]
        assert body == ["0 1", "0 2", "1 2"]

    def test_extra_columns_ignored(self):
        g = graph_from_string("0 1 7.5\n1 2 3.0\n")
        assert g.num_edges == 2


class TestParserKnobs:
    """read_edge_list correctness knobs (dedup / self loops) and the
    vectorized parser's parity with the scalar fallback."""

    def test_duplicates_collapse_by_default(self):
        g, _ = read_edge_list(io.StringIO("0 1\n1 0\n0 1\n1 2\n"))
        assert g.num_edges == 2

    def test_dedup_false_raises_naming_edge(self):
        with pytest.raises(GraphFormatError, match=r"duplicate edge \(0, 1\)"):
            read_edge_list(io.StringIO("0 1\n1 0\n"), dedup=False)

    def test_dedup_false_clean_input_ok(self):
        g, _ = read_edge_list(io.StringIO("0 1\n1 2\n"), dedup=False)
        assert g.num_edges == 2

    def test_self_loop_raises_with_exact_line(self):
        with pytest.raises(GraphFormatError, match=r"self loop \(7, 7\) at line 3"):
            read_edge_list(io.StringIO("0 1\n1 2\n7 7\n"))

    def test_self_loop_line_counts_comments(self):
        """Line numbers refer to the file, comments and blanks included."""
        text = "# header\n\n0 1\n5 5\n"
        with pytest.raises(GraphFormatError, match="at line 4"):
            read_edge_list(io.StringIO(text))

    def test_self_loops_dropped_when_allowed(self):
        g, _ = read_edge_list(
            io.StringIO("0 1\n5 5\n1 2\n"), allow_self_loops=True
        )
        assert g.num_edges == 2

    def test_bad_token_names_line(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            read_edge_list(io.StringIO("0 1\nfoo bar\n"))

    def test_short_line_names_line(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            read_edge_list(io.StringIO("0 1\n1 2\n42\n"))

    def test_tiny_chunks_match_default(self, tmp_path):
        """Chunk boundaries (mid-line splits included) must not change
        the parse: a 7-byte chunk equals the default 16 MiB chunk."""
        from repro.graph.generators import erdos_renyi

        g = erdos_renyi(40, 0.15, seed=9)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        ref, ref_map = read_edge_list(path)
        tiny, tiny_map = read_edge_list(path, chunk_bytes=7)
        assert tiny == ref
        assert tiny_map == ref_map

    def test_extra_columns_with_tiny_chunks(self, tmp_path):
        """The scalar fallback (taken when a chunk has ragged columns)
        must agree with the fast path's leniency."""
        path = tmp_path / "g.txt"
        path.write_text("0 1 7.5\n1 2\n2 3 1.0 extra\n")
        ref, _ = read_edge_list(path)
        tiny, _ = read_edge_list(path, chunk_bytes=5)
        assert ref.num_edges == 3
        assert tiny == ref

    def test_negative_id_raises(self):
        with pytest.raises(GraphFormatError, match="negative"):
            read_edge_list(io.StringIO("0 -1\n"))

    def test_comment_lines_stay_on_the_vectorised_path(self, monkeypatch):
        """Regression: one ``#`` or ``%`` anywhere in a chunk sent the
        whole chunk to the per-line parser, and every SNAP file starts
        with a ``#`` header."""
        from repro.graph import io as graph_io

        def no_fallback(data, first_lineno):
            raise AssertionError("fell back to the scalar parser")

        monkeypatch.setattr(graph_io, "_parse_chunk_scalar", no_fallback)
        headed = "# Nodes: 3 Edges: 2\n# FromNodeId ToNodeId\n10 20\n20 30\n"
        assert read_edge_list(io.StringIO(headed)) == (
            Graph(3, [(0, 1), (1, 2)]), {0: 10, 1: 20, 2: 30}
        )
        mid = "0 1\n%a b\n  # indented comment\n\n1 2\n"
        assert read_edge_list(io.StringIO(mid))[0] == Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphFormatError, match=r"self loop \(5, 5\) at line 4"):
            read_edge_list(io.StringIO("# header\n\n0 1\n5 5\n"))
        with pytest.raises(GraphFormatError, match=r"\(-1, 2\) at line 3"):
            read_edge_list(io.StringIO("0 1\n% comment\n-1 2\n"))


class TestDegreeStats:
    def test_histogram(self):
        g = star_graph(5)
        assert degree_histogram(g) == {1: 4, 4: 1}

    def test_distribution_sums_to_one(self):
        g = erdos_renyi(100, 0.1, seed=0)
        assert abs(sum(degree_distribution(g).values()) - 1.0) < 1e-9

    def test_sampled_matches_full_when_large(self):
        g = complete_graph(10)
        assert sampled_degree_distribution(g, 100) == degree_distribution(g)

    def test_sampled_subset(self):
        g = erdos_renyi(200, 0.05, seed=1)
        dist = sampled_degree_distribution(g, 50, seed=2)
        assert abs(sum(dist.values()) - 1.0) < 1e-9

    def test_sampled_empty_graph(self):
        assert sampled_degree_distribution(Graph(0, []), 10) == {}


class TestPowerLawFit:
    def test_fit_recovers_exponent_roughly(self):
        g = chung_lu_power_law(5000, 2.5, avg_degree=8, seed=3)
        gamma = fit_power_law_gamma(g.degrees, d_min=4)
        assert gamma is not None
        assert 1.8 < gamma < 3.5

    def test_fit_insufficient_data(self):
        assert fit_power_law_gamma([1]) is None
        assert fit_power_law_gamma([]) is None

    def test_fit_uniform_degrees(self):
        # all identical values >= d_min: denominator positive, gamma huge
        gamma = fit_power_law_gamma([5] * 100, d_min=2)
        assert gamma is not None and gamma > 1.0

    def test_skew_report_property1(self):
        """Section 3: nb is more skewed (smaller gamma) than the degree
        distribution, ns less skewed (larger gamma)."""
        g = chung_lu_power_law(4000, 2.0, avg_degree=8, max_degree=200, seed=6)
        report = skew_report(g)
        assert report.property1_holds, (
            report.gamma_nb,
            report.gamma_degree,
            report.gamma_ns,
        )

    def test_expected_nb_ns_sums_to_degree(self):
        g = erdos_renyi(100, 0.1, seed=4)
        for v in [0, 10, 50]:
            nb, ns = expected_nb_ns(g, v)
            assert abs(nb + ns - g.degree(v)) < 1e-9
