"""Unit tests for edge-list I/O and degree statistics."""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
        the parse: a 7-byte chunk equals the default 1 MiB chunk."""
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


    def test_id_outside_int64_names_the_line(self):
        """An id past ``int64`` used to escape as a raw ``OverflowError``;
        the fast path's one-call conversion would clamp it silently."""
        for text, line in (
            ("0 1\n1 99999999999999999999\n", 2),
            ("9223372036854775808 1\n", 1),
            ("# c\n0 1\n-9223372036854775809 2\n", 3),
        ):
            with pytest.raises(GraphFormatError, match=f"^line {line}: id outside"):
                read_edge_list(io.StringIO(text))
        g, id_map = read_edge_list(io.StringIO("9223372036854775807 0\n"))
        assert id_map == {0: 0, 1: 2**63 - 1}

    def test_malformed_line_after_a_comment_names_its_own_line(self):
        """The fast path cuts comment lines out before converting; the
        checked path must still see them, or line numbers shift."""
        with pytest.raises(GraphFormatError, match=r"^line 3: non-integer id"):
            read_edge_list(io.StringIO("# c\n0 1\n1 x\n"))


def _token():
    """One id-like token: a decimal with an optional sign and leading
    zeros, sometimes 18-20 digits long, or a token ``int()`` refuses."""
    number = st.builds(
        "{}{}{}".format,
        st.sampled_from(["", "", "", "+", "-"]),
        st.sampled_from(["", "", "0", "00"]),
        st.one_of(
            st.integers(0, 999),
            st.integers(10**17, 10**20),
            st.sampled_from([2**63 - 1, 2**63, 10**19]),
        ),
    )
    junk = st.sampled_from(
        ["x", "1_0", "1.5", "0x1", "-", "+", "--1", "+-2", "1-2", "3+", "#"]
    )
    return st.one_of(number, number, number, junk)


_SEPARATOR = st.sampled_from([" ", " ", "\t", "\x0b", "\x0c", "  "])
_LINE = st.one_of(
    # Mostly well-formed pairs, so that whole chunks take the fast path.
    st.builds("{}{}{}".format, st.integers(0, 99), _SEPARATOR,
              st.integers(0, 99)),
    st.builds("{}{}{}".format, st.integers(0, 99), _SEPARATOR,
              st.integers(0, 99)),
    st.lists(_token(), min_size=2, max_size=2).map(" ".join),
    st.lists(_token(), min_size=1, max_size=4).map("\t".join),
    st.builds("{}{}".format, st.sampled_from(["#", "%"]),
              st.text(alphabet=" \t-+#%x0123456789", max_size=8)),
    st.just(""),
)
_CHUNK = st.lists(
    st.tuples(
        st.sampled_from(["", "", " ", "\t", "\x0c"]),
        _LINE,
        st.sampled_from(["", "", " ", "\t"]),
        st.sampled_from(["\n", "\n", "\r\n", "\r"]),
    ),
    max_size=8,
).map(lambda lines: "".join("".join(parts) for parts in lines))


def _outcome(read):
    """What ``read()`` gave: its arrays as lists, or its error text."""
    try:
        return "ok", [a.tolist() if isinstance(a, np.ndarray) else a
                      for a in read()]
    except GraphFormatError as exc:
        return "error", str(exc)


class TestParserParity:
    """The vectorised parser against the per-line one, as the contract:
    any chunk it cannot prove well-formed must go to the checked path."""

    @settings(max_examples=400, deadline=None)
    @given(chunk=_CHUNK, unterminated=st.booleans(), first=st.integers(1, 50))
    def test_fast_path_equals_the_scalar_parser(self, chunk, unterminated, first):
        """Same pairs and line numbers, or the same error text: over
        tabs, ``\\r\\n``, lone ``\\r``, ``\\v``, ``\\f``, blank and
        comment lines, signs, leading zeros, 18-20 digit ids, extra
        columns and non-digit tokens."""
        from repro.graph.io import _parse_chunk, _parse_chunk_scalar

        if unterminated:
            chunk = chunk.rstrip("\r\n")
        data = chunk.encode()
        assert _outcome(lambda: _parse_chunk(data, first)) == _outcome(
            lambda: _parse_chunk_scalar(data, first)
        )

    @settings(max_examples=100, deadline=None)
    @given(chunk=_CHUNK)
    def test_chunk_size_does_not_change_the_read(self, chunk):
        """``read_edge_list`` at 7-byte, 64-byte and 1 MiB chunks: the
        same graph and id map, or the same format error at every size
        (the fault on the earliest line, wherever a chunk ends)."""
        reads = [
            _outcome(lambda: read_edge_list(
                io.BytesIO(chunk.encode()), allow_self_loops=True,
                chunk_bytes=size,
            ))
            for size in (7, 64, 1 << 20)
        ]
        assert reads[0] == reads[1] == reads[-1]


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
