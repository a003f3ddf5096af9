"""Tests for the binary ``.csrbin`` graph format and mmap loading.

Three guarantees under test:

1. **Fidelity** — ``write_csrbin``/``load_mapped`` round-trip a graph
   exactly, and the converter writes ``write_csrbin`` of the graph
   ``read_edge_list`` reads from the same file, byte for byte.
2. **Hostility** — corrupted files (truncated, wrong magic, wrong
   version, short body, flipped payload bytes) surface as
   :class:`~repro.exceptions.GraphFormatError`, never as numpy shape
   errors or silent garbage.
3. **Execution parity** — a PSgL run over a mapped graph is
   bit-identical to the same run over the in-memory copy of that graph,
   on every backend, and the process backend's lanes inherit the file
   mapping (no CSR copy).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cli import main
from repro.core import PSgL
from repro.exceptions import GraphFormatError
from repro.graph import (
    ConvertStats,
    convert_edge_list,
    load_mapped,
    read_edge_list,
    read_header,
    write_csrbin,
    write_edge_list,
)
from repro.graph.binfmt import HEADER_SIZE
from repro.graph.generators import chung_lu_power_law, erdos_renyi, rmat
from repro.pattern import paper_patterns
from repro.obs import Tracer


@pytest.fixture
def rmat_graph():
    return rmat(8, avg_degree=5.0, seed=7)


def file_edges(graph, id_map):
    """``graph``'s edges in the file's ids, as ``(min, max)`` pairs."""
    return {
        (min(id_map[u], id_map[v]), max(id_map[u], id_map[v]))
        for u, v in zip(*(a.tolist() for a in graph.edge_arrays()))
    }


def roundtrip(graph, tmp_path, name="g.csrbin", **load_kwargs):
    path = tmp_path / name
    write_csrbin(graph, path)
    return load_mapped(path, **load_kwargs)


class TestRoundtrip:
    def test_graph_equality(self, tmp_path, rmat_graph):
        mapped = roundtrip(rmat_graph, tmp_path)
        assert mapped == rmat_graph
        assert mapped.num_vertices == rmat_graph.num_vertices
        assert mapped.num_edges == rmat_graph.num_edges
        np.testing.assert_array_equal(mapped.degrees, rmat_graph.degrees)

    def test_mapped_arrays_are_file_backed_views(self, tmp_path, rmat_graph):
        mapped = roundtrip(rmat_graph, tmp_path)
        spec = mapped.mmap_spec
        assert spec is not None
        assert spec.indptr_offset == HEADER_SIZE
        # adjacency slices come straight out of the map, no copies
        assert not mapped.neighbors(0).flags.writeable

    def test_header_fields(self, tmp_path, rmat_graph):
        path = tmp_path / "g.csrbin"
        write_csrbin(rmat_graph, path)
        header = read_header(path)
        assert header.num_vertices == rmat_graph.num_vertices
        assert header.num_indices == 2 * rmat_graph.num_edges

    def test_checksum_verification_passes(self, tmp_path, rmat_graph):
        mapped = roundtrip(rmat_graph, tmp_path, verify_checksum=True)
        assert mapped == rmat_graph

    def test_empty_graph(self, tmp_path):
        from repro.graph import Graph

        mapped = roundtrip(Graph(3, []), tmp_path)
        assert mapped.num_vertices == 3
        assert mapped.num_edges == 0


class TestConverter:
    def test_matches_read_edge_list(self, tmp_path, rmat_graph):
        src = tmp_path / "edges.txt"
        write_edge_list(rmat_graph, src)
        ref, _ = read_edge_list(src)
        stats = convert_edge_list(src, tmp_path / "g.csrbin")
        assert isinstance(stats, ConvertStats)
        mapped = load_mapped(tmp_path / "g.csrbin")
        assert mapped == ref
        assert stats.num_vertices == ref.num_vertices
        assert stats.num_edges == ref.num_edges

    def test_tiny_chunks_same_output(self, tmp_path, rmat_graph):
        """Chunk boundaries must be invisible: a 64-byte text chunk and
        the default 1 MiB chunk produce byte-identical files."""
        src = tmp_path / "edges.txt"
        write_edge_list(rmat_graph, src)
        convert_edge_list(src, tmp_path / "big.csrbin")
        convert_edge_list(src, tmp_path / "small.csrbin", chunk_bytes=64)
        assert (tmp_path / "big.csrbin").read_bytes() == (
            tmp_path / "small.csrbin"
        ).read_bytes()

    def test_non_contiguous_ids_compact_like_reader(self, tmp_path):
        src = tmp_path / "edges.txt"
        src.write_text("10 20\n20 900\n900 10\n")
        ref, _ = read_edge_list(src)
        convert_edge_list(src, tmp_path / "g.csrbin")
        assert load_mapped(tmp_path / "g.csrbin") == ref

    def test_duplicates_collapse_by_default(self, tmp_path):
        src = tmp_path / "edges.txt"
        src.write_text("0 1\n1 0\n0 1\n1 2\n")
        stats = convert_edge_list(src, tmp_path / "g.csrbin")
        assert stats.num_edges == 2
        assert stats.duplicates_dropped == 2

    def test_no_dedup_raises(self, tmp_path):
        src = tmp_path / "edges.txt"
        src.write_text("0 1\n1 0\n")
        with pytest.raises(GraphFormatError, match="duplicate edge"):
            convert_edge_list(src, tmp_path / "g.csrbin", dedup=False)

    def test_no_dedup_names_original_ids_like_reader(self, tmp_path):
        src = tmp_path / "edges.txt"
        src.write_text("10 20\n20 30\n30 10\n20 10\n")
        with pytest.raises(GraphFormatError) as read:
            read_edge_list(src, dedup=False)
        with pytest.raises(GraphFormatError) as converted:
            convert_edge_list(src, tmp_path / "g.csrbin", dedup=False)
        assert "duplicate edge (10, 20);" in str(converted.value)
        assert str(converted.value) == str(read.value)

    def test_self_loop_raises_with_line(self, tmp_path):
        src = tmp_path / "edges.txt"
        src.write_text("0 1\n5 5\n1 2\n")
        with pytest.raises(GraphFormatError, match=r"self loop \(5, 5\) at line 2"):
            convert_edge_list(src, tmp_path / "g.csrbin")

    def test_self_loops_dropped_when_allowed(self, tmp_path):
        src = tmp_path / "edges.txt"
        src.write_text("0 1\n5 5\n1 2\n")
        stats = convert_edge_list(
            src, tmp_path / "g.csrbin", allow_self_loops=True
        )
        assert stats.self_loops_dropped == 1
        assert stats.num_edges == 2

    def test_negative_id_raises_with_line(self, tmp_path):
        src = tmp_path / "edges.txt"
        src.write_text("0 1\n2 -3\n")
        with pytest.raises(GraphFormatError, match="at line 2"):
            convert_edge_list(src, tmp_path / "g.csrbin")

    def test_sparse_ids_convert_like_reader(self, tmp_path):
        """Ids far above the edge count compact by sorting: no table is
        sized by the largest id (4e10 ids would be 37 GiB of them)."""
        src = tmp_path / "edges.txt"
        src.write_text("# sparse\n1 40000000000\n40000000000 7\n7 1\n3 7\n")
        ref, id_map = read_edge_list(src)
        stats = convert_edge_list(src, tmp_path / "g.csrbin")
        assert load_mapped(tmp_path / "g.csrbin") == ref
        assert id_map == {0: 1, 1: 3, 2: 7, 3: 40000000000}
        assert file_edges(ref, id_map) == {
            (1, 40000000000), (7, 40000000000), (1, 7), (3, 7)
        }
        assert (stats.num_vertices, stats.num_edges) == (4, 4)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=30
        ),
        reversed_dupes=st.integers(0, 5),
        comments=st.lists(st.sampled_from(["# c", "% c", ""]), max_size=4),
        # 1 keeps ids dense (the id table); 3 straddles the cut-over at
        # twice the ids read; 1e10 is far past it (the sort).
        spread=st.sampled_from([1, 3, 10**10]),
        chunk_bytes=st.sampled_from([7, 64, 1 << 20]),
    )
    def test_equals_write_csrbin_of_the_reader(
        self, tmp_path, edges, reversed_dupes, comments, spread, chunk_bytes
    ):
        """``convert_edge_list`` is ``write_csrbin(read_edge_list(...))``,
        byte for byte, on duplicates, reversed duplicates, comment lines
        and self loops, with ids on both sides of the table/sort cut-over."""
        edges = [(u * spread, v * spread) for u, v in edges]
        edges += [(v, u) for u, v in edges[:reversed_dupes]]
        lines = [f"{u} {v}" for u, v in edges]
        for at, comment in enumerate(comments):
            lines.insert(at * 3, comment)
        src = tmp_path / "edges.txt"
        src.write_text("\n".join(lines) + "\n")
        ref, id_map = read_edge_list(src, allow_self_loops=True)
        assert file_edges(ref, id_map) == {
            (min(u, v), max(u, v)) for u, v in edges if u != v
        }
        write_csrbin(ref, tmp_path / "ref.csrbin")
        stats = convert_edge_list(
            src, tmp_path / "g.csrbin",
            allow_self_loops=True, chunk_bytes=chunk_bytes,
        )
        written = (tmp_path / "g.csrbin").read_bytes()
        assert written == (tmp_path / "ref.csrbin").read_bytes()
        loops = sum(u == v for u, v in edges)
        assert stats == ConvertStats(
            num_vertices=ref.num_vertices,
            num_edges=ref.num_edges,
            raw_edges=len(edges),
            duplicates_dropped=len(edges) - loops - ref.num_edges,
            self_loops_dropped=loops,
            output_bytes=len(written),
        )


class TestCorruptFiles:
    """Every corruption mode fails as a GraphFormatError with the path
    in the message — the contract the CLI's exit-code 4 relies on."""

    @pytest.fixture
    def good(self, tmp_path, rmat_graph):
        path = tmp_path / "g.csrbin"
        write_csrbin(rmat_graph, path)
        return path

    def test_truncated_header(self, tmp_path, good):
        bad = tmp_path / "trunc.csrbin"
        bad.write_bytes(good.read_bytes()[: HEADER_SIZE - 8])
        with pytest.raises(GraphFormatError, match="truncated header"):
            load_mapped(bad)

    def test_bad_magic(self, tmp_path, good):
        raw = bytearray(good.read_bytes())
        raw[0:8] = b"GARBAGE!"
        bad = tmp_path / "magic.csrbin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(GraphFormatError, match="bad magic"):
            load_mapped(bad)

    def test_version_mismatch(self, tmp_path, good):
        raw = bytearray(good.read_bytes())
        raw[8:10] = (99).to_bytes(2, "little")
        bad = tmp_path / "vers.csrbin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(GraphFormatError, match="version"):
            load_mapped(bad)

    def test_truncated_body(self, tmp_path, good):
        raw = good.read_bytes()
        bad = tmp_path / "short.csrbin"
        bad.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(GraphFormatError):
            load_mapped(bad)

    def test_checksum_flip_detected(self, tmp_path, good):
        raw = bytearray(good.read_bytes())
        raw[-1] ^= 0xFF  # flip a payload byte, leave the header intact
        bad = tmp_path / "flip.csrbin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(GraphFormatError, match="checksum"):
            load_mapped(bad, verify_checksum=True)
        # without verification the map still opens (lazy by design)
        load_mapped(bad)

    def test_non_monotone_indptr(self, tmp_path, good):
        # Endpoints intact, interior out of order: used to load with
        # negative degrees.
        raw = bytearray(good.read_bytes())
        raw[HEADER_SIZE + 8:HEADER_SIZE + 16] = (1 << 40).to_bytes(8, "little")
        bad = tmp_path / "order.csrbin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(GraphFormatError, match="order.csrbin.*non-decreasing"):
            load_mapped(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphFormatError):
            load_mapped(tmp_path / "nope.csrbin")

    def test_not_an_edge_list(self, tmp_path):
        src = tmp_path / "bad.txt"
        src.write_text("0 x\n")
        with pytest.raises(GraphFormatError):
            convert_edge_list(src, tmp_path / "g.csrbin")


class TestMappedExecution:
    """PSgL over a mapped graph == PSgL over the same graph in memory."""

    def run_pair(self, tmp_path, backend, **kwargs):
        graph = erdos_renyi(30, 0.22, seed=11)
        path = tmp_path / "g.csrbin"
        write_csrbin(graph, path)
        mapped = load_mapped(path)
        pattern = paper_patterns()["PG2"]
        ref = PSgL(graph, num_workers=4, strategy="WA,0.5", seed=3).run(
            pattern, collect_instances=True
        )
        other = PSgL(
            mapped, num_workers=4, strategy="WA,0.5", seed=3, backend=backend, **kwargs
        ).run(pattern, collect_instances=True)
        return ref, other

    def assert_parity(self, ref, other):
        assert other.count == ref.count
        assert sorted(other.instances) == sorted(ref.instances)
        assert other.ledger.summary() == ref.ledger.summary()

    def test_serial(self, tmp_path):
        self.assert_parity(*self.run_pair(tmp_path, "serial"))

    def test_thread(self, tmp_path):
        """The thread backend is retired: this leg maps the file into
        three process lanes (the process leg runs two)."""
        self.assert_parity(*self.run_pair(tmp_path, "process", procs=3))

    def test_process(self, tmp_path):
        self.assert_parity(
            *self.run_pair(tmp_path, "process", procs=2, wire="columnar")
        )

    def test_export_ships_path_not_copy(self, tmp_path):
        graph = chung_lu_power_law(40, gamma=2.5, avg_degree=4, seed=5)
        path = tmp_path / "g.csrbin"
        write_csrbin(graph, path)
        mapped = load_mapped(path)
        assert mapped.mmap_spec.path == str(path)
        tracer = Tracer()
        PSgL(mapped, num_workers=3, backend="process", procs=2, trace=tracer).count(
            paper_patterns()["PG1"]
        )
        (event,) = tracer.by_kind("export")
        # The lanes inherit the mapping: the file, not a CSR copy.
        assert "mapped_file" in event.data
        assert "indptr" not in event.data
        # The edge-key table and the rank-keyed adjacency are built from
        # the mapping before the fork and shipped beside the order arrays.
        n, m = mapped.num_vertices, mapped.num_edges
        assert event.data["mapped_file"] == 8 * (n + 1 + 2 * m)
        assert event.data["aux"] == (
            8 * (3 * n + 2 * m) + 4 * n + mapped.edge_table().slots.nbytes
        )

    def test_export_trace_event_reports_mapped_file(self, tmp_path):
        graph = erdos_renyi(25, 0.2, seed=2)
        path = tmp_path / "g.csrbin"
        write_csrbin(graph, path)
        mapped = load_mapped(path)
        tracer = Tracer()
        PSgL(
            mapped,
            num_workers=3,
            seed=1,
            backend="process",
            procs=2,
            wire="columnar",
            trace=tracer,
        ).run(paper_patterns()["PG1"])
        exports = tracer.by_kind("export")
        assert exports and "mapped_file" in exports[0].data


class TestConvertCLI:
    def test_convert_then_count(self, tmp_path, capsys):
        graph = erdos_renyi(20, 0.3, seed=4)
        src = tmp_path / "edges.txt"
        write_edge_list(graph, src)
        out = tmp_path / "g.csrbin"
        assert main(["convert", str(src), str(out)]) == 0
        text = capsys.readouterr().out
        assert "vertices" in text and out.exists()
        ref = PSgL(graph, num_workers=4, seed=0).run(paper_patterns()["PG1"])
        assert (
            main(["count", "--pattern", "PG1", "--csrbin", str(out)]) == 0
        )
        assert f"instances  : {ref.count:,}" in capsys.readouterr().out

    def test_convert_self_loop_exit_4(self, tmp_path, capsys):
        src = tmp_path / "edges.txt"
        src.write_text("1 1\n")
        assert main(["convert", str(src), str(tmp_path / "g.csrbin")]) == 4
        assert "self loop" in capsys.readouterr().err

    def test_count_corrupt_csrbin_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.csrbin"
        bad.write_bytes(b"\x00" * 128)
        code = main(["count", "--pattern", "PG1", "--csrbin", str(bad)])
        assert code == 4
        assert "error" in capsys.readouterr().err
