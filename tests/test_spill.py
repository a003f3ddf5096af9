"""Tests for the out-of-core spill plane of the columnar shuffle.

The contract under test is the one ``docs/scale.md`` promises: setting
``spill_dir``/``memory_watermark_bytes`` changes *where sealed chunks
wait* between send and delivery — never what the run computes.  A run
that spills every chunk (watermark = 1 byte) must be bit-identical to
the unbounded in-memory run: same count, same instances, same ledger
summary (the every-backend, both-shuffles sweep of that is part of
``tests/test_plane_parity.py``).

Also covered: the spill observability surface (``chunk_spill``/
``chunk_map`` trace events, ledger counters, the straggler report
line), knob validation, cleanup of spill files, and the mid-run
deletion failure mode (a vanished spill file must surface as a clean
:class:`~repro.exceptions.EngineError`).
"""

import os

import numpy as np
import pytest

from repro.bsp import ExecutionConfig
from repro.bsp.spill import SpillManager, SpillRef
from repro.core import GpsiColumns, PSgL
from repro.core.codec import encode_columns
from repro.exceptions import EngineError
from repro.graph import Graph, Partition
from repro.graph.generators import erdos_renyi, rmat
from repro.obs import Tracer, straggler_report
from repro.pattern import paper_patterns

from .parity import assert_equivalent, assert_illegal, reference_run

GRAPH = erdos_renyi(30, 0.22, seed=11)
PATTERN = paper_patterns()["PG2"]


def run_listing(spill_dir, watermark):
    """One traced spilling run, for the mechanism tests."""
    tracer = Tracer()
    result = PSgL(
        GRAPH,
        num_workers=4,
        seed=3,
        spill_dir=str(spill_dir),
        memory_watermark_bytes=watermark,
        trace=tracer,
    ).run(PATTERN)
    return result, tracer


@pytest.fixture(scope="module")
def reference():
    return reference_run(GRAPH, "PG2", seed=3)


class TestSpillParity:
    """Forced spill (watermark = 1 byte) on every backend and shuffle is
    part of the plane matrix in ``tests/test_plane_parity.py``; this
    keeps the partial regime."""

    def test_intermediate_watermark(self, tmp_path, reference):
        """A watermark between 0 and the peak spills some chunks but not
        all — the partial regime must be as exact as the total one."""
        assert_equivalent(
            ExecutionConfig(
                spill_dir=str(tmp_path), memory_watermark_bytes=64 * 1024
            ),
            reference,
        )


class TestSpillObservability:
    def test_events_and_ledger_agree(self, tmp_path):
        result, tracer = run_listing(tmp_path, 1)
        spills = tracer.by_kind("chunk_spill")
        maps = tracer.by_kind("chunk_map")
        assert len(spills) == result.ledger.spill_chunks
        assert len(maps) == result.ledger.spill_chunks_mapped
        # every spilled chunk is re-mapped exactly once
        assert len(maps) == len(spills)
        assert result.ledger.spill_bytes == sum(
            e.data["bytes"] for e in spills
        )
        assert result.ledger.spill_bytes_mapped == result.ledger.spill_bytes

    def test_spill_events_name_the_sending_worker(self, tmp_path):
        """Regression: under strict shuffle a spilled chunk used to be
        tagged with its *arrival slot*, so once an earlier worker's
        outbox was empty every later event named the wrong worker.
        Worker 0 owns only isolated vertices here — it never sends —
        and a 1-byte watermark spills every chunk of workers 1..3."""
        n = GRAPH.num_vertices
        graph = Graph(n + 4, list(GRAPH.edges()))
        owner = np.concatenate([1 + np.arange(n) % 3, np.zeros(4, dtype=np.int64)])
        tracer = Tracer()
        result = PSgL(
            graph,
            num_workers=4,
            partition=Partition(owner, 4),
            seed=3,
            spill_dir=str(tmp_path),
            memory_watermark_bytes=1,
            trace=tracer,
        ).run(PATTERN)
        assert result.count == PSgL(GRAPH, num_workers=4, seed=3).run(PATTERN).count
        senders = {
            (e.superstep, e.worker)
            for e in tracer.by_kind("worker")
            if e.data["messages"]
        }
        assert {w for _, w in senders} == {1, 2, 3}
        for kind in ("chunk_spill", "chunk_map"):
            events = tracer.by_kind(kind)
            assert {(e.superstep, e.worker) for e in events} == senders
            assert all(e.data["seq"] == 0 for e in events)

    def test_summary_excludes_spill_counters(self, tmp_path, reference):
        """summary() must not leak spill volume, or parity comparisons
        between spilled and in-memory runs would break by design."""
        result, _ = run_listing(tmp_path, 1)
        assert result.ledger.spill_chunks > 0
        assert result.ledger.summary() == reference.result.ledger.summary()

    def test_straggler_report_mentions_spill(self, tmp_path):
        _, tracer = run_listing(tmp_path, 1)
        report = straggler_report(tracer)
        assert "spill plane" in report
        assert "re-mapped at delivery" in report

    def test_no_spill_no_events(self, tmp_path):
        result, tracer = run_listing(tmp_path, 1 << 40)
        assert result.ledger.spill_chunks == 0
        assert not tracer.by_kind("chunk_spill")
        report = straggler_report(tracer)
        assert "spill plane" not in report

    def test_barrier_events_carry_deltas(self, tmp_path):
        _, tracer = run_listing(tmp_path, 1)
        barrier_totals = sum(
            e.data.get("spill_chunks", 0) for e in tracer.by_kind("barrier")
        )
        assert barrier_totals == len(tracer.by_kind("chunk_spill"))

    def test_spill_dir_cleaned_up(self, tmp_path):
        run_listing(tmp_path, 1)
        # the private run directory is removed; the parent stays
        assert list(tmp_path.iterdir()) == []


class TestKnobValidation:
    def test_spill_dir_alone_rejected(self, tmp_path):
        assert_illegal(dict(spill_dir=str(tmp_path)), "both or neither")

    def test_watermark_alone_rejected(self):
        assert_illegal(dict(memory_watermark_bytes=1), "both or neither")

    def test_object_wire_rejected(self, tmp_path):
        # The object plane is gone: naming it is an unknown wire, and
        # the refusal points at the one plane.
        assert_illegal(
            dict(wire="object", spill_dir=str(tmp_path), memory_watermark_bytes=1),
            "wire='columnar'",
        )

    def test_non_positive_watermark_rejected(self, tmp_path):
        assert_illegal(
            dict(spill_dir=str(tmp_path), memory_watermark_bytes=0), ">= 1"
        )


def _sample_columns(n=8, k=4):
    mapping = np.arange(n * k, dtype=np.int64).reshape(n, k)
    black = np.ones((n, 1), dtype=np.uint32)
    next_vertex = np.full(n, 2, dtype=np.uint8)
    return GpsiColumns(mapping, black, next_vertex)


class TestSpillFileFailures:
    """Disk-level failures surface as EngineError, not numpy garbage."""

    def test_deleted_spill_file_is_engine_error(self, tmp_path):
        manager = SpillManager(str(tmp_path), watermark_bytes=1)
        try:
            spill = manager.for_superstep(0)
            columns = _sample_columns()
            ref = spill.spill(0, 0, columns)
            assert isinstance(ref, SpillRef)
            os.unlink(spill.path)
            with pytest.raises(EngineError, match="vanished mid-run"):
                spill.load(0, 0, ref)
        finally:
            manager.close()

    def test_truncated_spill_file_is_engine_error(self, tmp_path):
        manager = SpillManager(str(tmp_path), watermark_bytes=1)
        try:
            spill = manager.for_superstep(0)
            columns = _sample_columns()
            ref = spill.spill(0, 0, columns)
            spill.close()  # flush the write handle; the file stays
            with open(spill.path, "r+b") as fh:
                fh.truncate(ref.nbytes // 2)
            with pytest.raises(EngineError, match="truncated mid-run"):
                spill.load(0, 0, ref)
        finally:
            manager.close()

    def test_roundtrip_is_exact(self, tmp_path):
        manager = SpillManager(str(tmp_path), watermark_bytes=1)
        try:
            spill = manager.for_superstep(0)
            columns = _sample_columns()
            ref = spill.spill(1, 2, columns)
            # The record is the encoded columns alone: no dest prefix.
            assert ref.nbytes == len(encode_columns(columns))
            got_columns = spill.load(1, 2, ref)
            np.testing.assert_array_equal(
                got_columns.destinations(), columns.destinations()
            )
            np.testing.assert_array_equal(got_columns.mapping, columns.mapping)
            np.testing.assert_array_equal(got_columns.black, columns.black)
            np.testing.assert_array_equal(
                got_columns.next_vertex, columns.next_vertex
            )
        finally:
            manager.close()


@pytest.mark.skipif(
    not os.environ.get("RUN_SCALE18"),
    reason="scale-18 out-of-core sweep is minutes of wall time; "
    "set RUN_SCALE18=1 to run (CI smoke covers a smaller scale)",
)
def test_scale18_out_of_core_parity(tmp_path):
    """ISSUE acceptance: PG2 on R-MAT scale 18 via .csrbin + mmap with a
    sub-footprint watermark spills and still matches in-memory."""
    from repro.graph import load_mapped, write_edge_list
    from repro.graph.binfmt import convert_edge_list

    graph = rmat(18, avg_degree=8.0, seed=1)
    src = tmp_path / "edges.txt"
    write_edge_list(graph, src)
    convert_edge_list(src, tmp_path / "g.csrbin")
    mapped = load_mapped(tmp_path / "g.csrbin")
    pattern = paper_patterns()["PG2"]
    ref = PSgL(
        mapped, num_workers=4, seed=3
    ).run(pattern)
    spilled = PSgL(
        mapped,
        num_workers=4,
        seed=3,
        shuffle="pipelined",
        spill_dir=str(tmp_path / "spill"),
        memory_watermark_bytes=1 << 20,
    ).run(pattern)
    assert spilled.count == ref.count
    assert spilled.ledger.summary() == ref.ledger.summary()
    assert spilled.ledger.spill_chunks >= 1
