"""The spill plane is retired: one in-memory barrier store.

The barrier store once evicted sealed chunks to disk past a
resident-bytes watermark.  Since instances close where they are
generated and every outbox crosses the barrier whole, the store is no
longer where a job's memory goes, and spilling raised the peak instead
of bounding it (``docs/perf.md``, "Spill plane").  So the plane is gone:
``spill_dir`` and ``memory_watermark_bytes`` are refused by name on
every surface, the store takes one outbox per sender, and no byte
codec is left: the packed columns are the one wire format.

This file keeps the spill plane's test ids where a behaviour is left to
check — the refusals, a trace and a ledger with no spill in them, the
store's one outbox per sender — and the out-of-core half that stays:
a memory-mapped ``.csrbin`` graph lists what the in-memory graph lists.
"""

import importlib
import inspect
import json
import os

import numpy as np
import pytest

import repro.core
from repro.bsp.message import deliver
from repro.cli import main
from repro.core import PSgL
from repro.exceptions import EngineError
from repro.graph import Graph, Partition, complete_graph
from repro.graph.generators import erdos_renyi, rmat
from repro.obs import Tracer, straggler_report
from repro.pattern import paper_patterns
from repro.service import running_service

from .parity import assert_illegal, assert_outboxes_cross_whole, reference_run

GRAPH = erdos_renyi(30, 0.22, seed=11)
PATTERN = paper_patterns()["PG2"]

#: The refusal's hint, as every surface words it.
RETIRED = r"not an execution field \(the spill plane is retired"


def run_traced():
    """One traced run, for the trace and ledger tests."""
    tracer = Tracer()
    result = PSgL(GRAPH, num_workers=4, seed=3, trace=tracer).run(PATTERN)
    return result, tracer


@pytest.fixture(scope="module")
def reference():
    return reference_run(GRAPH, "PG2", seed=3)


class TestSpillObservability:
    """A trace and a ledger carry no spill: no event kind, no barrier
    field, no counter, no report line."""

    def test_events_and_ledger_agree(self):
        """The barrier events' bytes are the ledger's wire bytes."""
        result, tracer = run_traced()
        barriers = tracer.by_kind("barrier")
        assert sum(e.data["wire_bytes"] for e in barriers) == (
            result.ledger.total_wire_bytes()
        )
        assert max(e.data["live_messages"] for e in barriers) == (
            result.ledger.peak_live_messages
        )

    def test_spill_events_name_the_sending_worker(self):
        """The store is keyed by sender: worker 0 owns only isolated
        vertices here and never sends, and every barrier merged exactly
        one outbox per worker that did."""
        n = GRAPH.num_vertices
        graph = Graph(n + 4, list(GRAPH.edges()))
        owner = np.concatenate([1 + np.arange(n) % 3, np.zeros(4, dtype=np.int64)])
        tracer = Tracer()
        result = PSgL(
            graph,
            num_workers=4,
            partition=Partition(owner, 4),
            seed=3,
            trace=tracer,
        ).run(PATTERN)
        assert result.count == PSgL(GRAPH, num_workers=4, seed=3).run(PATTERN).count
        senders = {e.worker for e in tracer.by_kind("worker") if e.data["messages"]}
        assert senders == {1, 2, 3}
        assert_outboxes_cross_whole(tracer, result)

    def test_summary_excludes_spill_counters(self, reference):
        result, _ = run_traced()
        assert not [name for name in vars(result.ledger) if "spill" in name]
        assert result.ledger.summary() == reference.result.ledger.summary()

    def test_no_spill_no_events(self):
        _, tracer = run_traced()
        assert not {e.kind for e in tracer.events} & {"chunk_spill", "chunk_map"}
        assert "memory_watermark_bytes" not in tracer.meta
        assert "spill" not in straggler_report(tracer)

    def test_barrier_events_carry_deltas(self):
        """Each barrier carries its own bytes and chunks, and nothing
        about a disk."""
        _, tracer = run_traced()
        for event in tracer.by_kind("barrier"):
            assert {"wire_bytes", "chunks", "max_chunk_bytes"} <= set(event.data)
            assert not [key for key in event.data if "spill" in key]

    def test_spill_dir_cleaned_up(self, tmp_path):
        """``PSgL(g, spill_dir=...)`` is refused at construction, naming
        the retirement, and nothing is created in the directory."""
        with pytest.raises(EngineError, match=RETIRED):
            PSgL(GRAPH, num_workers=4, spill_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []


class TestKnobValidation:
    def test_spill_dir_alone_rejected(self, tmp_path):
        assert_illegal(dict(spill_dir=str(tmp_path)), "unknown spill_dir: " + RETIRED)

    def test_watermark_alone_rejected(self):
        assert_illegal(
            dict(memory_watermark_bytes=1), "unknown memory_watermark_bytes: " + RETIRED
        )

    def test_object_wire_rejected(self):
        # The object plane is gone: naming it is an unknown wire, and
        # the refusal points at the one plane.
        assert_illegal(dict(wire="object"), "wire='columnar'")

    def test_non_positive_watermark_rejected(self, tmp_path):
        """A retired field is refused by name before its value is read."""
        assert_illegal(
            dict(spill_dir=str(tmp_path), memory_watermark_bytes=0),
            "unknown spill_dir: " + RETIRED,
        )


class TestOneBarrierStore:
    def test_the_spill_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.bsp.spill")

    def test_merge_chunk_takes_one_outbox_per_sender(self):
        """The barrier is one function over every sender's outbox, in
        worker-id order, and no store object is left to merge into."""
        parameters = inspect.signature(deliver).parameters
        assert list(parameters) == ["outboxes", "owner_of", "num_workers"]
        assert not hasattr(repro.bsp.message, "ChunkedColumnarStore")

    def test_the_columnar_byte_codec_is_gone(self):
        """No codec module is left, columnar or scalar: the wire format is
        the packed columns, sized by the ledger's wire bytes."""
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.codec")
        for name in ("encode_columns", "decode_columns", "map_columns",
                     "encode_batch", "decode_batch", "batch_encoded_size",
                     "encode_gpsi", "decode_gpsi", "encoded_size",
                     "encoded_size_batch", "CodecError"):
            assert name not in repro.core.__all__, name

    def test_serve_has_no_spill_flags(self, capsys):
        for flags in (["--memory-watermark-bytes", "1"], ["--spill-dir", "x"]):
            with pytest.raises(SystemExit) as refused:
                main(["serve", "--dataset", "x"] + flags)
            assert refused.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_post_jobs_refuses_both_fields_by_name(self):
        with running_service(complete_graph(4)) as (client, _):
            for name, value in (("spill_dir", "/unused"), ("memory_watermark_bytes", 1)):
                status, text = client._request(
                    "POST", "/jobs", {"pattern": "PG1", name: value}
                )
                error = json.loads(text)["error"]
                assert (status, error["type"]) == (400, "QuerySpecError")
                assert "spill plane is retired" in error["message"]


@pytest.mark.skipif(
    not os.environ.get("RUN_SCALE18"),
    reason="scale-18 out-of-core sweep is minutes of wall time; "
    "set RUN_SCALE18=1 to run (CI smoke covers a smaller scale)",
)
def test_scale18_out_of_core_parity(tmp_path):
    """PG2 on R-MAT scale 18 through an edge list, ``psgl convert``'s
    ``.csrbin`` and ``load_mapped`` lists exactly what the same edge list
    read into memory lists."""
    from repro.graph import load_mapped, read_edge_list, write_edge_list
    from repro.graph.binfmt import convert_edge_list

    src = tmp_path / "edges.txt"
    write_edge_list(rmat(18, avg_degree=8.0, seed=1), src)
    convert_edge_list(src, tmp_path / "g.csrbin")
    mapped = load_mapped(tmp_path / "g.csrbin", verify_checksum=True)
    graph, _ = read_edge_list(src)
    assert mapped.mmap_spec is not None
    in_memory = PSgL(graph, num_workers=4, seed=3).run(PATTERN)
    out_of_core = PSgL(mapped, num_workers=4, seed=3).run(PATTERN)
    assert out_of_core.count == in_memory.count
    assert out_of_core.ledger.summary() == in_memory.ledger.summary()
