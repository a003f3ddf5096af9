"""Ablation — communication volume of the packed Gpsi rows.

Section 6: the messages carry the Gpsi plus its status information, and
the Gpsi stream dominates PSgL's network traffic.  This bench reads the
wire volume the barrier measured (``CostLedger.total_wire_bytes``) per
pattern and shows (a) the index slashes bytes as well as counts, and
(b) every message is one fixed-width packed row: ``8k`` bytes of
mapping, ``4 * ceil(k / 32)`` of BLACK mask and one next-vertex byte for
a ``k``-vertex pattern, exactly.
"""

from conftest import run_once

from repro.bench import format_table, load_dataset
from repro.core import PSgL
from repro.pattern import paper_patterns


def row_bytes(k):
    """Wire bytes of one packed Gpsi row of a ``k``-vertex pattern."""
    return 8 * k + 4 * -(-k // 32) + 1


def _sweep(scale):
    graph = load_dataset("livejournal", scale)
    rows = {}
    for name, pattern in paper_patterns().items():
        if name == "PG5":
            continue  # dominated by instance count; nothing new to learn
        with_index = PSgL(graph, num_workers=16, seed=7).run(pattern)
        without = PSgL(graph, num_workers=16, edge_index="none", seed=7).run(
            pattern
        )
        rows[name] = {
            "k": pattern.num_vertices,
            "count": with_index.count,
            "bytes": with_index.ledger.total_wire_bytes(),
            "bytes_no_index": without.ledger.total_wire_bytes(),
            "messages": with_index.total_gpsis,
        }
    return rows


def test_ablation_message_volume(benchmark, bench_scale, save_report):
    rows = run_once(benchmark, _sweep, bench_scale)

    print()
    print(
        format_table(
            ["pattern", "instances", "bytes w/ index", "bytes w/o index", "B/msg"],
            [
                [
                    name,
                    r["count"],
                    r["bytes"],
                    r["bytes_no_index"],
                    round(r["bytes"] / max(r["messages"], 1), 1),
                ]
                for name, r in rows.items()
            ],
            title="Gpsi wire bytes (packed rows), livejournal analog",
        )
    )

    for name, r in rows.items():
        # the index reduces communication, not just computation
        assert r["bytes"] < r["bytes_no_index"], name
        # every message is one packed row of the pattern's width
        assert r["bytes"] == r["messages"] * row_bytes(r["k"]), name
