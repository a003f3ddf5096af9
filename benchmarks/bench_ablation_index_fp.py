"""Ablation — the edge index's precision/space trade-off.

Section 5.2.3: "the precision of the index is adjustable and the
successive iteration only needs to verify a small portion".  Sweeping the
bloom false-positive rate from sloppy to exact shows intermediate-result
volume converging to the bloom floor while the index footprint grows.

The floor is not the exact index's Gpsi count itself: an exact index
closes a fully mapped Gpsi where it is generated, while a bloom index —
however tight — routes every fully mapped Gpsi to one more verification
superstep.  So a perfect bloom index sends at most the exact index's
Gpsis plus one per instance: that is the floor the sweep approaches.
"""

from conftest import run_once

from repro.bench import format_table, load_dataset
from repro.core import PSgL
from repro.core.edge_index import BloomEdgeIndex
from repro.pattern import square

FP_RATES = [0.3, 0.1, 0.01, 0.001]


def _sweep(scale):
    graph = load_dataset("livejournal", scale)
    rows = []
    counts = set()
    for kind, fp in [("none", None)] + [("bloom", fp) for fp in FP_RATES] + [
        ("exact", None)
    ]:
        psgl = PSgL(
            graph,
            num_workers=16,
            edge_index=kind,
            edge_index_fp=fp if fp else 0.01,
            seed=7,
        )
        result = psgl.run(square())
        counts.add(result.count)
        memory = (
            BloomEdgeIndex(graph, fp_rate=fp).memory_bytes() if fp else None
        )
        rows.append(
            {
                "config": kind if fp is None else f"bloom fp={fp}",
                "gpsis": result.total_gpsis,
                "count": result.count,
                "peak": result.ledger.peak_live_messages,
                "bytes": memory,
            }
        )
    assert len(counts) == 1
    return rows


def test_ablation_index_precision(benchmark, bench_scale, save_report):
    rows = run_once(benchmark, _sweep, bench_scale)

    print()
    print(
        format_table(
            ["config", "Gpsis", "peak live", "index bytes"],
            [[r["config"], r["gpsis"], r["peak"], r["bytes"]] for r in rows],
            title="edge-index precision sweep, PG2 on livejournal",
        )
    )

    by_config = {r["config"]: r for r in rows}
    none, exact = by_config["none"], by_config["exact"]
    # disabling the index must inflate intermediates well past exact
    assert none["gpsis"] > 1.5 * exact["gpsis"]
    # tighter fp rates approach the bloom floor monotonically-ish: the
    # exact index's Gpsis plus the instances it closed in place, which a
    # bloom index verifies in one more superstep
    sloppy = by_config["bloom fp=0.3"]
    tight = by_config["bloom fp=0.001"]
    floor = exact["gpsis"] + exact["count"]
    assert tight["gpsis"] <= sloppy["gpsis"]
    assert tight["gpsis"] <= 1.05 * floor
    # and cost memory: tighter filters take more bits
    assert by_config["bloom fp=0.001"]["bytes"] > by_config["bloom fp=0.3"]["bytes"]
