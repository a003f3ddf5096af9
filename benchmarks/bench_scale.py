"""Out-of-core scale sweep: .csrbin convert + spilling listing runs.

For each R-MAT scale on the axis the script (1) streams the generated
edge list through ``convert_edge_list`` into a ``.csrbin`` file and
times the conversion, (2) memory-maps the result with ``load_mapped``,
and (3) runs a PG2 listing over the mapped graph under a shrinking
sequence of ``memory_watermark_bytes`` — from "never spill" (the
in-memory baseline) down to a 1-byte watermark that evicts every sealed
chunk of the columnar shuffle to disk.

Every watermark must produce a bit-identical run (count + ledger
summary) — asserted, not eyeballed; only wall time and the spill
counters are allowed to move.  The JSON records, per scale, the convert
throughput and one row per watermark with wall seconds and spilled
chunk/byte volume, so the curve shows what bounding shuffle memory
actually costs.

Honesty notes ride in the record: a 1-core container shows scheduling
overhead rather than parallel speedup, and wall times for spilled runs
on a fast local disk flatter the plane relative to network storage.

Full run (ISSUE axis, scales 16-20; hours of wall time on one core)::

    PYTHONPATH=src python benchmarks/bench_scale.py --scales 16 17 18 19 20

Committed record (wall-feasible subset on the 1-core container)::

    PYTHONPATH=src python benchmarks/bench_scale.py --scales 12 13 14

CI smoke (tiny graph, two watermarks, separate output file)::

    PYTHONPATH=src python benchmarks/bench_scale.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from pathlib import Path
from tempfile import TemporaryDirectory
from time import perf_counter

import numpy as np

from repro.core import PSgL
from repro.graph import load_mapped, write_edge_list
from repro.graph.binfmt import convert_edge_list
from repro.graph.generators import rmat
from repro.pattern import paper_patterns

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_scale.json"
SMOKE_RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_scale_smoke.json"

DEFAULT_SCALES = (16, 17, 18, 19, 20)
DEFAULT_DEG = float(os.environ.get("PSGL_BENCH_RMAT_DEG", "8"))


def _environment_notes():
    notes = [
        "spill wall times are against local tmp-dir storage; slower "
        "disks shift the spilled curves up without touching parity",
    ]
    if (os.cpu_count() or 1) < 2:
        notes.append(
            "single-core machine: workers share one core, so wall times "
            "measure the engine + spill plane, not parallel speedup"
        )
    return notes


def _run_once(graph, pattern, workers, seed, spill_dir, watermark):
    kwargs = {}
    if watermark is not None:
        kwargs = {
            "spill_dir": str(spill_dir),
            "memory_watermark_bytes": int(watermark),
        }
    started = perf_counter()
    result = PSgL(
        graph,
        num_workers=workers,
        seed=seed,
        **kwargs,
    ).run(pattern)
    wall = perf_counter() - started
    return result, wall


def sweep_scale(scale, avg_degree, seed, pattern, workers, work_dir):
    """One scale: generate -> convert -> mapped runs under the watermarks."""
    graph = rmat(scale, avg_degree=avg_degree, seed=seed)
    src = work_dir / f"rmat{scale}.txt"
    write_edge_list(graph, src)
    del graph  # the mapped file is the graph from here on

    bin_path = work_dir / f"rmat{scale}.csrbin"
    started = perf_counter()
    stats = convert_edge_list(src, bin_path)
    convert_wall = perf_counter() - started
    src.unlink()

    mapped = load_mapped(bin_path)
    convert_row = {
        "seconds": round(convert_wall, 4),
        "raw_edges": stats.raw_edges,
        "edges": stats.num_edges,
        "output_bytes": stats.output_bytes,
        "edges_per_second": round(stats.raw_edges / max(convert_wall, 1e-9)),
    }

    # In-memory baseline first; its shuffle volume anchors the shrinking
    # watermark axis (1/2 and 1/8 of total wire bytes, then 1 byte).
    baseline, base_wall = _run_once(
        mapped, pattern, workers, seed, work_dir, None
    )
    total_wire = baseline.ledger.total_wire_bytes()
    watermarks = [None]
    for divisor in (2, 8):
        watermarks.append(max(total_wire // divisor, 1))
    watermarks.append(1)

    runs = []
    for watermark in watermarks:
        if watermark is None:
            result, wall = baseline, base_wall
        else:
            result, wall = _run_once(
                mapped, pattern, workers, seed, work_dir / "spill", watermark
            )
            assert result.count == baseline.count, (scale, watermark)
            assert (
                result.ledger.summary() == baseline.ledger.summary()
            ), (scale, watermark)
        runs.append(
            {
                "watermark_bytes": watermark,
                "wall_seconds": round(wall, 4),
                "count": result.count,
                "spill_chunks": result.ledger.spill_chunks,
                "spill_bytes": result.ledger.spill_bytes,
            }
        )
    row = {
        "scale": scale,
        "vertices": mapped.num_vertices,
        "edges": mapped.num_edges,
        "total_wire_bytes": total_wire,
        "convert": convert_row,
        "runs": runs,
    }
    bin_path.unlink()
    return row


def run_benchmark(
    scales,
    avg_degree=DEFAULT_DEG,
    seed=1,
    pattern_name="PG2",
    workers=4,
    out_path=RESULTS_PATH,
):
    pattern = paper_patterns()[pattern_name]
    sweeps = []
    with TemporaryDirectory(prefix="psgl-bench-scale-") as tmp:
        work_dir = Path(tmp)
        for scale in scales:
            row = sweep_scale(
                scale, avg_degree, seed, pattern, workers, work_dir
            )
            sweeps.append(row)
            spilled = row["runs"][-1]
            print(
                f"scale {scale}: |V|={row['vertices']:,} "
                f"|E|={row['edges']:,}, convert "
                f"{row['convert']['seconds']:.2f}s "
                f"({row['convert']['edges_per_second']:,} edges/s), "
                f"baseline {row['runs'][0]['wall_seconds']:.2f}s, "
                f"full-spill {spilled['wall_seconds']:.2f}s "
                f"({spilled['spill_chunks']} chunks / "
                f"{spilled['spill_bytes']:,} B)"
            )
    record = {
        "benchmark": "scale",
        "pattern": pattern_name,
        "workers": workers,
        "graph_family": {"family": "rmat", "avg_degree": avg_degree, "seed": seed},
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "notes": _environment_notes(),
        "sweeps": sweeps,
    }
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scales", type=int, nargs="+", default=None, help="R-MAT scales"
    )
    parser.add_argument("--avg-degree", type=float, default=DEFAULT_DEG)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pattern", default="PG2")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny graph, separate output file (CI leg)",
    )
    args = parser.parse_args()
    if args.smoke:
        out = args.out or SMOKE_RESULTS_PATH
        run_benchmark(
            scales=args.scales or [9],
            avg_degree=args.avg_degree,
            seed=args.seed,
            pattern_name=args.pattern,
            workers=args.workers,
            out_path=out,
        )
    else:
        out = args.out or RESULTS_PATH
        run_benchmark(
            scales=args.scales or list(DEFAULT_SCALES),
            avg_degree=args.avg_degree,
            seed=args.seed,
            pattern_name=args.pattern,
            workers=args.workers,
            out_path=out,
        )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
