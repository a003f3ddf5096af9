"""Kernel x scheduler scaling benchmark: serial vs. process curves.

Sweeps whole columnar listing jobs over the two knobs this repo's
native-speed work rides on — the probe kernel (``numpy`` reference vs.
``native``) and the work-stealing superstep scheduler (static vs.
dynamic placement) — across a worker-count axis on the serial and
process backends.  Every configuration must produce bit-identical
results (count, makespan, per-worker ledger totals); the timings are the
only thing allowed to move, and the JSON records them as
``<backend>/<kernel>/<static|steal>`` curves over the worker axis.

Honesty notes baked into the record: the ``machine`` stanza carries
``cpu_count`` (a 1-core container cannot show real parallel speedup —
the process curves then measure overhead, not scaling) and the
``kernel`` stanza carries :func:`repro.core.kernels.kernel_info`, which
says whether ``native`` actually compiled (numba present) or silently
fell back to numpy.

Full run (writes ``results/BENCH_kernels.json``)::

    PYTHONPATH=src python benchmarks/bench_kernels.py

CI smoke (small graph, serial only, ``results/BENCH_kernels_smoke.json``)::

    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core import PSgL, kernels
from repro.graph.generators import rmat
from repro.pattern import paper_patterns

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_kernels.json"
SMOKE_RESULTS_PATH = (
    Path(__file__).parent / "results" / "BENCH_kernels_smoke.json"
)

DEFAULT_SCALE = int(os.environ.get("PSGL_BENCH_RMAT_SCALE", "11"))
DEFAULT_DEG = float(os.environ.get("PSGL_BENCH_RMAT_DEG", "8"))


def run_one(graph, pattern, backend, workers, kernel, steal, seed):
    started = perf_counter()
    result = PSgL(
        graph,
        num_workers=workers,
        backend=backend,
        procs=workers,
        seed=seed,
        kernel=kernel,
        steal=steal,
        steal_tasks=1024 if steal else None,
    ).run(paper_patterns()[pattern])
    wall = perf_counter() - started
    return result, wall


def _environment_notes():
    """Plain-language caveats the curves must be read against."""
    notes = []
    if (os.cpu_count() or 1) < 2:
        notes.append(
            "single-core machine: worker/process curves measure scheduling "
            "overhead, not parallel speedup; steal counts are real but buy "
            "no wall-clock here"
        )
    if not kernels.HAVE_NUMBA:
        notes.append(
            "numba absent: kernel='native' falls back to numpy, so the "
            "native curves duplicate the numpy ones; the CI numba leg "
            "records the jit tier"
        )
    return notes


def run_benchmark(
    scale=DEFAULT_SCALE,
    avg_degree=DEFAULT_DEG,
    seed=1,
    pattern="PG2",
    backends=("serial", "process"),
    workers_axis=(1, 2, 4),
    kernels_axis=("numpy", "native"),
    out_path=RESULTS_PATH,
):
    graph = rmat(scale, avg_degree=avg_degree, seed=seed)
    curves = {}
    for backend in backends:
        for kernel in kernels_axis:
            for steal in (False, True):
                label = f"{backend}/{kernel}/{'steal' if steal else 'static'}"
                points = []
                for workers in workers_axis:
                    result, wall = run_one(
                        graph, pattern, backend, workers, kernel, steal, seed
                    )
                    points.append(
                        {
                            "workers": workers,
                            "wall_seconds": round(wall, 4),
                            "count": result.count,
                            "makespan": result.makespan,
                            "steals": result.steals,
                            "effective_kernel": result.kernel,
                        }
                    )
                curves[label] = points
    # Parity across every configuration, per worker count: same count,
    # same makespan (the cost model is schedule-independent).
    by_workers = {}
    for label, points in curves.items():
        for point in points:
            key = point["workers"]
            sig = (point["count"], point["makespan"])
            if key in by_workers:
                assert by_workers[key] == sig, (label, key, sig)
            else:
                by_workers[key] = sig
    record = {
        "benchmark": "kernels",
        "pattern": pattern,
        "graph": {
            "family": "rmat",
            "scale": scale,
            "avg_degree": avg_degree,
            "seed": seed,
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
        },
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "kernel": kernels.kernel_info("auto"),
        "notes": _environment_notes(),
        "curves": curves,
    }
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=None)
    parser.add_argument("--avg-degree", type=float, default=DEFAULT_DEG)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pattern", default="PG2")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small graph, serial backend only, separate output file",
    )
    args = parser.parse_args()
    if args.smoke:
        record = run_benchmark(
            scale=args.scale or 9,
            avg_degree=args.avg_degree,
            seed=args.seed,
            pattern=args.pattern,
            backends=("serial",),
            workers_axis=(1, 4),
            out_path=args.out or SMOKE_RESULTS_PATH,
        )
        out = args.out or SMOKE_RESULTS_PATH
    else:
        record = run_benchmark(
            scale=args.scale or DEFAULT_SCALE,
            avg_degree=args.avg_degree,
            seed=args.seed,
            pattern=args.pattern,
            out_path=args.out or RESULTS_PATH,
        )
        out = args.out or RESULTS_PATH

    graph = record["graph"]
    info = record["kernel"]
    print(
        f"rmat scale={graph['scale']} |V|={graph['vertices']:,} "
        f"|E|={graph['edges']:,} pattern={record['pattern']} "
        f"(auto kernel -> {info['effective']}/{info['runtime']}, "
        f"{record['machine']['cpu_count']} cpu)"
    )
    for label, points in record["curves"].items():
        line = ", ".join(
            f"w{p['workers']}: {p['wall_seconds']:.2f}s"
            + (f" ({p['steals']} steals)" if p["steals"] else "")
            for p in points
        )
        print(f"  {label:<24} {line}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
