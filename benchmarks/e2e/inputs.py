"""Benchmark inputs: R-MAT edge lists made from the workload seed.

The harness owns its generator, so the inputs stay the same while the
program under test changes.  The draw sequence is that of
``repro.graph.generators.rmat`` (pinned by the self-test).

The instance count of a small R-MAT graph varies by 2-7 % from one seed
to the next, and run time follows it.  A workload states its size in
instances: the graph for a seed is the first of that seed's R-MAT draws
whose count (by the baseline counters) is within ``TOLERANCE`` of the
stated one.  Different seeds still give structurally different graphs;
they no longer give different amounts of work.

Run as a helper subprocess (the harness itself must not import numpy
before it forks the measured children, see README "peak RSS")::

    python inputs.py PATTERN SCALE SEED INSTANCES OUT.txt
"""

from __future__ import annotations

import sys

import numpy as np

from baseline import COUNTERS, OrientedCSR

AVG_DEGREE = 8
QUADRANTS = (0.57, 0.19, 0.19)
TOLERANCE = 0.01
#: Far more than needed: the rarest workload accepts one draw in ten.
MAX_DRAWS = 1000


def rmat_edges(scale, seed):
    """Unique undirected R-MAT edges ``(lo, hi)``, self loops dropped."""
    rng = np.random.default_rng(seed)
    n = 1 << scale
    num_edges = int(AVG_DEGREE * n / 2)
    quadrant = np.searchsorted(np.cumsum(QUADRANTS), rng.random((num_edges, scale)))
    powers = 1 << np.arange(scale - 1, -1, -1)
    us = (((quadrant >> 1) & 1) * powers).sum(axis=1)
    vs = ((quadrant & 1) * powers).sum(axis=1)
    lo, hi = np.minimum(us, vs), np.maximum(us, vs)
    keep = lo != hi
    return np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)


def draw_graph(pattern, scale, seed, instances):
    """``(edges, count, draw)``: the seed's first graph of the stated
    size; ``instances=0`` takes the first draw whatever its count."""
    for draw in range(MAX_DRAWS):
        edges = rmat_edges(scale, [seed, draw])
        count = COUNTERS[pattern](OrientedCSR(edges))
        if not instances or abs(count - instances) <= TOLERANCE * instances:
            return edges, count, draw
    raise RuntimeError(
        f"no R-MAT {scale} graph with {instances} +-{TOLERANCE:.0%} "
        f"{pattern} instances in {MAX_DRAWS} draws of seed {seed}"
    )


def write_edge_list(edges, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# R-MAT undirected |E|={len(edges)}\n")
        np.savetxt(fh, edges, fmt="%d")


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 5 or args[0] not in COUNTERS:
        print("usage: inputs.py PATTERN SCALE SEED INSTANCES OUT.txt",
              file=sys.stderr)
        return 2
    pattern, scale, seed, instances, out = args
    edges, count, draw = draw_graph(pattern, int(scale), int(seed), int(instances))
    write_edge_list(edges, out)
    print(f"edges={len(edges)}")
    print(f"count={count}")
    print(f"draw={draw}")
    print(f"numpy={np.__version__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
