"""The benchmark's workloads and the one engine configuration they share.

Standard library only: ``run.py`` imports this before it starts the
measured children and must stay small (see README, "peak RSS").
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Engine configuration of every workload: the columnar plane with the
#: paper's workload-aware strategy, four logical workers.
WORKERS = 4
STRATEGY = "WA,0.5"
ENGINE_SEED = 0
PROCS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    pattern: str
    #: R-MAT scale: 2**scale vertices, average degree 8.
    scale: int
    #: Instance count the input graph is drawn to (within 1 %), so that
    #: every seed gives the same amount of work; 0 takes the first draw.
    instances: int
    #: Counts one baseline process makes, chosen so that it runs about as
    #: long as one ``psgl count``: the two then see the same machine.
    baseline_repeat: int
    #: Seconds one baseline count takes on the builder's box when it is
    #: calm.  ``setup_s`` is measured in baseline counts and scaled by
    #: this, so it reads in seconds at that speed (README, "Noise").
    baseline_s: float
    #: What the CLI reads: the text edge list or its ``.csrbin``.
    source: str = "text"
    backend: str = "serial"


#: Why each is here: BENCHMARK.json, and README.md at more length.
WORKLOADS = {w.name: w for w in (
    Workload("tri-rmat12", "PG1", 12, 35_900, 32, 0.026),
    Workload("square-rmat10", "PG2", 10, 168_900, 150, 0.0061),
    Workload("clique4-rmat11", "PG4", 11, 28_900, 40, 0.019),
    Workload("tri-rmat13-proc2", "PG1", 13, 81_200, 13, 0.060,
             source="csrbin", backend="process"),
)}


def smoke(workload):
    """The same workload on a 256-vertex graph, for the self-test."""
    return replace(workload, scale=8, instances=0)


def count_argv(workload, edge_list, csrbin):
    """Arguments of ``python -m repro`` for one run of ``workload``."""
    argv = ["count", "--pattern", workload.pattern, "--workers", str(WORKERS),
            "--wire", "columnar", "--strategy", STRATEGY,
            "--seed", str(ENGINE_SEED)]
    if workload.source == "csrbin":
        argv += ["--csrbin", str(csrbin)]
    else:
        argv += ["--edge-list", str(edge_list)]
    if workload.backend == "process":
        argv += ["--backend", "process", "--procs", str(PROCS)]
    return argv
