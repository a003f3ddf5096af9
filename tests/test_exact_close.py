"""The exact index closes: a full mapping is complete where it is generated.

Under ``edge_index="exact"`` every uncovered edge of a fully mapped child
was proved by the probe that admitted its later-mapped endpoint, so the
expansion reports it at once; under ``bloom`` and ``none`` it still waits
for the paper's final verification superstep (Section 5.2.3).  Engine and
oracle agree either way (``tests/test_plane_parity.py``,
``tests/test_batch_expand.py``); these tests pin what the rule changes
and what it must not.
"""

import multiprocessing
import os

import pytest

from repro.core import PSgL, UNMAPPED
from repro.core import listing
from repro.graph.generators import rmat
from repro.pattern import get_pattern

KINDS = ("bloom", "exact", "none")
PATTERNS = ["PG1", "PG2", "PG3", "PG4", "PG5", "C5", "P4", "S3"]


def run(graph, name, kind, **kwargs):
    return PSgL(graph, num_workers=4, edge_index=kind, seed=0).run(
        get_pattern(name), **kwargs
    )


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", PATTERNS)
def test_every_index_kind_lists_the_same_instances(name, seed):
    graph = rmat(7, seed=seed)
    results = [run(graph, name, kind, collect_instances=True) for kind in KINDS]
    instances = [sorted(r.instances) for r in results]
    assert all(r.count == len(i) for r, i in zip(results, instances))
    assert instances[0] == instances[1] == instances[2]


@pytest.mark.parametrize(
    "name, supersteps", [("PG1", 2), ("PG2", 3), ("PG4", 2)]
)
def test_exact_skips_the_verification_superstep(name, supersteps):
    graph = rmat(7, seed=0)
    assert run(graph, name, "exact").supersteps == supersteps
    assert run(graph, name, "bloom").supersteps > supersteps


#: Total ledger cost of each paper pattern under the exact index on
#: R-MAT 7 (seed 0), four workers, engine seed 0, taken before the rule
#: existed: the verification charge moved to the generating worker, it
#: was not lost.
EXACT_TOTAL_COST = {
    "PG1": 3636.0,
    "PG2": 26250.0,
    "PG3": 46252.0,
    "PG4": 13773.0,
    "PG5": 597886.0,
}


@pytest.mark.parametrize("name", sorted(EXACT_TOTAL_COST))
def test_total_cost_is_unchanged(name):
    result = run(rmat(7, seed=0), name, "exact")
    assert result.ledger.total_cost() == EXACT_TOTAL_COST[name]


@pytest.mark.parametrize("name", ["PG1", "PG2", "PG3", "PG4", "PG5"])
def test_no_full_mapping_is_routed(monkeypatch, name):
    outcomes = []
    real = listing.expand_columns

    def recording(*args, **kwargs):
        outcomes.append(real(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(listing, "expand_columns", recording)
    result = run(rmat(7, seed=0), name, "exact")
    assert result.count > 0
    assert sum(o.n_complete for o in outcomes) == result.count
    for outcome in outcomes:
        if outcome.pending is not None:
            full = (outcome.pending.mapping != UNMAPPED).all(axis=1)
            assert not full.any()


def test_counting_never_assembles_instances(monkeypatch):
    """With neither instances nor per-vertex counts asked for, a block's
    complete rows are only counted."""
    from repro.core.batch_expand import BatchOutcome

    def refuse(self):
        raise AssertionError("complete rows assembled for a count")

    monkeypatch.setattr(BatchOutcome, "complete", property(refuse))
    graph = rmat(7, seed=0)
    assert run(graph, "PG2", "exact").count == 5015


class TestSharedKeyColumn:
    """The exact index's key column reaches every process lane as the
    driver's: a forked lane inherits it."""

    def test_process_backend_matches_serial_and_leaks_nothing(self):
        graph = rmat(8, seed=0)
        before = (
            len(multiprocessing.active_children()),
            sorted(os.listdir("/dev/shm")),
        )
        pattern = get_pattern("PG2")
        serial = PSgL(graph, edge_index="exact").run(pattern)
        pooled = PSgL(
            graph, edge_index="exact", backend="process", procs=2
        ).run(pattern)
        assert (pooled.count, pooled.makespan, pooled.supersteps) == (
            serial.count, serial.makespan, serial.supersteps
        )
        assert (
            len(multiprocessing.active_children()),
            sorted(os.listdir("/dev/shm")),
        ) == before
