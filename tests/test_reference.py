"""The oracle's own ground truth.

Every engine configuration is checked against
:func:`repro.core.reference.run_reference` (``tests/parity.py``).  Were
the oracle only ever compared with the engine, a bug the two share would
pass unseen, so here it answers to the independent backtracking
enumerator of ``repro.baselines`` — count and instance set — and to
itself: the same inputs give the same observables.
"""

import pytest

from repro.baselines import count_instances, enumerate_instances
from repro.graph.generators import chung_lu_power_law, erdos_renyi
from repro.pattern import paper_patterns

from .parity import observables, reference_run

GRAPHS = {
    "er": erdos_renyi(24, 0.3, seed=21),
    "powerlaw": chung_lu_power_law(28, gamma=2.5, avg_degree=4, seed=8),
}


@pytest.mark.parametrize("pattern_name", sorted(paper_patterns()))
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_matches_the_centralized_enumerator(graph_name, pattern_name):
    graph = GRAPHS[graph_name]
    result = reference_run(graph, pattern_name, seed=5).result
    # Instances are indexed by the pattern the run listed (symmetry
    # broken by the driver's own preparation).
    expected = sorted(enumerate_instances(graph, result.pattern))
    assert result.count == count_instances(graph, result.pattern)
    assert sorted(result.instances) == expected
    assert len(set(result.instances)) == result.count


@pytest.mark.parametrize("strategy", ["random", "roulette", "WA,0.5"])
def test_same_inputs_same_observables(strategy):
    runs = [
        reference_run(GRAPHS["powerlaw"], "PG2", strategy=strategy, seed=9)
        for _ in range(2)
    ]
    assert observables(runs[0].result) == observables(runs[1].result)
