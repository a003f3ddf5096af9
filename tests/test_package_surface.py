"""Surface-drift guard for the lazy packages.

Every ``repro`` package ``__init__`` imports nothing and resolves its
public names on first access (``repro/_lazy.py``).  This file fails
when a name is dropped from ``repro.__all__``, stops resolving, or
disappears from ``dir()`` — the promises an eager ``__init__`` kept
for free.
"""

import importlib

import pytest

import repro

#: ``repro.__all__`` as the eager package declared it.
PUBLIC = [
    "PSgL",
    "ListingResult",
    "ExecutionConfig",
    "ReproError",
    "GraphError",
    "GraphFormatError",
    "PatternError",
    "PartialOrderError",
    "EngineError",
    "DistributionError",
    "SimulatedOOMError",
    "BudgetExceededError",
    "JobCancelled",
    "QuerySpecError",
    "AdmissionError",
    "Graph",
    "OrderedGraph",
    "chung_lu_power_law",
    "complete_graph",
    "cycle_graph",
    "erdos_renyi",
    "grid_graph",
    "random_partition",
    "star_graph",
    "PatternGraph",
    "all_connected_patterns",
    "break_automorphisms",
    "motif_census",
    "pattern_from_edges",
    "clique",
    "clique4",
    "cycle",
    "diamond",
    "get_pattern",
    "house",
    "paper_patterns",
    "square",
    "triangle",
    "Tracer",
    "straggler_report",
    "write_chrome_trace",
    "write_jsonl",
    "__version__",
]

PACKAGES = [
    "repro",
    "repro.baselines",
    "repro.bench",
    "repro.bsp",
    "repro.core",
    "repro.graph",
    "repro.obs",
    "repro.pattern",
    "repro.runtime",
    "repro.service",
]


def test_top_level_all_is_unchanged():
    assert repro.__all__ == PUBLIC


@pytest.mark.parametrize("name", PACKAGES)
def test_every_public_name_resolves_and_is_listed(name):
    package = importlib.import_module(name)
    assert len(set(package.__all__)) == len(package.__all__)
    listed = dir(package)
    for public in package.__all__:
        assert public in listed, public
        assert getattr(package, public) is not None, public


def test_top_level_names_are_the_defining_objects():
    from repro.core.listing import PSgL
    from repro.graph.graph import Graph
    from repro.obs.tracer import Tracer

    assert (repro.PSgL, repro.Graph, repro.Tracer) == (PSgL, Graph, Tracer)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from repro.graph import no_such_name  # noqa: F401
