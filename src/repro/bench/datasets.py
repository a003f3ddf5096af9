"""Scaled-down synthetic analogs of the paper's datasets (Table 1).

The paper evaluates on six SNAP/KONECT graphs plus a NetworkX
Erdos-Renyi graph.  With no network access and a pure-Python substrate,
each real graph is replaced by a Chung-Lu power-law analog that matches
the property every experiment actually exercises — the *skew* of the
degree distribution:

========== ============== ============== =======================================
analog      paper graph    paper |V|/|E|   skew target
========== ============== ============== =======================================
webgoogle   WebGoogle      0.9M / 8.6M    strongly skewed (paper gamma 1.66)
wikitalk    WikiTalk       2.4M / 9.3M    extremely skewed (paper gamma 1.09)
uspatent    UsPatent       3.8M / 33M     mildly skewed (paper gamma 3.13)
livejournal LiveJournal    4.8M / 85M     social-network skew, denser
wikipedia   Wikipedia      26M / 543M     large, skewed (Table 3 only)
twitter     Twitter        42M / 1202M    largest, heaviest hubs (Table 3 only)
randgraph   RandGraph      4M / 80M       Erdos-Renyi, no skew
========== ============== ============== =======================================

Sizes scale with the ``scale`` parameter (1.0 keeps every benchmark
inside a laptop-minutes budget); relative proportions between datasets
follow the paper's.  All generation is seeded and deterministic, and
instances are cached per process because ordering/indexing a graph is
much cheaper than regenerating it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Callable, Dict, List, Optional

from ..exceptions import GraphError
from ..graph.generators import chung_lu_power_law, erdos_renyi
from ..graph.graph import Graph
from ..graph.stats import fit_power_law_gamma


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one synthetic analog."""

    name: str
    paper_name: str
    paper_vertices: str
    paper_edges: str
    description: str
    builder: Callable[[float], Graph]


def _power_law(
    n: int, gamma: float, avg_degree: float, max_degree: int, seed: int
) -> Callable[[float], Graph]:
    def build(scale: float) -> Graph:
        size = max(64, int(n * scale))
        cap = max(8, int(max_degree * scale ** 0.5)) if max_degree else 0
        return chung_lu_power_law(
            size, gamma, avg_degree=avg_degree, max_degree=cap, seed=seed
        )

    return build


def _social(
    n: int,
    gamma: float,
    avg_degree: float,
    max_degree: int,
    core_size: int,
    core_p: float,
    seed: int,
) -> Callable[[float], Graph]:
    """Power-law graph with a planted dense community.

    Real social graphs (LiveJournal) pair a heavy-tailed degree sequence
    with dense community cores; the core is what makes clique patterns
    (and their index-less intermediate blowup, Table 2) expensive there.
    Chung-Lu alone is locally tree-like, so the core is planted explicitly.
    """
    import numpy as np

    def build(scale: float) -> Graph:
        size = max(64, int(n * scale))
        cap = max(8, int(max_degree * scale ** 0.5))
        base = chung_lu_power_law(
            size, gamma, avg_degree=avg_degree, max_degree=cap, seed=seed
        )
        rng = np.random.default_rng(seed)
        k = min(max(8, int(core_size * scale ** 0.5)), size)
        core = rng.choice(size, size=k, replace=False)
        extra = [
            (int(core[i]), int(core[j]))
            for i in range(k)
            for j in range(i + 1, k)
            if rng.random() < core_p
        ]
        return Graph(size, list(base.edges()) + extra)

    return build


def _random(n: int, avg_degree: float, seed: int) -> Callable[[float], Graph]:
    def build(scale: float) -> Graph:
        size = max(64, int(n * scale))
        return erdos_renyi(size, min(avg_degree / max(size - 1, 1), 1.0), seed=seed)

    return build


_SPECS: List[DatasetSpec] = [
    DatasetSpec(
        name="webgoogle",
        paper_name="WebGoogle",
        paper_vertices="0.9M",
        paper_edges="8.6M",
        description="web graph, strongly skewed (paper gamma=1.66)",
        builder=_power_law(1200, 1.9, 6.0, 100, seed=101),
    ),
    DatasetSpec(
        name="wikitalk",
        paper_name="WikiTalk",
        paper_vertices="2.4M",
        paper_edges="9.3M",
        description="communication graph, extremely skewed (paper gamma=1.09)",
        builder=_power_law(1500, 1.6, 4.0, 150, seed=102),
    ),
    DatasetSpec(
        name="uspatent",
        paper_name="UsPatent",
        paper_vertices="3.8M",
        paper_edges="33M",
        description="citation graph, mildly skewed (paper gamma=3.13)",
        builder=_power_law(2000, 3.1, 7.0, 50, seed=103),
    ),
    DatasetSpec(
        name="livejournal",
        paper_name="LiveJournal",
        paper_vertices="4.8M",
        paper_edges="85M",
        description="social network: skewed with a planted dense community",
        builder=_social(1400, 2.3, 8.0, 100, core_size=80, core_p=0.45, seed=104),
    ),
    DatasetSpec(
        name="wikipedia",
        paper_name="Wikipedia",
        paper_vertices="26M",
        paper_edges="543M",
        description="large skewed hyperlink graph (Table 3 only)",
        builder=_power_law(2500, 2.0, 8.0, 150, seed=105),
    ),
    DatasetSpec(
        name="twitter",
        paper_name="Twitter",
        paper_vertices="42M",
        paper_edges="1,202M",
        description="largest graph, heaviest hubs (Table 3 only)",
        builder=_power_law(3000, 1.8, 9.0, 200, seed=106),
    ),
    DatasetSpec(
        name="randgraph",
        paper_name="RandGraph",
        paper_vertices="4M",
        paper_edges="80M",
        description="Erdos-Renyi random graph (no skew)",
        builder=_random(1500, 8.0, seed=107),
    ),
]

SPECS: Dict[str, DatasetSpec] = {spec.name: spec for spec in _SPECS}

_CACHE: Dict[tuple, Graph] = {}


def dataset_names() -> List[str]:
    """All registered analog names, paper order."""
    return [spec.name for spec in _SPECS]


def check_scale(scale: object) -> None:
    """Raise :class:`~repro.exceptions.GraphError` unless ``scale`` is a
    finite number > 0 — what every ``--scale`` flag passes through."""
    if not (isinstance(scale, Real) and math.isfinite(scale) and scale > 0):
        raise GraphError(f"scale must be a finite number > 0, got {scale!r}")


def load_dataset(name: str, scale: float = 1.0) -> Graph:
    """Build (or fetch from cache) the analog called ``name``."""
    check_scale(scale)
    if name not in SPECS:
        raise GraphError(
            f"unknown dataset {name!r}; available: {', '.join(dataset_names())}"
        )
    key = (name, scale)
    if key not in _CACHE:
        _CACHE[key] = SPECS[name].builder(scale)
    return _CACHE[key]


def dataset_summary(scale: float = 1.0) -> List[Dict[str, object]]:
    """Table 1 rows for the analogs: name, |V|, |E|, fitted gamma."""
    rows = []
    for spec in _SPECS:
        graph = load_dataset(spec.name, scale)
        gamma = fit_power_law_gamma(graph.degrees, d_min=2)
        rows.append(
            {
                "name": spec.name,
                "paper_name": spec.paper_name,
                "paper_size": f"{spec.paper_vertices} / {spec.paper_edges}",
                "vertices": graph.num_vertices,
                "edges": graph.num_edges,
                "max_degree": graph.max_degree(),
                "gamma": None if gamma is None else round(gamma, 2),
            }
        )
    return rows


def clear_cache() -> None:
    """Drop cached graphs (tests use this to bound memory)."""
    _CACHE.clear()
