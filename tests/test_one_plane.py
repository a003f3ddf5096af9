"""Structural pins: one engine plane, and the reference outside it.

The paper-faithful scalar path — one ``Gpsi`` object per message,
``expand_gpsi``, scalar ``choose`` — lives in one module,
:mod:`repro.core.reference`, as the parity oracle.  No production layer
keeps a second arm for it: no per-message store, no combiner, no scalar
``compute``, no plane fallback.  These tests fail when one grows back.
"""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.bsp import WIRE_PLANES, ExecutionConfig
from repro.core import PSgL
from repro.core.distribution import DistributionStrategy, RandomStrategy
from repro.exceptions import DistributionError
from repro.graph import complete_graph

SRC = Path(repro.__file__).resolve().parent
REFERENCE = SRC / "core" / "reference.py"

#: What the object arm was made of.
OBJECT_ARM = re.compile(
    r"MessageStore|message_combiner|def compute\(|supports_columnar_compute"
    r"|require_columnar_plane|_resolve_plane|ctx\.send\("
)

#: Production modules the oracle must not be built from.
ENGINE_MODULES = (
    "repro.bsp.engine",
    "repro.bsp.message",
    "repro.runtime",
    "repro.core.batch_expand",
)


def imported_modules(path):
    """Absolute names of every module ``path`` imports (from-imports
    resolved against its package, ``from . import x`` counted as
    ``package.x``)."""
    package = ".".join(path.relative_to(SRC.parent).with_suffix("").parts[:-1])
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            module = ".".join(filter(None, [base, node.module]))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_no_object_arm_outside_the_oracle():
    for path in sorted(SRC.rglob("*.py")):
        if path != REFERENCE:
            match = OBJECT_ARM.search(path.read_text())
            assert match is None, f"{path.relative_to(SRC)}: {match.group()}"


def test_oracle_is_not_built_from_the_engine():
    imported = imported_modules(REFERENCE)
    assert "repro.core.expansion" in imported  # the resolver works
    for name in imported:
        assert not name.startswith(ENGINE_MODULES), name


def test_oracle_stays_small():
    assert len(REFERENCE.read_text().splitlines()) <= 250


def test_wire_names_the_one_plane():
    assert len(dataclasses.fields(ExecutionConfig)) == 8
    assert WIRE_PLANES == ("columnar",)
    assert ExecutionConfig(wire="columnar") == ExecutionConfig()


def test_choose_many_keeps_six_positional_parameters():
    signature = inspect.signature(DistributionStrategy.choose_many)
    assert list(signature.parameters) == [
        "self", "mapping", "group_of", "groups", "graph", "partition",
        "worker_state",
    ]


class ScalarOnlyRandom(DistributionStrategy):
    """A custom strategy that implements scalar ``choose`` only."""

    name = "scalar-only-random"

    def choose(self, *args):
        return RandomStrategy().choose(*args)


def test_scalar_only_strategy_refused_at_construction():
    """It used to run silently on a plane ~10x slower; the engine routes
    through ``choose_many`` only, so the driver refuses it up front."""
    with pytest.raises(DistributionError, match="choose_many"):
        PSgL(complete_graph(4), strategy=ScalarOnlyRandom())
