"""Tests for the exception hierarchy and its contracts."""

import pytest

from repro.exceptions import (
    DistributionError,
    EngineError,
    GraphError,
    GraphFormatError,
    PartialOrderError,
    PatternError,
    ReproError,
    SimulatedOOMError,
)


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc_type in [
            GraphError,
            GraphFormatError,
            PatternError,
            PartialOrderError,
            EngineError,
            DistributionError,
            SimulatedOOMError,
        ]:
            assert issubclass(exc_type, ReproError)

    def test_format_error_is_graph_error(self):
        assert issubclass(GraphFormatError, GraphError)

    def test_partial_order_error_is_pattern_error(self):
        assert issubclass(PartialOrderError, PatternError)

    def test_one_except_catches_everything(self):
        """A caller can fence the whole library with one except clause."""
        from repro import PSgL, complete_graph, triangle

        with pytest.raises(ReproError):
            PSgL(complete_graph(4)).run(triangle(), initial_vertex=99)


class TestSimulatedOOM:
    def test_carries_context(self):
        exc = SimulatedOOMError(150, 100, where="superstep 3")
        assert exc.live == 150
        assert exc.budget == 100
        assert exc.where == "superstep 3"
        assert "superstep 3" in str(exc)
        assert "150" in str(exc)

    def test_where_optional(self):
        exc = SimulatedOOMError(10, 5)
        assert "in" not in str(exc).split(":")[0]
