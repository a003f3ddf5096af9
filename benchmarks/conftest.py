"""Shared fixtures for the paper-reproduction benchmarks.

Every benchmark regenerates one paper table or figure through
``repro.bench.run_experiment`` and saves the rendered report under
``benchmarks/results/``.  The workload scale is configurable:

    PSGL_BENCH_SCALE=1.0 pytest benchmarks/ --benchmark-only

Default is 0.5 — every experiment's *shape* (who wins, where OOMs land)
is stable across scales; 1.0 doubles fidelity at several times the cost.
"""

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return float(os.environ.get("PSGL_BENCH_SCALE", "0.5"))


@pytest.fixture(scope="session")
def save_report():
    # Imported here: benchmarks/e2e runs under this conftest without repro.
    from repro.bench.runner import write_report

    def _save(report):
        write_report(report, RESULTS_DIR)  # the file leaves the run time out
        print()
        print(report.render())
        return report

    return _save


def run_once(benchmark, func, *args, **kwargs):
    """Run a whole experiment exactly once under the benchmark timer.

    These experiments take seconds to minutes; statistical repetition
    belongs to the micro level, not here.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, iterations=1, rounds=1)
