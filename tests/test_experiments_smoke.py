"""Smoke tests: every experiment module runs end-to-end at a tiny scale.

The benchmark suite runs the experiments at their full shapes; these
tests only verify the code paths (workload construction, all engines,
rendering) inside the unit-test budget.  The two calibrated experiments
(table2, table4) ignore the scale parameter by design, so they are
exercised only by the benchmark suite.
"""

import pytest

from repro.bench import run_experiment
from repro.bench.datasets import clear_cache

TINY = 0.12


@pytest.fixture(autouse=True, scope="module")
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


def test_table1_smoke():
    report = run_experiment("table1", scale=TINY)
    assert len(report.data["rows"]) == 7
    assert "wikitalk" in report.text


def test_fig4_smoke():
    report = run_experiment("fig4")
    assert len(report.data["rows"]) == 5


def test_fig3_smoke():
    report = run_experiment("fig3", scale=TINY, num_workers=4)
    panels = report.data["panels"]
    assert len(panels) == 4
    for spans in panels.values():
        assert set(spans) == {"random", "roulette", "WA,1", "WA,0", "WA,0.5"}
        assert all(v > 0 for v in spans.values())


def test_fig5_smoke():
    report = run_experiment("fig5", scale=TINY, num_workers=4)
    per_worker = report.data["per_worker"]
    assert all(len(costs) == 4 for costs in per_worker.values())


def test_experiments_default_to_the_production_plane():
    from repro.obs import Tracer

    tracer = Tracer()
    run_experiment("fig5", scale=TINY, num_workers=4, trace=tracer)
    assert tracer.meta["wire"] == "columnar"


def test_fig6_smoke():
    report = run_experiment("fig6", scale=TINY, num_workers=4)
    assert len(report.data) == 8
    for info in report.data.values():
        assert info["ratios"]


def test_fig7_smoke():
    report = run_experiment("fig7", scale=TINY, num_workers=4)
    assert len(report.data) == 15
    for spans in report.data.values():
        assert spans["psgl"] > 0


def test_table3_smoke():
    report = run_experiment("table3", scale=TINY, num_workers=4)
    for spans in report.data.values():
        assert set(spans) == {"afrati", "powergraph", "graphchi", "psgl"}


def test_fig8_smoke():
    report = run_experiment("fig8", scale=TINY)
    assert len(report.data["real"]) == 8
