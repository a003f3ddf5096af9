"""Self-test of the end-to-end benchmark harness.

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only); run it
with ``python -m pytest benchmarks/e2e -q``.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import baseline  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, smoke  # noqa: E402

from repro.baselines.centralized import count_instances  # noqa: E402
from repro.core.listing import PSgL  # noqa: E402
from repro.graph.binfmt import write_csrbin  # noqa: E402
from repro.graph.generators import rmat  # noqa: E402
from repro.graph.io import read_edge_list  # noqa: E402
from repro.pattern.catalog import get_pattern  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture
def edge_list(tmp_path):
    path = tmp_path / "graph.txt"
    inputs.write_edge_list(inputs.rmat_edges(7, 5), path)
    return path


def test_generator_is_repros_rmat():
    ours = inputs.rmat_edges(8, 3)
    theirs = sorted(rmat(8, avg_degree=inputs.AVG_DEGREE, seed=3).edges())
    assert [tuple(e) for e in ours.tolist()] == theirs


@pytest.mark.parametrize("pattern", sorted(baseline.COUNTERS))
def test_baseline_is_an_oracle(pattern, edge_list):
    graph, _ = read_edge_list(edge_list)
    expected = count_instances(graph, get_pattern(pattern))
    assert expected > 0
    assert baseline.count_file(pattern, edge_list) == expected


def test_baseline_counts_across_chunks(edge_list, monkeypatch):
    whole = {p: baseline.count_file(p, edge_list) for p in baseline.COUNTERS}
    monkeypatch.setattr(baseline, "CHUNK_ROWS", 64)
    assert {p: baseline.count_file(p, edge_list) for p in baseline.COUNTERS} == whole


def test_graph_is_drawn_to_the_stated_size():
    workload = WORKLOADS["clique4-rmat11"]
    _, count, _ = inputs.draw_graph(
        workload.pattern, workload.scale, 7, workload.instances)
    assert abs(count - workload.instances) <= inputs.TOLERANCE * workload.instances


def test_names_follow_the_contract():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_smoke_matrix(tmp_path):
    out = tmp_path / "smoke.json"
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, HERE / "run.py", "--smoke", "--out", out],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert time.monotonic() - started < 30
    report = json.loads(out.read_text())
    assert set(report) == {
        f"{name}/trace{t}" for name in WORKLOADS for t in (0, 1)}
    for key, entry in report.items():
        section = "per_layer" if key.endswith("/trace1") else "end_to_end"
        assert entry["correct"] and entry["failed"] == 0 and entry["attempted"] >= 1
        assert {n: m["unit"] for n, m in entry["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[section]}
        for name in entry["metrics"]:
            assert name in done.stdout
        if section == "end_to_end":
            # A child's ru_maxrss starts from its parent's RSS: the
            # harness has to stay smaller than a bare interpreter.
            assert entry["metrics"]["peak_rss_mb"]["value"] < 100
            assert all(m["value"] > 0 for m in entry["metrics"].values())


def test_wrong_oracle_is_a_failure(monkeypatch, capsys):
    class WrongOracle(run.Run):
        def checked(self, child, count):
            return super().checked(child, count + 1)

    monkeypatch.setattr(run, "Run", WrongOracle)
    code = run.main(["--workload", "tri-rmat12", "--smoke"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_missing_program_is_refused(tmp_path):
    bare = tmp_path / "benchmarks" / "e2e"
    bare.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bare / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "tri-rmat12",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("name", ["tri-rmat12", "square-rmat10", "clique4-rmat11"])
def test_proxies_leave_the_run_unchanged(name, tmp_path):
    workload = smoke(WORKLOADS[name])
    edges, count, _ = inputs.draw_graph(workload.pattern, workload.scale, 2, 0)
    edge_list = tmp_path / "graph.txt"
    inputs.write_edge_list(edges, edge_list)
    graph, _ = read_edge_list(edge_list)
    csrbin = tmp_path / "graph.csrbin"
    write_csrbin(graph, csrbin)

    metrics, spans = layers.traced_run(
        "t", workload.pattern, edge_list, csrbin, "text", "serial")
    plain = PSgL(
        graph, num_workers=layers.WORKERS, strategy=layers.STRATEGY,
        seed=layers.ENGINE_SEED, wire="columnar",
    ).run(get_pattern(workload.pattern))

    assert metrics["count"] == plain.count == count
    assert metrics["bsp.engine.makespan_cost"] == plain.makespan
    assert metrics["core.expand.gpsis"] == plain.total_gpsis
    assert metrics["core.edge_index.probes"] == plain.index_queries
    assert metrics["core.distribution.choose_calls"] > 0
    # Self time never exceeds total, and the proxies' time is inside compute.
    for total, own in spans.seconds().values():
        assert -1e-9 <= own <= total + 1e-9
