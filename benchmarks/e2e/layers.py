"""One traced in-process run: where one ``psgl count`` spends its time.

The end-to-end numbers come from untraced CLI subprocesses (``run.py``);
this module is the separate traced run.  It repeats what ``psgl count``
does, step by step, with the harness's own clock around each call into a
layer's public function, hands the driver delegating proxies for the edge
index and the distribution strategy (serial backend only: a proxy's
clock does not come back from a worker process), and turns the engine's
``repro.obs.Tracer`` events into per-superstep spans.

Every span is ``{"id", "name", "start", "end", "parent"}``; a layer's
self time is its spans' duration minus the part their children cover.

Run as a subprocess, so each traced run is as cold as a CLI run::

    python layers.py ID PATTERN EDGE_LIST CSRBIN {text|csrbin} {serial|process} SPANS_OUT

prints one JSON object: the per-layer metrics of that run.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

from repro.core.distribution import DistributionStrategy, make_strategy
from repro.core.edge_index import EdgeIndexBase, build_edge_index
from repro.core.init_vertex import select_initial_vertex
from repro.core.listing import PSgL
from repro.graph.binfmt import load_mapped
from repro.graph.io import read_edge_list
from repro.graph.ordered import OrderedGraph
from repro.graph.partition import random_partition
from repro.obs import Tracer
from repro.pattern.automorphism import automorphisms, break_automorphisms
from repro.pattern.catalog import get_pattern

from workloads import ENGINE_SEED, PROCS, STRATEGY, WORKERS


class Spans:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.rows = []
        self._open = []

    def add(self, name, start, end, parent, **counts):
        row = {"id": self.run_id, "name": name, "start": start, "end": end,
               "parent": parent, **counts}
        self.rows.append(row)
        return len(self.rows) - 1

    @contextmanager
    def span(self, name):
        index = self.add(name, time.perf_counter(), None,
                         self._open[-1] if self._open else None)
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.rows[index]["end"] = time.perf_counter()

    def seconds(self):
        """``{name: (total, self)}`` summed over the spans of each name."""
        covered = [0.0] * len(self.rows)
        for row in self.rows:
            if row["parent"] is not None:
                covered[row["parent"]] += row["end"] - row["start"]
        out = {}
        for row, inside in zip(self.rows, covered):
            total, own = out.get(row["name"], (0.0, 0.0))
            duration = row["end"] - row["start"]
            out[row["name"]] = (total + duration, own + duration - inside)
        return out


class TimedIndex(EdgeIndexBase):
    """Delegates every probe to ``inner`` and clocks it."""

    def __init__(self, inner):
        self.inner = inner
        self.seconds = 0.0
        self.calls = 0

    # The expansion kernel adds to these counters from outside.
    queries = property(lambda self: self.inner.queries,
                       lambda self, value: setattr(self.inner, "queries", value))
    positives = property(lambda self: self.inner.positives,
                         lambda self, value: setattr(self.inner, "positives", value))

    def set_kernel(self, kernel):
        self.inner.set_kernel(kernel)

    def reset_statistics(self):
        self.inner.reset_statistics()

    def _timed(self, probe, *args):
        start = time.perf_counter()
        answer = probe(*args)
        self.seconds += time.perf_counter() - start
        self.calls += 1
        return answer

    def might_contain(self, u, v):
        return self._timed(self.inner.might_contain, u, v)

    def might_contain_many(self, candidates, image):
        return self._timed(self.inner.might_contain_many, candidates, image)

    def might_contain_pairs(self, us, vs):
        return self._timed(self.inner.might_contain_pairs, us, vs)


class TimedStrategy(DistributionStrategy):
    """Delegates every choice to ``inner`` and clocks it."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.seconds = 0.0
        self.calls = 0
        self.rows = 0

    def choose(self, gpsi, candidates, pattern, graph, partition, worker_state):
        start = time.perf_counter()
        chosen = self.inner.choose(
            gpsi, candidates, pattern, graph, partition, worker_state)
        self.seconds += time.perf_counter() - start
        self.calls += 1
        self.rows += 1
        return chosen

    def choose_many(self, mapping, grays, white_counts, graph, partition,
                    worker_state):
        start = time.perf_counter()
        chosen = self.inner.choose_many(
            mapping, grays, white_counts, graph, partition, worker_state)
        self.seconds += time.perf_counter() - start
        self.calls += 1
        self.rows += len(mapping)
        return chosen


class SpanTracer(Tracer):
    """A Tracer that also lays each superstep's events out as spans.

    The engine reports a superstep's three phases as durations
    (``build_ms``, ``wall_ms``, ``merge_ms``) once the superstep is over;
    they ran back to back, so they are laid end to end from the moment
    the previous superstep ended.  The proxies' clocks are read at the
    same moment: what they gained since the last superstep is the time
    this superstep's compute spent choosing and probing.
    """

    def __init__(self, spans, parent, index=None, strategy=None):
        super().__init__()
        self.spans = spans
        self.parent = parent
        self.proxies = [
            ("core.distribution.choose", strategy),
            ("core.edge_index.probe", index),
        ]
        self._seen = {name: (0.0, 0) for name, _ in self.proxies}
        self._mark = time.perf_counter()
        self._merge_ms = 0.0

    def emit(self, kind, superstep=None, worker=None, wall_ms=None, **data):
        super().emit(kind, superstep, worker, wall_ms, **data)
        if kind == "barrier":
            self._merge_ms = data["merge_ms"]
        elif kind == "executor":
            self._mark = time.perf_counter()
        elif kind == "superstep":
            at = self._mark
            for name, ms in (("bsp.message.build", data["build_ms"]),
                             ("runtime.superstep.compute", wall_ms),
                             ("bsp.message.merge", self._merge_ms)):
                index = self.spans.add(name, at, at + ms / 1000.0, self.parent,
                                       superstep=superstep)
                if name == "runtime.superstep.compute":
                    self._proxy_spans(index, at)
                at += ms / 1000.0
            self._mark = time.perf_counter()

    def _proxy_spans(self, compute, at):
        for name, proxy in self.proxies:
            if proxy is None:
                continue
            seconds, calls = self._seen[name]
            self._seen[name] = (proxy.seconds, proxy.calls)
            if proxy.calls > calls:
                self.spans.add(name, at, at + proxy.seconds - seconds, compute,
                               calls=proxy.calls - calls)
                at += proxy.seconds - seconds


def traced_run(run_id, pattern_name, edge_list, csrbin, source, backend):
    """One ``psgl count`` taken apart; returns ``(metrics, spans)``."""
    spans = Spans(run_id)
    serial = backend == "serial"
    with spans.span("run"):
        with spans.span("graph.io.read"):
            graph, _ = read_edge_list(edge_list)
        with spans.span("graph.binfmt.load_mapped"):
            mapped = load_mapped(csrbin)
        if source == "csrbin":
            graph = mapped
        with spans.span("graph.ordered.build"):
            ordered = OrderedGraph(graph)
        with spans.span("graph.partition.build"):
            partition = random_partition(
                graph.num_vertices, WORKERS, seed=ENGINE_SEED)
        with spans.span("pattern.prepare"):
            pattern = get_pattern(pattern_name)
            if not pattern.partial_order and len(automorphisms(pattern)) > 1:
                pattern = break_automorphisms(pattern)
            initial = select_initial_vertex(pattern, graph)
        with spans.span("core.edge_index.build"):
            index = build_edge_index(graph, kind="bloom", seed=ENGINE_SEED)
        index_bytes = index.memory_bytes()
        strategy = make_strategy(STRATEGY)
        if serial:
            index, strategy = TimedIndex(index), TimedStrategy(strategy)
        with spans.span("bsp.engine.run") as engine_span:
            tracer = SpanTracer(spans, engine_span,
                                index if serial else None,
                                strategy if serial else None)
            result = PSgL(
                graph,
                num_workers=WORKERS,
                strategy=strategy,
                edge_index=index,
                partition=partition,
                ordered=ordered,
                seed=ENGINE_SEED,
                backend=backend,
                procs=None if serial else PROCS,
                wire="columnar",
                trace=tracer,
            ).run(pattern, initial_vertex=initial)
    return layer_metrics(spans, tracer, result, graph, index_bytes,
                         index if serial else None,
                         strategy if serial else None), spans


def layer_metrics(spans, tracer, result, graph, index_bytes, index, strategy):
    seconds = spans.seconds()

    def total(name):
        return seconds.get(name, (0.0, 0.0))[0]

    def event_sum(kind, key, first_superstep=0):
        return sum(e.data.get(key, 0) for e in tracer.by_kind(kind)
                   if (e.superstep or 0) >= first_superstep)

    # Superstep 0 is one initialisation call per vertex, not expansion.
    compute_calls = event_sum("worker", "compute_calls", first_superstep=1)
    gpsis = result.total_gpsis
    probes = result.index_queries
    totals = result.ledger.worker_totals()
    executor = tracer.by_kind("executor")
    return {
        "graph.io.read_s": total("graph.io.read"),
        "graph.io.edges_per_s": graph.num_edges / total("graph.io.read"),
        "graph.binfmt.load_mapped_s": total("graph.binfmt.load_mapped"),
        "graph.ordered.build_s": total("graph.ordered.build"),
        "graph.partition.build_s": total("graph.partition.build"),
        "pattern.prepare_s": total("pattern.prepare"),
        "core.edge_index.build_s": total("core.edge_index.build"),
        "core.edge_index.bytes": index_bytes,
        "core.edge_index.probe_s": total("core.edge_index.probe"),
        "core.edge_index.probe_calls": index.calls if index else 0,
        "core.edge_index.probes": probes,
        "core.edge_index.pruned_ratio":
            result.index_pruned / probes if probes else 0.0,
        "core.distribution.choose_s": total("core.distribution.choose"),
        "core.distribution.choose_calls": strategy.calls if strategy else 0,
        "core.distribution.rows": strategy.rows if strategy else 0,
        "core.distribution.imbalance":
            max(totals) / (sum(totals) / len(totals)),
        "core.expand.self_s":
            seconds.get("runtime.superstep.compute", (0.0, 0.0))[1],
        "core.expand.compute_calls": compute_calls,
        "core.expand.rows_per_call": gpsis / compute_calls,
        "core.expand.gpsis": gpsis,
        "core.expand.gpsis_per_instance": gpsis / result.count,
        "bsp.engine.run_s": total("bsp.engine.run"),
        "bsp.engine.supersteps": result.supersteps,
        "bsp.engine.makespan_cost": result.makespan,
        "bsp.message.build_s": total("bsp.message.build"),
        "bsp.message.merge_s": total("bsp.message.merge"),
        "bsp.message.wire_bytes": event_sum("barrier", "wire_bytes"),
        "bsp.message.peak_live_gpsis": max(
            e.data["live_messages"] for e in tracer.by_kind("barrier")),
        "runtime.superstep.compute_s": total("runtime.superstep.compute"),
        "runtime.executor.setup_s": sum(
            (e.wall_ms or 0.0) for e in executor) / 1000.0,
        "runtime.export.bytes": event_sum("export", "total_bytes"),
        "obs.trace_events": len(tracer),
        "count": result.count,
    }


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 7:
        print(__doc__, file=sys.stderr)
        return 2
    *run_args, spans_out = args
    metrics, spans = traced_run(*run_args)
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump(spans.rows, fh)
    print(json.dumps(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
