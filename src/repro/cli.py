"""Command-line interface: ``psgl`` (or ``python -m repro``).

Subcommands
-----------
``count``     list a pattern in a dataset or edge-list file and print stats
``datasets``  show the Table 1 analog registry
``patterns``  show the PG1-PG5 catalog with partial orders
``stats``     degree statistics and the Property 1 skew report
``bench``     regenerate paper tables/figures (all or selected)
``serve``     run the resident subgraph-query service (docs/service.md)
``convert``   stream an edge list into the binary ``.csrbin`` format

Examples
--------
::

    psgl count --pattern PG1 --dataset wikitalk --workers 16
    psgl count --pattern C5 --edge-list my_graph.txt --strategy WA,0.5
    psgl convert soc-LiveJournal1.txt lj.csrbin
    psgl count --pattern PG2 --csrbin lj.csrbin --backend process \\
        --spill-dir /tmp/spill --memory-watermark-bytes 64000000
    psgl bench --experiments fig3 fig8 --scale 0.5 --out results/
    psgl serve --dataset wikitalk --port 8707

Errors from the library surface as one-line ``psgl: error: ...``
messages with a distinct exit code per failure family (see
``EXIT_CODES``), never as tracebacks.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import List, Optional

from .bench.datasets import dataset_summary, load_dataset
from .bench.runner import EXPERIMENT_IDS, run_all
from .bench.tables import format_table
from .bsp.config import ExecutionConfig
from .core.distribution import make_strategy
from .core.listing import PSgL, check_num_workers
from .exceptions import (
    BudgetExceededError,
    DistributionError,
    EngineError,
    GraphError,
    PatternError,
    QuerySpecError,
    ReproError,
)
from .graph.io import read_edge_list
from .graph.stats import skew_report
from .obs import Tracer, straggler_report, write_chrome_trace, write_jsonl
from .pattern.catalog import describe, get_pattern, paper_patterns, pattern_from_edges
from .runtime import available_backends


def _count_execution_fields():
    """The ``ExecutionConfig`` fields ``psgl count`` has a flag for."""
    return [
        spec for spec in dataclasses.fields(ExecutionConfig)
        if spec.metadata["cli"]
    ]


def _add_execution_flag(parser, spec: dataclasses.Field) -> None:
    """One flag for one ``ExecutionConfig`` field, rendered from the
    field's own declaration: name, type, choices, default, help."""
    flag = "--" + spec.name.replace("_", "-")
    if spec.metadata["kind"] is bool:
        parser.add_argument(flag, action="store_true", help=spec.metadata["help"])
        return
    parser.add_argument(
        flag,
        type=spec.metadata["kind"],
        default=spec.default,
        # Backend names live in the runtime's open registry.
        choices=(
            available_backends()
            if spec.name == "backend"
            else spec.metadata["choices"]
        ),
        help=spec.metadata["help"],
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psgl",
        description="PSgL: parallel subgraph listing (SIGMOD 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="list a pattern and print statistics")
    pattern_group = count.add_mutually_exclusive_group(required=True)
    pattern_group.add_argument(
        "--pattern", help="PG1-PG5, K<k>, C<k>, P<k>, S<k>"
    )
    pattern_group.add_argument(
        "--pattern-edges",
        help="custom pattern as 1-based edges, e.g. '1-2,2-3,3-1'",
    )
    source = count.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", help="a registered synthetic analog")
    source.add_argument("--edge-list", help="path to a whitespace edge list")
    source.add_argument(
        "--csrbin",
        help="path to a binary .csrbin graph (see `psgl convert`); "
        "opened as memory-mapped views, nothing is copied into RAM",
    )
    count.add_argument("--workers", type=int, default=8)
    count.add_argument("--strategy", default="WA,0.5")
    count.add_argument("--scale", type=float, default=1.0)
    count.add_argument("--seed", type=int, default=0)
    count.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a per-superstep trace: .jsonl writes JSON lines, "
        "anything else a chrome://tracing-loadable trace-event file",
    )
    count.add_argument(
        "--trace-report",
        action="store_true",
        help="print the straggler/imbalance report after the run",
    )
    count.add_argument(
        "--no-index", action="store_true", help="disable the bloom edge index"
    )
    count.add_argument(
        "--initial-vertex", type=int, default=None, help="force the initial pattern vertex (1-based)"
    )
    execution = count.add_argument_group(
        "execution", "how the job runs; results are identical (docs/api.md)"
    )
    for spec in _count_execution_fields():
        _add_execution_flag(execution, spec)

    sub.add_parser("datasets", help="show the dataset registry (Table 1 analogs)")
    sub.add_parser("patterns", help="show the PG1-PG5 catalog")

    convert = sub.add_parser(
        "convert",
        help="stream an edge list into the binary .csrbin graph format",
    )
    convert.add_argument("source", help="whitespace edge-list file to read")
    convert.add_argument("target", help=".csrbin file to write")
    convert.add_argument(
        "--no-dedup",
        action="store_true",
        help="treat duplicate undirected edges as an error instead of "
        "collapsing them",
    )
    convert.add_argument(
        "--allow-self-loops",
        action="store_true",
        help="drop self loops instead of treating them as an error",
    )
    convert.add_argument(
        "--chunk-bytes",
        type=int,
        default=None,
        help="text bytes parsed per streaming chunk (default 16 MiB)",
    )
    convert.add_argument(
        "--tmp-dir",
        default=None,
        metavar="DIR",
        help="directory for staging temp files (default: next to target)",
    )

    stats = sub.add_parser("stats", help="degree statistics and skew report")
    stats_source = stats.add_mutually_exclusive_group(required=True)
    stats_source.add_argument("--dataset", help="a registered synthetic analog")
    stats_source.add_argument("--edge-list", help="path to an edge list")
    stats_source.add_argument("--csrbin", help="path to a binary .csrbin graph")
    stats.add_argument("--scale", type=float, default=1.0)

    bench = sub.add_parser("bench", help="regenerate paper tables and figures")
    bench.add_argument(
        "--experiments",
        nargs="*",
        default=None,
        help=f"subset of: {' '.join(EXPERIMENT_IDS)} (default: all)",
    )
    bench.add_argument("--scale", type=float, default=1.0)
    bench.add_argument("--out", type=Path, default=None, help="directory for .txt reports")
    bench.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="DIR",
        help="directory for per-experiment Chrome trace files "
        "(experiments that support tracing write <id>_trace.json)",
    )

    serve = sub.add_parser(
        "serve", help="run the resident subgraph-query service"
    )
    serve_source = serve.add_mutually_exclusive_group(required=True)
    serve_source.add_argument("--dataset", help="a registered synthetic analog")
    serve_source.add_argument("--edge-list", help="path to an edge list")
    serve_source.add_argument("--csrbin", help="path to a binary .csrbin graph")
    serve.add_argument("--scale", type=float, default=1.0)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8707,
        help="TCP port (0 binds an ephemeral port; pair with --port-file)",
    )
    serve.add_argument(
        "--port-file",
        type=Path,
        default=None,
        help="write the bound port here once listening (for scripts/CI)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=2,
        help="concurrently executing jobs (worker-pool width)",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=32,
        help="queued jobs admitted before submissions get HTTP 429",
    )
    serve.add_argument(
        "--cache-bytes",
        type=int,
        default=32 * 1024 * 1024,
        help="result-cache byte budget (0 disables caching)",
    )
    serve.add_argument(
        "--max-supersteps",
        type=int,
        default=None,
        help="default per-job superstep budget (requests may tighten it)",
    )
    serve.add_argument(
        "--max-wall-seconds",
        type=float,
        default=None,
        help="default per-job wall-clock budget",
    )
    serve.add_argument(
        "--max-live-gpsis",
        type=int,
        default=None,
        help="default per-job cap on live intermediate results",
    )
    serve.add_argument(
        "--no-job-traces",
        action="store_true",
        help="skip per-job tracing (disables /jobs/<id>/trace)",
    )
    # The server-owned execution fields, applied to every executed job.
    for spec in dataclasses.fields(ExecutionConfig):
        if spec.name in ("spill_dir", "memory_watermark_bytes"):
            _add_execution_flag(serve, spec)
    return parser


def _load_graph_source(args: argparse.Namespace):
    """Resolve the ``--dataset``/``--edge-list``/``--csrbin`` source group."""
    if args.dataset:
        return load_dataset(args.dataset, args.scale)
    if getattr(args, "csrbin", None):
        from .graph.binfmt import load_mapped

        return load_mapped(args.csrbin)
    graph, _ = read_edge_list(args.edge_list)
    return graph


def _cmd_count(args: argparse.Namespace) -> int:
    # Everything that can be refused without the graph is refused first:
    # a typo must not cost a multi-minute load.
    config = ExecutionConfig.from_mapping(
        {spec.name: getattr(args, spec.name) for spec in _count_execution_fields()}
    )
    check_num_workers(args.workers)
    strategy = make_strategy(args.strategy)
    if args.pattern:
        pattern = get_pattern(args.pattern)
    else:
        pattern = pattern_from_edges(args.pattern_edges)
    graph = _load_graph_source(args)
    tracer = Tracer() if (args.trace or args.trace_report) else None
    psgl = PSgL(
        graph,
        num_workers=args.workers,
        strategy=strategy,
        edge_index="none" if args.no_index else "bloom",
        seed=args.seed,
        config=config,
        trace=tracer,
    )
    initial = None if args.initial_vertex is None else args.initial_vertex - 1
    result = psgl.run(pattern, initial_vertex=initial)
    print(f"graph      : {graph}")
    print(f"pattern    : {describe(pattern)}")
    print(f"instances  : {result.count:,}")
    print(f"supersteps : {result.supersteps}")
    print(f"makespan   : {result.makespan:,.0f} cost units")
    print(f"gpsis      : {result.total_gpsis:,}")
    print(f"initial vp : v{result.initial_vertex + 1}")
    print(f"strategy   : {result.strategy}")
    print(f"backend    : {config.backend}")
    print(f"wire plane : {result.wire}")
    print(f"shuffle    : {config.shuffle}")
    print(f"kernel     : {result.kernel} (requested {config.kernel})")
    if config.steal:
        print(f"steals     : {result.steals}")
    if config.spill_dir is not None:
        print(
            f"spilled    : {result.ledger.spill_chunks} chunk(s) / "
            f"{result.ledger.spill_bytes:,} bytes past the watermark"
        )
    print(f"wall time  : {result.wall_seconds:.3f}s")
    if tracer is not None and args.trace:
        path = Path(args.trace)
        if path.suffix == ".jsonl":
            write_jsonl(tracer, path)
            trace_format = "JSONL"
        else:
            write_chrome_trace(tracer, path)
            trace_format = "chrome trace-event"
        print(f"trace      : {path} ({len(tracer)} events, {trace_format})")
    if tracer is not None and args.trace_report:
        print()
        print(straggler_report(tracer))
    return 0


def _cmd_datasets(_: argparse.Namespace) -> int:
    rows = dataset_summary()
    print(
        format_table(
            ["analog", "paper graph", "paper size", "|V|", "|E|", "max deg", "gamma"],
            [
                [
                    r["name"],
                    r["paper_name"],
                    r["paper_size"],
                    r["vertices"],
                    r["edges"],
                    r["max_degree"],
                    r["gamma"],
                ]
                for r in rows
            ],
        )
    )
    return 0


def _cmd_patterns(_: argparse.Namespace) -> int:
    for pattern in paper_patterns().values():
        print(describe(pattern))
        print()
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    # Deferred import: keeps `psgl count --dataset ...` from paying for
    # the converter machinery it never touches.
    from .graph import binfmt

    kwargs = {}
    if args.chunk_bytes is not None:
        kwargs["chunk_bytes"] = args.chunk_bytes
    stats = binfmt.convert_edge_list(
        args.source,
        args.target,
        dedup=not args.no_dedup,
        allow_self_loops=args.allow_self_loops,
        tmp_dir=args.tmp_dir,
        **kwargs,
    )
    print(f"source     : {args.source}")
    print(f"target     : {args.target} ({stats.output_bytes:,} bytes)")
    print(f"vertices   : {stats.num_vertices:,}")
    print(f"edges      : {stats.num_edges:,} (from {stats.raw_edges:,} input lines)")
    if stats.duplicates_dropped:
        print(f"dedup      : {stats.duplicates_dropped:,} duplicate edge(s) collapsed")
    if stats.self_loops_dropped:
        print(f"self loops : {stats.self_loops_dropped:,} dropped")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = _load_graph_source(args)
    report = skew_report(graph)
    avg = 2 * graph.num_edges / max(graph.num_vertices, 1)
    print(f"graph        : {graph}")
    print(f"avg degree   : {avg:.2f}")
    print(f"max degree   : {graph.max_degree()}")
    print(f"gamma degree : {report.gamma_degree}")
    print(f"gamma nb     : {report.gamma_nb}")
    print(f"gamma ns     : {report.gamma_ns}")
    print(f"Property 1   : {'holds' if report.property1_holds else 'not fitted'}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    run_all(
        scale=args.scale,
        experiments=args.experiments,
        out_dir=args.out,
        trace_dir=args.trace,
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Deferred import: the service package pulls in the HTTP stack,
    # which no other subcommand needs.
    from .service import GraphContext, ResourceBudget, ResultCache, SubgraphService, serve

    if args.dataset:
        print(f"loading dataset {args.dataset}@{args.scale} ...")
        context = GraphContext.from_dataset(args.dataset, args.scale)
    elif args.csrbin:
        print(f"mapping csrbin {args.csrbin} ...")
        context = GraphContext.from_csrbin(args.csrbin)
    else:
        print(f"loading edge list {args.edge_list} ...")
        context = GraphContext.from_edge_list(args.edge_list)
    print(f"graph      : {context.graph}")
    print(f"fingerprint: {context.fingerprint}")
    service = SubgraphService(
        context,
        max_inflight=args.max_inflight,
        max_queue_depth=args.max_queue_depth,
        default_budget=ResourceBudget(
            max_live_gpsis=args.max_live_gpsis,
            max_supersteps=args.max_supersteps,
            max_wall_seconds=args.max_wall_seconds,
        ),
        cache=ResultCache(max_bytes=args.cache_bytes),
        trace_jobs=not args.no_job_traces,
        spill_dir=args.spill_dir,
        memory_watermark_bytes=args.memory_watermark_bytes,
    )

    def _ready(server) -> None:
        host, port = server.server_address[:2]
        if args.port_file is not None:
            args.port_file.write_text(f"{port}\n")
        print(f"listening  : http://{host}:{port} (POST /jobs, GET /metrics)")

    serve(service, host=args.host, port=args.port, ready_callback=_ready)
    return 0


#: Exit-code mapping for library errors, most specific first.  Scripts
#: can branch on the family without parsing stderr; 1 stays reserved
#: for unexpected failures and 2 for argparse usage errors.
EXIT_CODES = (
    (PatternError, 3),
    (QuerySpecError, 3),
    (GraphError, 4),
    (BudgetExceededError, 6),
    (EngineError, 5),
    (DistributionError, 5),
    (ReproError, 7),
)


def _exit_code_for(exc: ReproError) -> int:
    for exc_type, code in EXIT_CODES:
        if isinstance(exc, exc_type):
            return code
    return 7


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``psgl`` console script."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "count": _cmd_count,
        "convert": _cmd_convert,
        "datasets": _cmd_datasets,
        "patterns": _cmd_patterns,
        "stats": _cmd_stats,
        "bench": _cmd_bench,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"psgl: error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    except FileNotFoundError as exc:
        print(f"psgl: error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
