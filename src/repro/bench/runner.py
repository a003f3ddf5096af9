"""Experiment runner shared by the benchmark harness and the CLI.

Each experiment module under :mod:`repro.bench.experiments` exposes a
``run(scale=...) -> ExperimentReport``; the runner discovers, executes and
renders them, and can persist every report under ``results/`` so that
EXPERIMENTS.md can be regenerated from one command.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

EXPERIMENT_IDS: List[str] = [
    "table1",
    "fig4",
    "fig3",
    "fig5",
    "fig6",
    "table2",
    "fig7",
    "table3",
    "table4",
    "fig8",
]


@dataclass
class ExperimentReport:
    """One experiment's regenerated numbers plus its rendered text."""

    experiment: str
    title: str
    text: str
    data: Dict[str, object] = field(default_factory=dict)
    seconds: float = 0.0

    def render(self, timed: bool = True) -> str:
        """Full printable block; ``timed=False`` leaves the run time out
        of the header, so the text depends on the results alone."""
        took = f" ({self.seconds:.1f}s)" if timed else ""
        header = f"== {self.experiment}: {self.title}{took} =="
        return f"{header}\n{self.text}\n"


def write_report(report: ExperimentReport, out_dir: Path) -> Path:
    """Persist ``report`` as ``<out_dir>/<experiment>.txt`` without its run
    time: a rerun with the same results rewrites the same bytes."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{report.experiment}.txt"
    path.write_text(report.render(timed=False))
    return path


def _module_for(experiment: str):
    return importlib.import_module(f"repro.bench.experiments.{experiment}")


def _supported_kwargs(run_func: Callable, kwargs: Dict[str, object]) -> Dict[str, object]:
    """Keep only kwargs the experiment's ``run`` actually accepts
    (today: ``trace``, which fig5 alone takes)."""
    signature = inspect.signature(run_func)
    if any(
        p.kind is inspect.Parameter.VAR_KEYWORD
        for p in signature.parameters.values()
    ):
        return dict(kwargs)
    return {k: v for k, v in kwargs.items() if k in signature.parameters}


def run_experiment(experiment: str, scale: float = 1.0, **kwargs) -> ExperimentReport:
    """Run one experiment by id (``fig3``, ``table2``, ...)."""
    if experiment not in EXPERIMENT_IDS:
        raise ValueError(
            f"unknown experiment {experiment!r}; choose from {EXPERIMENT_IDS}"
        )
    module = _module_for(experiment)
    started = perf_counter()
    kwargs = _supported_kwargs(module.run, kwargs)
    report: ExperimentReport = module.run(scale=scale, **kwargs)
    report.seconds = perf_counter() - started
    return report


def run_all(
    scale: float = 1.0,
    experiments: Optional[Sequence[str]] = None,
    out_dir: Optional[Path] = None,
    progress: Optional[Callable[[str], None]] = print,
    trace_dir: Optional[Path] = None,
) -> List[ExperimentReport]:
    """Run every (or the selected) experiment, optionally persisting the
    rendered text under ``out_dir``.  Experiments run on the ``PSgL``
    defaults; with ``trace_dir`` set, each
    experiment that accepts a ``trace`` kwarg records its runs into a
    tracer and a Chrome trace file lands at ``<trace_dir>/<id>_trace.json``.
    """
    from ..obs import Tracer, write_chrome_trace

    chosen = list(experiments) if experiments else list(EXPERIMENT_IDS)
    reports = []
    for experiment in chosen:
        if progress:
            progress(f"running {experiment} (scale={scale}) ...")
        kwargs = {}
        tracer = None
        if trace_dir is not None:
            tracer = Tracer()
            kwargs["trace"] = tracer
        report = run_experiment(experiment, scale=scale, **kwargs)
        reports.append(report)
        if progress:
            progress(report.render())
        if out_dir is not None:
            write_report(report, out_dir)
        if tracer is not None and tracer.events:
            trace_dir.mkdir(parents=True, exist_ok=True)
            trace_path = write_chrome_trace(
                tracer, trace_dir / f"{experiment}_trace.json"
            )
            if progress:
                progress(f"trace written to {trace_path}")
    return reports
