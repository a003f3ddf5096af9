"""Benchmark harness: datasets, runner, rendering, per-figure experiments."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".datasets": (
        "SPECS",
        "DatasetSpec",
        "clear_cache",
        "dataset_names",
        "dataset_summary",
        "load_dataset",
    ),
    ".runner": (
        "EXPERIMENT_IDS",
        "ExperimentReport",
        "run_all",
        "run_experiment",
    ),
    ".tables": ("format_series", "format_table", "ratio"),
})
