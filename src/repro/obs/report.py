"""Human-readable straggler / imbalance report over a trace.

Answers the Figure 5 question — *which worker is the straggler, and
when?* — from a recorded trace instead of a rerun: per-superstep
max/mean cost with the slowest worker named, per-worker totals with a
share-of-makespan bar, and the barrier queue depths that foreshadow the
paper's per-node OOM failure mode.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .tracer import Tracer

_BAR_WIDTH = 30


def _bar(fraction: float) -> str:
    filled = int(round(_BAR_WIDTH * max(0.0, min(1.0, fraction))))
    return "#" * filled + "." * (_BAR_WIDTH - filled)


def straggler_report(tracer: Tracer, top: int = 5) -> str:
    """Render the imbalance report for (possibly multi-job) ``tracer``.

    ``top`` bounds the per-superstep section to the costliest supersteps
    so large traces stay readable; per-worker totals always cover the
    whole run.
    """
    worker_events = tracer.by_kind("worker")
    if not worker_events:
        return "trace contains no worker events (nothing ran, or tracing was off)"

    # Per-superstep rows keyed by emission order so multi-job traces with
    # repeating superstep numbers stay distinct.
    step_rows: List[Tuple[int, Dict[int, float], int]] = []  # (superstep, costs, msgs)
    last_superstep = None
    for event in worker_events:
        if last_superstep is None or event.superstep != last_superstep:
            if not step_rows or step_rows[-1][0] != event.superstep:
                step_rows.append((event.superstep, {}, 0))
            last_superstep = event.superstep
        superstep, costs, msgs = step_rows[-1]
        costs[event.worker] = costs.get(event.worker, 0.0) + float(
            event.data.get("cost", 0.0)
        )
        step_rows[-1] = (
            superstep,
            costs,
            msgs + int(event.data.get("messages", 0)),
        )

    barriers = {e.superstep: e.data for e in tracer.by_kind("barrier")}
    walls = {e.superstep: e.wall_ms for e in tracer.by_kind("superstep")}

    lines: List[str] = []
    meta = tracer.meta
    if meta:
        context = ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        lines.append(f"trace: {context}")
    totals = tracer.worker_totals()
    makespan = sum(max(costs.values()) for _, costs, _ in step_rows if costs)
    mean = sum(totals) / max(len(totals), 1)
    imbalance = 1.0 if mean == 0 else max(totals) / mean
    lines.append(
        f"{len(step_rows)} superstep(s), {len(totals)} worker(s), "
        f"makespan {makespan:,.0f} cost units, imbalance {imbalance:.2f} (max/mean)"
    )

    lines.append("")
    lines.append(f"costliest supersteps (top {min(top, len(step_rows))}):")
    ranked = sorted(
        step_rows, key=lambda row: max(row[1].values(), default=0.0), reverse=True
    )[:top]
    for superstep, costs, msgs in ranked:
        if not costs:
            continue
        slowest = max(costs, key=costs.get)
        step_mean = sum(costs.values()) / len(costs)
        ratio = costs[slowest] / step_mean if step_mean else 1.0
        wall = walls.get(superstep)
        wall_text = f", wall {wall:.1f} ms" if wall is not None else ""
        barrier = barriers.get(superstep, {})
        queue = barrier.get("live_messages")
        queue_text = f", barrier queue {queue:,}" if queue is not None else ""
        lines.append(
            f"  s{superstep}: max {costs[slowest]:,.0f} on worker {slowest} "
            f"({ratio:.2f}x mean), {msgs:,} msgs{queue_text}{wall_text}"
        )

    lines.append("")
    lines.append("per-worker totals (share of slowest):")
    slowest_total = max(totals) if totals else 0.0
    for worker, total in enumerate(totals):
        fraction = total / slowest_total if slowest_total else 0.0
        marker = "  <- straggler" if total == slowest_total and slowest_total else ""
        lines.append(f"  worker {worker:>3}: {_bar(fraction)} {total:>12,.0f}{marker}")
    return "\n".join(lines)
