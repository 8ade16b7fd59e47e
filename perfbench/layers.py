"""Which layer calls the traced run wraps, and the metrics derived from them.

Every metric the benchmark reports is declared once in :data:`METRICS`,
with its unit, which direction is better, and — for a layer metric —
which end-to-end metric it should move on which workload. The
benchmark's ``BENCHMARK.json`` mirrors the names, units and directions;
the self-test checks that the two agree.

Layer times and counts are per Monte-Carlo run: totals over the traced
campaign divided by its run count. Counts marked ``computed`` are
derived from the wrapped calls' arguments and results, not measured.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

MIB = float(1 << 20)

#: Bytes per (device, segment) element of one repair round: the
#: float64 loss draw plus the boolean ``missing`` matrix.
REPAIR_BYTES_PER_ELEMENT = 9


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: What the metric is, in one line.
    definition: str
    #: For a layer metric: the end-to-end metric it should move, and where.
    moves: str = ""
    #: True for counts derived from arguments/results, not measured.
    computed: bool = False


END_TO_END = (
    Metric(
        "device_runs_per_s", "device-runs/s", "higher",
        "devices x Monte-Carlo runs / wall-clock, summed over the timed "
        "campaigns of one invocation",
    ),
    Metric(
        "peak_rss_mb", "MiB", "lower",
        "largest resident high-water mark of the benchmark process or any "
        "fused worker (getrusage maxrss)",
    ),
    Metric(
        "setup_s", "s", "lower",
        "median over fresh interpreters of: import repro, build the spec, "
        "run one small warm-up campaign (starting and stopping the fused "
        "pool where the workload uses one)",
    ),
)

PER_LAYER = (
    Metric(
        "traffic.generate_s", "s", "lower",
        "generate_fleet wall-clock",
        "device_runs_per_s on all workloads (small; cold path)",
    ),
    Metric(
        "grouping.cover_s", "s", "lower",
        "GroupingPolicy.group wall-clock, greedy_window_cover included",
        "device_runs_per_s and peak_rss_mb on cover-heavy and city-fused; "
        "none on repair-heavy",
    ),
    Metric(
        "grouping.peak_mb", "MiB", "lower",
        "largest traced allocation peak of one grouping call",
        "peak_rss_mb on cover-heavy and city-fused",
    ),
    Metric(
        "grouping.windows", "count", "lower",
        "sum over devices of cover horizon / DRX period",
        "device_runs_per_s and peak_rss_mb on cover-heavy and city-fused",
        computed=True,
    ),
    Metric(
        "grouping.groups", "count", "lower",
        "groups returned by GroupingPolicy.group",
        "device_runs_per_s on cover-heavy and city-fused",
    ),
    Metric(
        "core.directives_s", "s", "lower",
        "GroupingMechanism.plan self time (plan minus grouping)",
        "device_runs_per_s on cover-heavy (DR-SC) and repair-heavy (DR-SI)",
    ),
    Metric(
        "core.validate_s", "s", "lower",
        "MulticastPlan.validate wall-clock",
        "device_runs_per_s on city-fused",
    ),
    Metric(
        "core.validate_calls", "count", "higher",
        "MulticastPlan.validate calls (0 on the serial single-cell path)",
        "none; shows plan validation reaching every path",
    ),
    Metric(
        "sim.execute_s", "s", "lower",
        "CampaignExecutor.execute wall-clock",
        "device_runs_per_s on all workloads (small)",
    ),
    Metric(
        "repair.s", "s", "lower",
        "simulate_repair_rounds wall-clock",
        "device_runs_per_s on repair-heavy; less on cover-heavy and "
        "city-fused",
    ),
    Metric(
        "repair.peak_mb", "MiB", "lower",
        "largest traced allocation peak of one repair call",
        "peak_rss_mb on repair-heavy",
    ),
    Metric(
        "repair.rounds", "count", "lower",
        "repair rounds simulated, summed over cells",
        "device_runs_per_s on repair-heavy",
    ),
    Metric(
        "repair.draws", "count", "lower",
        "rounds x devices x segments loss draws",
        "device_runs_per_s on repair-heavy",
        computed=True,
    ),
    Metric(
        "repair.useful_draw_ratio", "ratio", "higher",
        "segments sent / (rounds x segments)",
        "device_runs_per_s on repair-heavy",
        computed=True,
    ),
    Metric(
        "repair.matrix_mb", "MiB", "lower",
        "largest devices x segments x 9 B repair matrix of one call",
        "peak_rss_mb on repair-heavy",
        computed=True,
    ),
    Metric(
        "coordination.partition_s", "s", "lower",
        "partition_fleet / attach_devices wall-clock",
        "device_runs_per_s on city-fused",
    ),
    Metric(
        "dispatch.tasks", "count", "lower",
        "streamed fused completions (cell tasks and run reductions)",
        "device_runs_per_s on city-fused",
    ),
    Metric(
        "dispatch.worker_busy_s", "s", "lower",
        "cell-task attach + plan + execute time in the workers",
        "device_runs_per_s and peak_rss_mb on city-fused",
    ),
    Metric(
        "dispatch.idle_share", "ratio", "lower",
        "1 - cell-task busy / (workers x campaign wall-clock)",
        "device_runs_per_s on city-fused",
    ),
    Metric(
        "dispatch.cell_skew", "ratio", "lower",
        "slowest cell / mean cell busy time, median over runs",
        "device_runs_per_s on city-fused",
    ),
    Metric(
        "dispatch.worker_rss_mb", "MiB", "lower",
        "largest worker VmHWM reported by a cell task",
        "peak_rss_mb on city-fused",
    ),
    Metric(
        "sharedmem.attach_s", "s", "lower",
        "cell-task shared-fleet attach and slice time",
        "device_runs_per_s on city-fused",
    ),
    Metric(
        "runner.self_s", "s", "lower",
        "run_scenario wall-clock not covered by any layer span",
        "device_runs_per_s on all workloads",
    ),
    Metric(
        "tracing.overhead", "ratio", "lower",
        "timing-pass traced campaign wall-clock / untraced wall-clock",
        "none; the cost of the traced run itself",
    ),
    Metric(
        "runs_failed", "runs", "lower",
        "runs that raised or failed the correctness check (also the "
        "result line's 'failed')",
        "none; must stay 0",
    ),
)

METRICS = {metric.name: metric for metric in END_TO_END + PER_LAYER}

#: Span name -> the layer it is booked to.
SPAN_LAYER = {
    "traffic.generate_fleet": "traffic",
    "grouping.group": "grouping",
    "setcover.greedy_window_cover": "grouping",
    "core.plan": "core.plan",
    "core.validate": "core.validate",
    "sim.execute": "sim",
    "reliability.simulate_repair_rounds": "repair",
    "coordination.partition_fleet": "coordination",
    "coordination.attach_devices": "coordination",
    "runner.run_scenario": "runner",
}


# ----------------------------------------------------------------------
# Wrapping the layer calls
# ----------------------------------------------------------------------
def _cover_counts(args: Dict[str, Any], _result: Any) -> Dict[str, float]:
    horizon = int(args["horizon_end"]) - int(args["horizon_start"])
    periods = np.asarray(args["periods"], dtype=np.int64)
    return {"windows": int((horizon // periods).sum())}


def _group_counts(_args: Dict[str, Any], decision: Any) -> Dict[str, float]:
    return {"groups": decision.n_groups}


def _repair_counts(args: Dict[str, Any], outcome: Any) -> Dict[str, float]:
    n_devices = int(args["n_devices"])
    segments = outcome.base_segments
    return {
        "rounds": outcome.rounds,
        "segments_sent": outcome.segments_sent,
        "sendable": outcome.rounds * segments,
        "draws": outcome.rounds * n_devices * segments,
        "matrix_bytes": n_devices * segments * REPAIR_BYTES_PER_ELEMENT,
    }


def install(tracer: Any) -> None:
    """Wrap the public entry point of every layer the table names."""
    from repro.core.base import GroupingMechanism
    from repro.core.plan import MulticastPlan
    from repro.grouping.policy import GroupingPolicy
    from repro.multicast import coordination, reliability
    from repro.setcover import greedy
    from repro.sim.executor import CampaignExecutor
    from repro.traffic import generator

    patched = [
        tracer.patch_function(
            generator, "generate_fleet", "traffic.generate_fleet"
        ),
        tracer.patch_function(
            greedy, "greedy_window_cover", "setcover.greedy_window_cover",
            _cover_counts,
        ),
        tracer.patch_method(
            GroupingPolicy, "group", "grouping.group", _group_counts
        ),
        tracer.patch_method(GroupingMechanism, "plan", "core.plan"),
        tracer.patch_method(MulticastPlan, "validate", "core.validate"),
        tracer.patch_method(CampaignExecutor, "execute", "sim.execute"),
        tracer.patch_function(
            reliability, "simulate_repair_rounds",
            "reliability.simulate_repair_rounds", _repair_counts,
        ),
        tracer.patch_function(
            coordination, "partition_fleet", "coordination.partition_fleet"
        ),
        tracer.patch_function(
            coordination, "attach_devices", "coordination.attach_devices"
        ),
    ]
    if not all(patched):
        tracer.restore()
        raise RuntimeError(
            "a layer entry point was not found; the wrapped names in "
            "perfbench/layers.py no longer match the program"
        )


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def span_table(spans: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive, layer and self seconds, peak MiB.

    Self time is a span's duration minus the part of it its child spans
    cover; children running concurrently in two workers count once.
    Layer time sums only spans with no ancestor of the same layer, so
    nested calls of one layer are not booked twice. Counts are summed,
    and their largest single value kept as ``max_<count>``.
    """
    by_id = {span["id"]: span for span in spans}
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))

    def nested_in_own_layer(span: Dict[str, Any]) -> bool:
        layer = SPAN_LAYER[span["name"]]
        parent = by_id.get(span["parent"])
        while parent is not None:
            if SPAN_LAYER[parent["name"]] == layer:
                return True
            parent = by_id.get(parent["parent"])
        return False

    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(
            span["name"],
            {"calls": 0, "incl_s": 0.0, "layer_s": 0.0, "self_s": 0.0,
             "peak_mb": 0.0},
        )
        duration = span["end"] - span["start"]
        row["calls"] += 1
        row["incl_s"] += duration
        if not nested_in_own_layer(span):
            row["layer_s"] += duration
        row["self_s"] += duration - _covered(children.get(span["id"], []))
        row["peak_mb"] = max(row["peak_mb"], span["peak_bytes"] / MIB)
        for key, value in span["counts"].items():
            row[key] = row.get(key, 0) + value
            row[f"max_{key}"] = max(row.get(f"max_{key}", 0), value)
    return table


def _row(table: Dict[str, Dict[str, float]], name: str) -> Dict[str, float]:
    return table.get(name, {})


def layer_metrics(
    spans: Sequence[Dict[str, Any]],
    memory_spans: Sequence[Dict[str, Any]],
    n_runs: int,
) -> Dict[str, float]:
    """The span-derived layer metrics, per Monte-Carlo run.

    ``spans`` come from the timing pass, ``memory_spans`` from the pass
    that traced allocations (only their peaks are used).
    """
    table = span_table(spans)
    peaks = span_table(memory_spans)
    group = _row(table, "grouping.group")
    cover = _row(table, "setcover.greedy_window_cover")
    plan = _row(table, "core.plan")
    validate = _row(table, "core.validate")
    repair = _row(table, "reliability.simulate_repair_rounds")
    sendable = repair.get("sendable", 0)

    def peak_mb(*names: str) -> float:
        return max(_row(peaks, name).get("peak_mb", 0.0) for name in names)

    def layer_s(*names: str) -> float:
        return sum(_row(table, name).get("layer_s", 0.0) for name in names)

    return {
        "traffic.generate_s": layer_s("traffic.generate_fleet") / n_runs,
        "grouping.cover_s": layer_s(
            "grouping.group", "setcover.greedy_window_cover"
        ) / n_runs,
        "grouping.peak_mb": peak_mb(
            "grouping.group", "setcover.greedy_window_cover"
        ),
        "grouping.windows": cover.get("windows", 0) / n_runs,
        "grouping.groups": group.get("groups", 0) / n_runs,
        "core.directives_s": plan.get("self_s", 0.0) / n_runs,
        "core.validate_s": validate.get("layer_s", 0.0) / n_runs,
        "core.validate_calls": validate.get("calls", 0) / n_runs,
        "sim.execute_s": layer_s("sim.execute") / n_runs,
        "repair.s": layer_s("reliability.simulate_repair_rounds") / n_runs,
        "repair.peak_mb": peak_mb("reliability.simulate_repair_rounds"),
        "repair.rounds": repair.get("rounds", 0) / n_runs,
        "repair.draws": repair.get("draws", 0) / n_runs,
        "repair.useful_draw_ratio": (
            repair.get("segments_sent", 0) / sendable if sendable else 0.0
        ),
        "repair.matrix_mb": repair.get("max_matrix_bytes", 0) / MIB,
        "coordination.partition_s": layer_s(
            "coordination.partition_fleet", "coordination.attach_devices"
        ) / n_runs,
        "runner.self_s": _row(table, "runner.run_scenario").get("self_s", 0.0)
        / n_runs,
    }


# ----------------------------------------------------------------------
# Fused-side numbers from the streamed partials
# ----------------------------------------------------------------------
def dispatch_metrics(
    partials: Sequence[Any], n_runs: int, workers: int, wall_s: float
) -> Dict[str, float]:
    """Dispatch and shared-memory metrics from ``run_scenario(on_partial=)``.

    Cell summaries carry their worker's ``attach_s``/``plan_s``/
    ``execute_s`` and VmHWM; nothing else is needed from the program.
    On a serial workload there are no partials and every value is 0.
    """
    cells = [p.value for p in partials if p.kind == "sub"]
    busy_by_run: Dict[int, List[float]] = defaultdict(list)
    for partial in partials:
        if partial.kind == "sub":
            busy_by_run[partial.top_index].append(
                sum(partial.value.phase_timings.values())
            )
    busy = sum(sum(run) for run in busy_by_run.values())
    skews = [
        max(run) / statistics.fmean(run)
        for run in busy_by_run.values()
        if statistics.fmean(run) > 0
    ]
    return {
        "dispatch.tasks": len(partials) / n_runs,
        "dispatch.worker_busy_s": busy / n_runs,
        "dispatch.idle_share": (
            1.0 - busy / (workers * wall_s) if cells else 0.0
        ),
        "dispatch.cell_skew": statistics.median(skews) if skews else 0.0,
        "dispatch.worker_rss_mb": max(
            (cell.worker_rss_kb / 1024.0 for cell in cells), default=0.0
        ),
        "sharedmem.attach_s": sum(
            cell.phase_timings.get("attach_s", 0.0) for cell in cells
        ) / n_runs,
    }


def format_span_table(
    spans: Sequence[Dict[str, Any]], memory_spans: Sequence[Dict[str, Any]]
) -> List[str]:
    """The span table the traced run prints; peaks from the memory pass."""
    table = span_table(spans)
    peaks = span_table(memory_spans)
    lines = [
        f"{'span':38} {'calls':>6} {'incl s':>9} {'self s':>9} {'peak MiB':>9}"
    ]
    for name, row in sorted(
        table.items(), key=lambda item: -item[1]["incl_s"]
    ):
        lines.append(
            f"{name:38} {row['calls']:>6} {row['incl_s']:>9.3f} "
            f"{row['self_s']:>9.3f} "
            f"{_row(peaks, name).get('peak_mb', 0.0):>9.1f}"
        )
    return lines


def missing_spans(
    spans: Sequence[Dict[str, Any]], expected: Sequence[str]
) -> List[str]:
    """Expected span names that saw no call."""
    seen = {span["name"] for span in spans}
    return [name for name in expected if name not in seen]
