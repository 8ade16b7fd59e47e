"""Experiment runner: regenerate every figure (and ablation) in one call."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.ablations import (
    run_dasc_strategy_ablation,
    run_grouping_policy_ablation,
    run_mixture_sensitivity,
    run_scptm_comparison,
    run_setcover_quality,
    run_ti_sensitivity,
)
from repro.experiments.charts import fig6_chart, fig7_chart
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import Table, render_table
from repro.experiments.transmissions import run_fig7
from repro.experiments.uptime import FIG6_MECHANISMS, run_fig6a, run_fig6b
from repro.timebase import format_bytes

#: Figure/ablation ids accepted by :func:`run`.
KNOWN_TARGETS = ("6a", "6b", "7", "a1", "a2", "a3", "a4", "a5", "a6")


def run(
    targets: Optional[List[str]] = None,
    config: ExperimentConfig = ExperimentConfig(),
) -> Dict[str, Table]:
    """Run the requested figure/ablation experiments (tables only)."""
    tables, _charts = run_with_charts(targets, config)
    return tables


def run_with_charts(
    targets: Optional[List[str]] = None,
    config: ExperimentConfig = ExperimentConfig(),
) -> "tuple[Dict[str, Table], Dict[str, str]]":
    """Run the requested figure/ablation experiments.

    Args:
        targets: list of ids from :data:`KNOWN_TARGETS` (None = all).
        config: shared experiment configuration.

    Returns:
        ``(tables, charts)`` — per-target result tables plus ASCII charts
        for the targets that correspond to plotted paper figures.
    """
    selected = [t.lower() for t in (targets or list(KNOWN_TARGETS))]
    unknown = sorted(set(selected) - set(KNOWN_TARGETS))
    if unknown:
        raise ValueError(f"unknown targets {unknown}; known: {KNOWN_TARGETS}")

    tables: Dict[str, Table] = {}
    charts: Dict[str, str] = {}
    fig6b_stats = {}
    if "6b" in selected:
        tables["6b"], fig6b_stats = run_fig6b(config)
    if "6a" in selected:
        # 6(b)'s payload sweep usually includes 6(a)'s default payload.
        tables["6a"], stats = run_fig6a(
            config, fig6b_stats.get(format_bytes(config.default_payload))
        )
        charts["6a"] = fig6_chart(
            {
                name: stats[f"{name}/light_sleep"].mean
                for name in FIG6_MECHANISMS
            },
            panel="a",
        )
    if "7" in selected:
        tables["7"], per_n = run_fig7(config)
        if len(per_n) >= 2:  # a line chart needs a sweep, not a point
            charts["7"] = fig7_chart(
                {n: stats["transmissions"].mean for n, stats in per_n.items()}
            )
    if "a1" in selected:
        tables["a1"], _ = run_dasc_strategy_ablation(config)
    if "a2" in selected:
        tables["a2"], _ = run_ti_sensitivity(config)
    if "a3" in selected:
        tables["a3"], _ = run_setcover_quality(
            backend=config.backend,
            workers=config.workers,
            cache=config.result_cache(),
        )
    if "a4" in selected:
        tables["a4"], _ = run_mixture_sensitivity(config)
    if "a5" in selected:
        tables["a5"] = run_scptm_comparison()
    if "a6" in selected:
        tables["a6"], _ = run_grouping_policy_ablation(
            backend=config.backend,
            workers=config.workers,
            cache=config.result_cache(),
        )
    return tables, charts


def render_all(
    tables: Dict[str, Table], charts: Optional[Dict[str, str]] = None
) -> str:
    """Render every produced table (and chart), separated by blank lines."""
    chunks = []
    for key in sorted(tables):
        chunks.append(render_table(tables[key]))
        if charts and key in charts:
            chunks.append(charts[key])
    return "\n\n".join(chunks)
