"""Fig. 6 reproduction: relative uptime increase vs unicast.

One Monte-Carlo run samples a fleet, plans all three mechanisms plus
the unicast baseline, executes every plan over a *common* horizon (so
the light-sleep PO counts are comparable), and reports the fleet-level
relative increases. Fig. 6(a) is the light-sleep split; Fig. 6(b) is
the connected-mode split, swept over the three payload sizes.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.core import (
    DaScMechanism,
    DrScMechanism,
    DrSiMechanism,
    GroupingMechanism,
    UnicastBaseline,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import Table, percent
from repro.sim.executor import CampaignExecutor
from repro.sim.metrics import CampaignResult
from repro.sim.montecarlo import RunStatistics
from repro.timebase import format_bytes
from repro.traffic.generator import generate_fleet

#: Mechanisms compared in Fig. 6, in plot order.
FIG6_MECHANISMS = ("dr-sc", "da-sc", "dr-si")


def _mechanisms(
    config: Optional[ExperimentConfig] = None,
) -> List[GroupingMechanism]:
    # config.grouping only retargets the windowed mechanism: DA-SC and
    # DR-SI keep their paper semantics (one fleet-wide group) so the
    # Fig. 6 comparison stays a mechanism comparison, not a policy one.
    policy = config.grouping_policy() if config is not None else None
    return [DrScMechanism(policy=policy), DaScMechanism(), DrSiMechanism()]


def compare_mechanisms_once(
    rng: np.random.Generator,
    config: ExperimentConfig,
    payload_bytes: int,
    n_devices: Optional[int] = None,
) -> Dict[str, float]:
    """One Monte-Carlo run of the Fig. 6 comparison.

    Returns per-mechanism relative light-sleep/connected increases over
    the unicast baseline, plus auxiliary diagnostics (transmission
    counts, mean waits).
    """
    fleet = generate_fleet(n_devices or config.n_devices, config.mixture, rng)
    context = config.planning_context(payload_bytes)
    executor = CampaignExecutor(timings=config.timings)

    plans = {m.name: m.plan(fleet, context, rng) for m in _mechanisms(config)}
    plans["unicast"] = UnicastBaseline().plan(fleet, context, rng)

    # Execute everything over one common horizon for comparability.
    provisional = {
        name: executor.execute(fleet, plan) for name, plan in plans.items()
    }
    horizon = max(result.horizon_frames for result in provisional.values())
    results: Dict[str, CampaignResult] = {
        name: executor.execute(fleet, plan, horizon_frames=horizon)
        for name, plan in plans.items()
    }

    baseline = results["unicast"]
    metrics: Dict[str, float] = {}
    for name in FIG6_MECHANISMS:
        increase = results[name].relative_uptime_increase(baseline)
        metrics[f"{name}/light_sleep"] = increase.light_sleep
        metrics[f"{name}/connected"] = increase.connected
        metrics[f"{name}/transmissions"] = results[name].n_transmissions
        metrics[f"{name}/mean_wait_s"] = results[name].mean_wait_s
        metrics[f"{name}/energy_increase"] = results[name].energy_increase_over(
            baseline
        )
    return metrics


def _fig6_run(
    rng: np.random.Generator,
    _run_index: int,
    config: ExperimentConfig,
    payload_bytes: int,
) -> Dict[str, float]:
    """Picklable Fig. 6 run function (fused-backend compatible)."""
    return compare_mechanisms_once(rng, config, payload_bytes)


def _fig6_stats(
    config: ExperimentConfig, payload_bytes: int
) -> Dict[str, RunStatistics]:
    """The Fig. 6 Monte-Carlo campaign for one payload size.

    Fig. 6(a) and 6(b) share the same per-run computation, so they share
    one cache entry per payload size.
    """
    harness = config.monte_carlo()
    return harness.run(
        partial(_fig6_run, config=config, payload_bytes=payload_bytes),
        cache_tag=f"fig6/{payload_bytes}",
        config_fingerprint=config.fingerprint(),
    )


def run_fig6a(
    config: ExperimentConfig = ExperimentConfig(),
) -> Tuple[Table, Dict[str, RunStatistics]]:
    """Fig. 6(a): relative light-sleep uptime increase vs unicast."""
    stats = _fig6_stats(config, config.default_payload)
    rows = []
    for name in FIG6_MECHANISMS:
        light = stats[f"{name}/light_sleep"]
        energy = stats[f"{name}/energy_increase"]
        rows.append(
            (
                name.upper(),
                percent(light.mean, 3),
                f"±{light.ci95_halfwidth * 100:.3f}%",
                percent(energy.mean, 2),
            )
        )
    table = Table(
        title=(
            f"Fig. 6(a) — relative light-sleep uptime increase vs unicast "
            f"(n={config.n_devices} devices, {config.n_runs} runs)"
        ),
        headers=("mechanism", "light-sleep increase", "95% CI", "fleet energy increase"),
        rows=tuple(rows),
        notes=(
            "DR-SC monitors exactly the POs unicast would (increase ~ 0); "
            "DR-SI adds only the extended-page reception; DA-SC adds the "
            "temporarily shortened cycle's extra wake-ups.",
        ),
    )
    return table, stats


def run_fig6b(
    config: ExperimentConfig = ExperimentConfig(),
) -> Tuple[Table, Dict[str, Dict[str, RunStatistics]]]:
    """Fig. 6(b): relative connected-mode uptime increase vs unicast,
    for each payload size (100 KB / 1 MB / 10 MB)."""
    all_stats: Dict[str, Dict[str, RunStatistics]] = {}
    rows = []
    for payload in config.payload_sizes:
        stats = _fig6_stats(config, payload)
        all_stats[format_bytes(payload)] = stats
        for name in FIG6_MECHANISMS:
            connected = stats[f"{name}/connected"]
            rows.append(
                (
                    format_bytes(payload),
                    name.upper(),
                    percent(connected.mean, 2),
                    f"±{connected.ci95_halfwidth * 100:.2f}%",
                    f"{stats[f'{name}/mean_wait_s'].mean:.1f}s",
                )
            )
    table = Table(
        title=(
            f"Fig. 6(b) — relative connected-mode uptime increase vs unicast "
            f"(n={config.n_devices} devices, {config.n_runs} runs)"
        ),
        headers=("payload", "mechanism", "connected increase", "95% CI", "mean wait"),
        rows=tuple(rows),
        notes=(
            "Windowed mechanisms wait ~TI/2 for the transmission to start; "
            "DA-SC additionally pays the adaptation episode. The relative "
            "increase shrinks as the payload grows (negligible above 1MB).",
        ),
    )
    return table, all_stats
