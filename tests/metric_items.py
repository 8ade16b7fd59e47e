"""Metric run functions as task-graph work items, for the driver and
dispatch tests.

A run function maps ``(rng, run_index)`` to a metric dict. Run ``i`` of
``n_runs`` is one :class:`~repro.sim.dispatch.WorkItem` addressed
``(campaign, i, -1)`` and seeded with the standard child generator, so
the items drain through :func:`~repro.sim.montecarlo.run_campaigns`
like any scenario campaign's.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.sim.cache import ResultCache
from repro.sim.dispatch import TaskAddress, WorkItem
from repro.sim.montecarlo import (
    Campaign,
    RunOutput,
    RunStatistics,
    run_campaigns,
)

RunFn = Callable[[np.random.Generator, int], Mapping[str, float]]


def _metric_task(rng, address, payload, *, fn: RunFn) -> RunOutput:
    return RunOutput(
        {k: float(v) for k, v in fn(rng, address.run_index).items()}
    )


def metric_items(
    fn: RunFn, seed: int, n_runs: int, campaign: str = "montecarlo"
) -> List[WorkItem]:
    """``fn``'s work items, one per run (picklable when ``fn`` is)."""
    # One task function shared by every item, so the fused pool's
    # up-front picklability check covers the run function once.
    task = partial(_metric_task, fn=fn)
    return [
        WorkItem(
            address=TaskAddress(campaign, run_index),
            fn=task,
            payload=None,
            seed=seed,
            spawn_index=run_index,
        )
        for run_index in range(n_runs)
    ]


def run_fn(
    fn: RunFn,
    n_runs: int,
    seed: int,
    backend: str = "serial",
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    tag: Optional[str] = None,
    fingerprint: str = "",
) -> Dict[str, RunStatistics]:
    """Drain ``fn``'s items as one campaign and aggregate its metrics."""
    campaign = Campaign(
        metric_items(fn, seed, n_runs), tag=tag, fingerprint=fingerprint
    )
    (stats,) = run_campaigns([campaign], backend, workers=workers, cache=cache)
    return stats
