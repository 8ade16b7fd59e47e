"""Monte-Carlo harness.

The paper averages every metric over 100 runs (Sec. IV-A). A campaign
spawns one independent child generator per run from a root seed, runs
one work item of the task graph in :mod:`repro.sim.dispatch` per run,
and aggregates each returned metric into a :class:`RunStatistics`
(mean, standard deviation, 95 % confidence half-width).

:func:`run_campaigns` is the one campaign driver — scenarios, figure
comparisons, sweep grids and the golden check all go through it: cache
lookup (:class:`CampaignCache`), one drain of every uncached campaign's
items, run logs, aggregation. The two backends drain the same items, so
their results are bit-identical:

* ``serial`` — the items drain in this process, one run after another
  (the default; a task function need not be picklable);
* ``fused`` — the items drain through one (run x cell) work-queue
  process pool; requires picklable task functions.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.sim.cache import ResultCache
from repro.sim.dispatch import (
    PartialFn,
    PartialResult,
    WorkItem,
    drain,
    validate_backend,
    validate_workers,
)
from repro.sim.eventlog import RunLog


@dataclass(frozen=True)
class RunStatistics:
    """Aggregate of one metric across runs.

    An empty value array has no statistics: every reduction raises
    :class:`~repro.errors.SimulationError` instead of propagating
    NumPy's NaN-plus-RuntimeWarning behaviour (the same contract as
    ``CampaignResult.mean_wait_s`` on a result with no outcomes).
    """

    values: np.ndarray

    def _require_runs(self, what: str) -> None:
        if self.values.size == 0:
            raise SimulationError(
                f"{what} is undefined for statistics over zero runs"
            )

    @property
    def n(self) -> int:
        """Number of runs."""
        return int(self.values.size)

    @property
    def mean(self) -> float:
        """Sample mean."""
        self._require_runs("mean")
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1; 0 for a single run)."""
        self._require_runs("std")
        if self.values.size < 2:
            return 0.0
        return float(np.std(self.values, ddof=1))

    @property
    def sem(self) -> float:
        """Standard error of the mean."""
        self._require_runs("sem")
        if self.values.size < 2:
            return 0.0
        return self.std / math.sqrt(self.values.size)

    @property
    def ci95_halfwidth(self) -> float:
        """Half-width of the normal-approximation 95 % CI."""
        return 1.96 * self.sem

    @property
    def min(self) -> float:
        """Smallest observed value."""
        self._require_runs("min")
        return float(np.min(self.values))

    @property
    def max(self) -> float:
        """Largest observed value."""
        self._require_runs("max")
        return float(np.max(self.values))

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.ci95_halfwidth:.2g} (n={self.n})"


def _validate(
    run_index: int,
    metrics: Mapping[str, float],
    expected_keys: "Optional[frozenset[str]]",
) -> "frozenset[str]":
    """Check one run's metric dict; returns the expected key set."""
    if not metrics:
        raise ConfigurationError(f"run {run_index} returned no metrics")
    keys = frozenset(metrics)
    if expected_keys is not None and keys != expected_keys:
        raise ConfigurationError(
            f"run {run_index} returned keys {sorted(keys)}, "
            f"expected {sorted(expected_keys)}"
        )
    return keys


class CampaignCache:
    """One campaign's entry in an optional :class:`ResultCache`.

    The single cache protocol: the key is the campaign's deterministic
    address ``(tag, fingerprint, seed, n_runs)``, the stored columns are
    the per-run metric columns. Without a cache (or a tag) it only
    aggregates.
    """

    def __init__(
        self,
        cache: Optional[ResultCache],
        tag: Optional[str],
        fingerprint: str,
        seed: int,
        n_runs: int,
    ) -> None:
        self._cache = cache if tag is not None else None
        self._meta = {
            "tag": tag,
            "fingerprint": fingerprint,
            "seed": seed,
            "n_runs": n_runs,
        }
        self._key = (
            None
            if self._cache is None
            else ResultCache.key(tag, fingerprint, seed, n_runs)
        )

    def load(self) -> Optional[Dict[str, RunStatistics]]:
        """The cached statistics, or None on a miss (or without a cache)."""
        if self._key is None:
            return None
        cached = self._cache.load(self._key)
        if cached is None:
            return None
        return {
            name: RunStatistics(values=values)
            for name, values in cached.items()
        }

    def aggregate(
        self, per_run: Sequence[Mapping[str, float]]
    ) -> Dict[str, RunStatistics]:
        """Pivot per-run metric dicts, already checked by
        :func:`_validate`, into per-metric statistics (storing the
        columns when cached)."""
        collected = {
            name: [float(metrics[name]) for metrics in per_run]
            for name in per_run[0]
        }
        if self._key is not None:
            self._cache.store(self._key, collected, meta=self._meta)
        return {
            name: RunStatistics(values=np.asarray(vals, dtype=np.float64))
            for name, vals in collected.items()
        }


@dataclass(frozen=True)
class RunOutput:
    """One run's task output, whatever the campaign kind: its metric
    dict, plus its event log when the campaign records."""

    metrics: Dict[str, float]
    runlog: Optional[RunLog] = None


def run_log_filename(scenario: str, fingerprint: str, run_index: int) -> str:
    """Canonical ``.npz`` filename of one recorded run.

    The short fingerprint keeps sweep variants of the same scenario
    (same name, different axis values) from overwriting each other.
    """
    return f"{scenario}-{fingerprint[:8]}-run{int(run_index):03d}.npz"


@dataclass(frozen=True)
class Campaign:
    """One seeded campaign for :func:`run_campaigns`.

    ``items`` hold one work item per run, run ``i`` seeded as child
    ``i`` of one root seed, each returning a :class:`RunOutput`. The
    cache address is (``tag``, ``fingerprint``, root seed, run count);
    without a tag the campaign is never cached. Every parameter baked
    into the items must be covered by the fingerprint (or the tag) —
    otherwise two campaigns share a key and the second reads the
    first's results. A campaign with a ``record_dir`` writes each run's
    event log there and bypasses the cache (it neither loads nor
    stores), since a cache hit would write no logs.
    """

    items: Sequence[WorkItem]
    tag: Optional[str] = None
    fingerprint: str = ""
    record_dir: Optional[Union[str, Path]] = None


def run_campaigns(
    campaigns: Sequence[Campaign],
    backend: str = "serial",
    *,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    on_partial: Optional[PartialFn] = None,
) -> List[Dict[str, RunStatistics]]:
    """Run every campaign and aggregate each one's metrics, in order.

    Each campaign's cache entry is loaded first; the items of every
    uncached campaign then drain as one task graph on ``backend`` (one
    fused pool, no barrier between campaigns); each recording campaign
    writes its run logs, and each campaign is aggregated (and stored,
    when cached) on its own. Results are bit-identical to running each
    campaign alone, on either backend, at every ``workers``. Every
    run's metric dict is checked as it lands against its campaign's
    first run, so an inconsistent run fails at that run; ``on_partial``
    then sees every streamed :class:`~repro.sim.dispatch.PartialResult`.
    :func:`~repro.sim.dispatch.drain` checks ``backend`` and
    ``workers``; a call answered wholly from the cache checks them
    here.
    """
    results: List[Optional[Dict[str, RunStatistics]]] = []
    #: (campaign index, its cache entry), one per campaign to run.
    pending: List[Tuple[int, CampaignCache]] = []
    starts: List[int] = []
    items: List[WorkItem] = []
    for index, campaign in enumerate(campaigns):
        store = CampaignCache(
            cache if campaign.record_dir is None else None,
            campaign.tag,
            campaign.fingerprint,
            campaign.items[0].seed,
            len(campaign.items),
        )
        results.append(store.load())
        if results[-1] is None:
            pending.append((index, store))
            starts.append(len(items))
            items.extend(campaign.items)
    if not items:
        validate_backend(backend)
        validate_workers(workers)
        return results
    expected_keys: Dict[int, "frozenset[str]"] = {}

    def check(partial: PartialResult) -> None:
        if partial.kind != "sub":
            slot = bisect_right(starts, partial.top_index) - 1
            expected_keys[slot] = _validate(
                partial.top_index - starts[slot],
                partial.value.metrics,
                expected_keys.get(slot),
            )
        if on_partial is not None:
            on_partial(partial)

    outputs = drain(items, backend, workers=workers, on_partial=check)
    for (index, store), start, end in zip(
        pending, starts, starts[1:] + [len(items)]
    ):
        if campaigns[index].record_dir is not None:
            directory = Path(campaigns[index].record_dir)
            directory.mkdir(parents=True, exist_ok=True)
            for output in outputs[start:end]:
                meta = output.runlog.meta
                output.runlog.save(
                    directory
                    / run_log_filename(
                        meta["scenario"], meta["fingerprint"], meta["run_index"]
                    )
                )
        results[index] = store.aggregate(
            [output.metrics for output in outputs[start:end]]
        )
    return results
