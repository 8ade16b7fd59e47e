"""Monte-Carlo harness.

The paper averages every metric over 100 runs (Sec. IV-A). The harness
spawns one independent child generator per run from a root seed, maps a
caller-supplied run function over them, and aggregates each returned
metric into a :class:`RunStatistics` (mean, standard deviation, 95 %
confidence half-width).

Each run is one work item of the task graph in :mod:`repro.sim.dispatch`,
so the two backends produce bit-identical results:

* ``serial`` — the items drain in this process, one run after another
  (the default; the run function need not be picklable);
* ``fused`` — the items drain through the fused (run x cell) work-queue
  scheduler's process pool; requires a picklable run function.

An optional :class:`~repro.sim.cache.ResultCache` short-circuits
repeated campaigns: when a ``cache_tag`` is supplied and the cache holds
matching metric arrays, no runs execute at all. :class:`CampaignCache`
is the one load/store protocol every campaign (plain run functions,
scenarios, sweep grid cells) goes through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.sim.cache import ResultCache
from repro.sim.dispatch import (
    PartialResult,
    RunFn,
    drain,
    run_items,
    validate_backend,
)


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


def _collect(per_run: Sequence[Mapping[str, float]]) -> Dict[str, List[float]]:
    """Validate per-run metric dicts and pivot them into columns."""
    collected: Dict[str, List[float]] = {}
    expected_keys = None
    for run_index, metrics in enumerate(per_run):
        expected_keys = _validate(run_index, metrics, expected_keys)
        for key, value in metrics.items():
            collected.setdefault(key, []).append(float(value))
    return collected


class CampaignCache:
    """One campaign's entry in an optional :class:`ResultCache`.

    The single cache protocol: the key is the campaign's deterministic
    address ``(tag, fingerprint, seed, n_runs)``, the stored columns are
    the validated per-run metric columns. Without a cache (or a tag) it
    only aggregates.
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
        """Validate and pivot per-run metric dicts (storing them when
        cached) into per-metric statistics."""
        collected = _collect(per_run)
        if self._key is not None:
            self._cache.store(self._key, collected, meta=self._meta)
        return {
            name: RunStatistics(values=np.asarray(vals, dtype=np.float64))
            for name, vals in collected.items()
        }


class MonteCarlo:
    """Runs a seeded experiment ``n_runs`` times and aggregates metrics.

    ``backend`` selects how the runs execute (``"serial"`` or
    ``"fused"``); both drain the same work items, so the aggregated
    arrays are bit-for-bit equal across backends and worker counts.
    """

    def __init__(
        self,
        n_runs: int = 100,
        seed: int = 2018,
        backend: str = "serial",
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        """``seed`` defaults to the paper's publication year, because a
        default seed has to be something. ``chunk_size`` sets the fused
        backend's dispatch grain (None = auto; ignored otherwise) —
        results are bit-identical at every grain."""
        if n_runs < 1:
            raise ConfigurationError(f"n_runs must be >= 1, got {n_runs}")
        validate_backend(backend)
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        self._n_runs = n_runs
        self._seed = seed
        self._backend = backend
        self._workers = workers
        self._cache = cache
        self._chunk_size = chunk_size

    @property
    def n_runs(self) -> int:
        """Number of repetitions."""
        return self._n_runs

    @property
    def seed(self) -> int:
        """Root seed."""
        return self._seed

    @property
    def backend(self) -> str:
        """Execution backend name."""
        return self._backend

    @property
    def workers(self) -> Optional[int]:
        """Fused pool size (None = all cores; ignored when serial)."""
        return self._workers

    def run(
        self,
        fn: RunFn,
        cache_tag: Optional[str] = None,
        config_fingerprint: str = "",
    ) -> Dict[str, RunStatistics]:
        """Execute ``fn`` once per run and aggregate every metric.

        When a cache is attached *and* ``cache_tag`` identifies the
        campaign, a prior result with the same deterministic address
        (tag, fingerprint, seed, n_runs) is returned without executing
        anything — whichever backend wrote it — and a fresh result is
        persisted for next time.

        Every scenario parameter baked into ``fn`` must be covered by
        ``config_fingerprint`` (or the tag itself) — otherwise two
        different scenarios share a key and the second reads the
        first's stale results. Config-driven callers should pass
        ``config.fingerprint()``.
        """
        campaign = CampaignCache(
            self._cache,
            cache_tag,
            config_fingerprint,
            self._seed,
            self._n_runs,
        )
        cached = campaign.load()
        if cached is not None:
            return cached
        # Validate each run as it lands, so a bad run fn fails the
        # campaign at the offending run, not after all of them.
        expected_keys = None

        def check(partial: PartialResult) -> None:
            nonlocal expected_keys
            expected_keys = _validate(
                partial.top_index, partial.value, expected_keys
            )

        per_run = drain(
            run_items(fn, self._seed, self._n_runs),
            self._backend,
            workers=self._workers,
            on_partial=check,
            chunk_size=self._chunk_size,
        )
        return campaign.aggregate(per_run)


def run_monte_carlo(
    fn: RunFn,
    n_runs: int = 100,
    seed: int = 2018,
    backend: str = "serial",
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    cache_tag: Optional[str] = None,
    config_fingerprint: str = "",
    chunk_size: Optional[int] = None,
) -> Dict[str, RunStatistics]:
    """One-call front for the harness: build a :class:`MonteCarlo` with
    the requested backend and run ``fn``."""
    harness = MonteCarlo(
        n_runs=n_runs,
        seed=seed,
        backend=backend,
        workers=workers,
        cache=cache,
        chunk_size=chunk_size,
    )
    return harness.run(
        fn, cache_tag=cache_tag, config_fingerprint=config_fingerprint
    )
