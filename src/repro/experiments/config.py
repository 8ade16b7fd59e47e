"""Experiment configuration: the paper's parameters in one place."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.cache import ResultCache
from repro.sim.dispatch import validate_backend, validate_workers
from repro.sim.montecarlo import Campaign, RunStatistics, run_campaigns
from repro.timebase import KILOBYTE, MEGABYTE

if TYPE_CHECKING:
    from repro.scenarios.spec import ScenarioSpec


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters shared by the figure experiments.

    Defaults follow Sec. IV-A: payloads of 100 KB / 1 MB / 10 MB,
    100-1000 devices, 100 Monte-Carlo runs, a single cell, and an
    inactivity timer inside the 10-30 s commercial range (20.48 s, which
    aligns with the eDRX ladder).

    :meth:`scenario` turns the config into the
    :class:`~repro.scenarios.spec.ScenarioSpec` its campaigns run as;
    ``mixture`` is a registry name, as in a spec.

    ``backend``/``workers`` select how each figure's Monte-Carlo loop
    executes (see :mod:`repro.sim.dispatch`); ``cache_dir`` enables the
    on-disk result cache so re-running a figure with unchanged
    parameters is free. None of the three affects the numbers produced.

    ``device_counts`` is not limited to the paper's 100-1000 range: the
    columnar executor and incremental cover keep sweeps practical at
    10^4-10^5 devices (``python -m repro figures --figure 7
    --device-counts 1000,10000,100000``).

    ``grouping`` swaps the windowed mechanism's grouping policy (see
    :data:`repro.grouping.GROUPING_POLICIES`); None keeps the paper's
    greedy cover, so existing figure numbers are unchanged.
    """

    mixture: str = "paper-default"
    inactivity_timer_s: float = 20.48
    grouping: Optional[str] = None
    n_devices: int = 500
    device_counts: Tuple[int, ...] = (
        100, 200, 300, 400, 500, 600, 700, 800, 900, 1000,
    )
    payload_sizes: Tuple[int, ...] = (100 * KILOBYTE, MEGABYTE, 10 * MEGABYTE)
    default_payload: int = MEGABYTE
    n_runs: int = 100
    seed: int = 2018
    backend: str = "serial"
    workers: Optional[int] = None
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.device_counts:
            raise ConfigurationError("device_counts must not be empty")
        if any(count < 1 for count in self.device_counts):
            raise ConfigurationError(
                f"device_counts entries must be >= 1, got {self.device_counts}"
            )
        validate_backend(self.backend)
        validate_workers(self.workers)
        # The spec rejects a bad TI, fleet size, run count, mixture or
        # grouping name, and a grouping DR-SC cannot carry, here rather
        # than deep inside a Monte-Carlo worker.
        self.scenario("experiment")

    def scenario(self, name: str, **overrides: Any) -> ScenarioSpec:
        """This config's DR-SC campaign as a scenario named ``name``.

        The spec carries the config's fleet size, mixture, grouping,
        default payload, TI, runs and seed, with ``overrides`` applied
        (see :meth:`~repro.scenarios.spec.ScenarioSpec.with_overrides`).
        """
        # Imported here: repro.scenarios imports repro.experiments.
        from repro.scenarios.spec import ScenarioSpec

        return ScenarioSpec(
            name=name,
            n_devices=self.n_devices,
            mixture=self.mixture,
            grouping=self.grouping,
            payload_bytes=self.default_payload,
            inactivity_timer_s=self.inactivity_timer_s,
            n_runs=self.n_runs,
            seed=self.seed,
        ).with_overrides(**overrides)

    def result_cache(self) -> Optional[ResultCache]:
        """The configured on-disk cache, or None when caching is off."""
        return ResultCache(self.cache_dir) if self.cache_dir else None

    def run(self, *campaigns: Campaign) -> List[Dict[str, RunStatistics]]:
        """Run ``campaigns`` on this config's backend, workers and cache."""
        return run_campaigns(
            campaigns,
            self.backend,
            workers=self.workers,
            cache=self.result_cache(),
        )
