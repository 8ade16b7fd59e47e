"""Experiment configuration: the paper's parameters in one place."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.base import PlanningContext
from repro.enb.cell import CellConfig
from repro.errors import ConfigurationError
from repro.rrc.procedures import ProcedureTimings
from repro.sim.cache import ResultCache, fingerprint
from repro.sim.dispatch import validate_backend
from repro.sim.montecarlo import MonteCarlo
from repro.timebase import KILOBYTE, MEGABYTE, seconds_to_frames
from repro.traffic.mixtures import PAPER_DEFAULT_MIXTURE, TrafficMixture


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters shared by the figure experiments.

    Defaults follow Sec. IV-A: payloads of 100 KB / 1 MB / 10 MB,
    100-1000 devices, 100 Monte-Carlo runs, a single cell, and an
    inactivity timer inside the 10-30 s commercial range (20.48 s, which
    aligns with the eDRX ladder).

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

    mixture: TrafficMixture = PAPER_DEFAULT_MIXTURE
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
    timings: ProcedureTimings = ProcedureTimings()
    backend: str = "serial"
    workers: Optional[int] = None
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.inactivity_timer_s <= 0:
            raise ConfigurationError(
                f"TI must be positive, got {self.inactivity_timer_s}"
            )
        if self.n_devices < 1:
            raise ConfigurationError(
                f"n_devices must be >= 1, got {self.n_devices}"
            )
        if not self.device_counts:
            raise ConfigurationError("device_counts must not be empty")
        if any(count < 1 for count in self.device_counts):
            raise ConfigurationError(
                f"device_counts entries must be >= 1, got {self.device_counts}"
            )
        if self.n_runs < 1:
            raise ConfigurationError(f"n_runs must be >= 1, got {self.n_runs}")
        validate_backend(self.backend)
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.grouping is not None:
            # Instantiate the pairing the figure experiments will build
            # (DR-SC carries the policy), so an unknown name or an
            # incompatible policy (e.g. single-group) fails at config
            # creation rather than deep inside a Monte-Carlo worker.
            from repro.core.dr_sc import DrScMechanism

            DrScMechanism(policy=self.grouping_policy())

    @property
    def cell(self) -> CellConfig:
        """Cell configuration with this experiment's inactivity timer."""
        return CellConfig(
            inactivity_timer_frames=seconds_to_frames(self.inactivity_timer_s)
        )

    def planning_context(self, payload_bytes: int) -> PlanningContext:
        """A planning context for ``payload_bytes`` under this config."""
        return PlanningContext(
            payload_bytes=payload_bytes,
            cell=self.cell,
            timings=self.timings,
        )

    def scaled_runs(self, fraction: float) -> "ExperimentConfig":
        """A copy with the run count scaled down (CI-friendly benches)."""
        from dataclasses import replace

        runs = max(1, int(round(self.n_runs * fraction)))
        return replace(self, n_runs=runs)

    def fingerprint(self) -> str:
        """Stable hash of every *scenario* parameter.

        Execution knobs (backend, workers, cache_dir) are excluded: they
        change how the runs execute, never what they compute, so they
        must not invalidate cached results.
        """
        from dataclasses import asdict

        scenario = asdict(self)
        for execution_only in ("backend", "workers", "cache_dir"):
            scenario.pop(execution_only, None)
        return fingerprint(scenario)

    def grouping_policy(self):
        """The resolved grouping policy (None = mechanism defaults)."""
        if self.grouping is None:
            return None
        from repro.grouping.registry import grouping_policy_by_name

        return grouping_policy_by_name(self.grouping)

    def result_cache(self) -> Optional[ResultCache]:
        """The configured on-disk cache, or None when caching is off."""
        return ResultCache(self.cache_dir) if self.cache_dir else None

    def monte_carlo(
        self, seed: Optional[int] = None, n_runs: Optional[int] = None
    ) -> MonteCarlo:
        """A harness wired to this config's backend, workers and cache."""
        return MonteCarlo(
            n_runs=self.n_runs if n_runs is None else n_runs,
            seed=self.seed if seed is None else seed,
            backend=self.backend,
            workers=self.workers,
            cache=self.result_cache(),
        )
