"""Campaign results and the paper's comparison metrics.

A campaign result holds the per-device uptime accounting plus the
realised transmission times. Two backings exist:

* **row form** — a tuple of :class:`DeviceOutcome` objects (produced by
  the event-driven replay);
* **columnar form** — a :class:`FleetOutcomes` bundle of parallel NumPy
  arrays plus a :class:`~repro.energy.ledger.LedgerArray` (produced by
  the vectorised executor).

Fleet-level summaries (:attr:`CampaignResult.fleet`,
:attr:`CampaignResult.mean_wait_s`) reduce columnar results with array
arithmetic; per-device :class:`DeviceOutcome` views are materialised
lazily and only when a consumer actually iterates ``outcomes``. The
fleet-level summary exposes exactly what Fig. 6 plots — relative
light-sleep and connected-mode uptime increases over a unicast baseline
evaluated on the *same* fleet over the *same* horizon — and what Fig. 7
plots (the transmission count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.plan import MulticastPlan
from repro.energy.ledger import (
    LedgerArray,
    RelativeIncrease,
    UptimeLedger,
    UptimeTotals,
)
from repro.energy.profiles import DEFAULT_PROFILE, EnergyProfile
from repro.energy.states import StateGroup
from repro.errors import SimulationError


@dataclass(frozen=True)
class DeviceOutcome:
    """One device's campaign outcome.

    Attributes:
        device_index: fleet index.
        transmission_index: transmission that served the device.
        ledger: time spent per power state over the whole horizon.
        ready_s: when the device was connected and ready for the data.
        wait_s: connected idle time until its transmission actually began.
        updated_s: when the device finished receiving the payload.
    """

    device_index: int
    transmission_index: int
    ledger: UptimeLedger
    ready_s: float
    wait_s: float
    updated_s: float

    @property
    def totals(self) -> UptimeTotals:
        """The device's uptime split."""
        return self.ledger.totals


@dataclass(frozen=True, eq=False)
class FleetOutcomes:
    """Columnar campaign outcomes: one array column per device.

    All arrays are parallel and sorted by ``device_indices``. This is the
    vectorised executor's native output — no per-device Python objects
    exist until :meth:`outcome_at` materialises one. ``eq=False``: a
    generated ``__eq__`` over ndarray fields would raise on comparison;
    identity semantics are the honest contract here.
    """

    device_indices: np.ndarray
    transmission_indices: np.ndarray
    ledgers: LedgerArray
    ready_s: np.ndarray
    wait_s: np.ndarray
    updated_s: np.ndarray

    def __post_init__(self) -> None:
        n = self.device_indices.size
        for name in ("transmission_indices", "ready_s", "wait_s", "updated_s"):
            if getattr(self, name).size != n:
                raise SimulationError(f"column {name} length differs from devices")
        if len(self.ledgers) != n:
            raise SimulationError("ledger array width differs from devices")

    def __len__(self) -> int:
        return self.device_indices.size

    def outcome_at(self, column: int) -> DeviceOutcome:
        """Materialise one device's row-form :class:`DeviceOutcome`."""
        return DeviceOutcome(
            device_index=int(self.device_indices[column]),
            transmission_index=int(self.transmission_indices[column]),
            ledger=self.ledgers.ledger_at(column),
            ready_s=float(self.ready_s[column]),
            wait_s=float(self.wait_s[column]),
            updated_s=float(self.updated_s[column]),
        )


@dataclass(frozen=True)
class FleetSummary:
    """Fleet-aggregated uptime (the sums Fig. 6 ratios are built from)."""

    light_sleep_s: float
    connected_s: float
    sleep_s: float
    energy_mj: float

    @property
    def totals(self) -> UptimeTotals:
        """The aggregate as an :class:`UptimeTotals`."""
        return UptimeTotals(
            light_sleep_s=self.light_sleep_s,
            connected_s=self.connected_s,
            sleep_s=self.sleep_s,
        )


class CampaignResult:
    """Everything measured from executing one plan on one fleet.

    Construct with either ``outcomes`` (row form) or ``columnar``
    (array form) — exactly one. The public surface is identical either
    way; ``outcomes`` on a columnar result materialises lazily.
    """

    def __init__(
        self,
        plan: MulticastPlan,
        horizon_frames: int,
        outcomes: Optional[Tuple[DeviceOutcome, ...]] = None,
        actual_start_s: Tuple[float, ...] = (),
        energy_profile: EnergyProfile = DEFAULT_PROFILE,
        columnar: Optional[FleetOutcomes] = None,
    ) -> None:
        if (outcomes is None) == (columnar is None):
            raise SimulationError(
                "a result needs exactly one of outcomes= or columnar="
            )
        self.plan = plan
        self.horizon_frames = horizon_frames
        self.actual_start_s = tuple(actual_start_s)
        self.energy_profile = energy_profile
        self._outcomes = tuple(outcomes) if outcomes is not None else None
        self._columnar = columnar
        self._fleet: Optional[FleetSummary] = None

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def columnar(self) -> Optional[FleetOutcomes]:
        """The columnar backing, if this result has one."""
        return self._columnar

    @property
    def n_devices(self) -> int:
        """Number of devices covered (without materialising outcomes)."""
        if self._outcomes is not None:
            return len(self._outcomes)
        assert self._columnar is not None
        return len(self._columnar)

    @property
    def outcomes(self) -> Tuple[DeviceOutcome, ...]:
        """Per-device outcomes, sorted by device index.

        Columnar results materialise (and cache) the row form on first
        access; fleet summaries never need this.
        """
        if self._outcomes is None:
            assert self._columnar is not None
            self._outcomes = tuple(
                self._columnar.outcome_at(i) for i in range(len(self._columnar))
            )
        return self._outcomes

    @property
    def mechanism(self) -> str:
        """Name of the mechanism that produced the plan."""
        return self.plan.mechanism

    @property
    def n_transmissions(self) -> int:
        """The paper's bandwidth-utilisation proxy."""
        return self.plan.n_transmissions

    # ------------------------------------------------------------------
    # Fleet aggregates
    # ------------------------------------------------------------------
    @property
    def fleet(self) -> FleetSummary:
        """Fleet-level sums across all devices (cached).

        Columnar results reduce with array arithmetic; row results loop.
        """
        if self._fleet is not None:
            return self._fleet
        if self._columnar is not None:
            ledgers = self._columnar.ledgers
            summary = FleetSummary(
                light_sleep_s=float(
                    ledgers.group_seconds(StateGroup.LIGHT_SLEEP).sum()
                ),
                connected_s=float(
                    ledgers.group_seconds(StateGroup.CONNECTED).sum()
                ),
                sleep_s=float(ledgers.group_seconds(StateGroup.SLEEP).sum()),
                energy_mj=float(ledgers.energy_mj(self.energy_profile).sum()),
            )
        else:
            light = connected = sleep = energy = 0.0
            for outcome in self.outcomes:
                totals = outcome.totals
                light += totals.light_sleep_s
                connected += totals.connected_s
                sleep += totals.sleep_s
                energy += outcome.ledger.energy_mj(self.energy_profile)
            summary = FleetSummary(
                light_sleep_s=light,
                connected_s=connected,
                sleep_s=sleep,
                energy_mj=energy,
            )
        self._fleet = summary
        return summary

    @property
    def mean_wait_s(self) -> float:
        """Mean connected wait before the data started (~TI/2 for the
        windowed mechanisms, 0 for unicast)."""
        if self.n_devices == 0:
            raise SimulationError(
                "mean_wait_s is undefined for a result with no outcomes"
            )
        if self._columnar is not None:
            return float(self._columnar.wait_s.mean())
        return float(np.mean([o.wait_s for o in self.outcomes]))

    def relative_uptime_increase(
        self, baseline: "CampaignResult"
    ) -> RelativeIncrease:
        """Fig. 6's metric: fleet uptime increase over ``baseline``.

        The baseline must cover the same fleet over the same horizon,
        otherwise light-sleep PO counts are not comparable.
        """
        if baseline.n_devices != self.n_devices:
            raise SimulationError(
                "baseline covers a different fleet "
                f"({baseline.n_devices} vs {self.n_devices} devices)"
            )
        if baseline.horizon_frames != self.horizon_frames:
            raise SimulationError(
                "baseline horizon differs "
                f"({baseline.horizon_frames} vs {self.horizon_frames} frames); "
                "evaluate the baseline with horizon_frames="
                f"{self.horizon_frames}"
            )
        return self.fleet.totals.relative_increase_over(baseline.fleet.totals)

    def energy_increase_over(self, baseline: "CampaignResult") -> float:
        """Fractional fleet energy increase over ``baseline``."""
        base = baseline.fleet.energy_mj
        if base <= 0:
            raise SimulationError("baseline energy is zero")
        return (self.fleet.energy_mj - base) / base

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        form = "columnar" if self._columnar is not None else "rows"
        return (
            f"CampaignResult(mechanism={self.mechanism!r}, "
            f"n={self.n_devices}, horizon={self.horizon_frames}, {form})"
        )
