"""Campaign results and the paper's comparison metrics.

A campaign result holds the per-device uptime accounting plus the
realised transmission times. Its one backing is columnar: a
:class:`FleetOutcomes` bundle of parallel NumPy arrays plus a
:class:`~repro.energy.ledger.LedgerArray`, whichever executor (the
vectorised one or the event-driven replay) produced it.

Fleet-level summaries (:attr:`CampaignResult.fleet`,
:attr:`CampaignResult.mean_wait_s`) reduce the columns with array
arithmetic; per-device :class:`DeviceOutcome` views are materialised
lazily and only when a consumer actually iterates ``outcomes``. The
fleet-level summary holds the sums Fig. 6's relative increases are
built from (the runner's cell executes every compared plan over the
*same* horizon) and what Fig. 7 plots (the transmission count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.plan import MulticastPlan
from repro.energy.ledger import LedgerArray, UptimeLedger, UptimeTotals
from repro.energy.profiles import DEFAULT_PROFILE, EnergyProfile
from repro.energy.states import PowerState, StateGroup
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


def fold_ledgers(
    horizon_s: float,
    *,
    po_count: np.ndarray, po_monitor_s: float,
    page_rx: np.ndarray, paging_message_s: float,
    is_da: np.ndarray, ra_base: np.ndarray, episode: np.ndarray,
    main_ra: np.ndarray, rrc_setup_s: float, tail: np.ndarray,
    wait: np.ndarray, rx: np.ndarray,
) -> LedgerArray:
    """Every device's per-state seconds over a ``horizon_s`` campaign.

    The columnar executor folds its durations here and the STRICT log
    replay its logged ones, so equal inputs give bit-identical ledgers.
    DA-SC-adapted devices (``is_da``) add their adaptation episode:
    ``episode`` seconds, ``ra_base`` of them random access, after one
    paging message. Deep sleep fills the rest of the horizon.
    """
    ledgers = LedgerArray(wait.size)
    ledgers.add(PowerState.PO_MONITOR, po_count * po_monitor_s)
    ledgers.add(
        PowerState.PAGING_RX, page_rx + np.where(is_da, paging_message_s, 0.0)
    )
    ledgers.add(PowerState.RANDOM_ACCESS, np.where(is_da, ra_base, 0.0) + main_ra)
    ledgers.add(
        PowerState.RRC_SIGNALLING,
        (np.where(is_da, episode - ra_base, 0.0) + rrc_setup_s) + tail,
    )
    ledgers.add(PowerState.CONNECTED_WAIT, wait)
    ledgers.add(PowerState.CONNECTED_RX, rx)
    # group_seconds left-folds in STATE_ORDER, float-for-float the same
    # sums a scalar UptimeLedger.totals produces.
    light = ledgers.group_seconds(StateGroup.LIGHT_SLEEP)
    connected = ledgers.group_seconds(StateGroup.CONNECTED)
    ledgers.add(
        PowerState.DEEP_SLEEP, np.maximum(0.0, (horizon_s - light) - connected)
    )
    return ledgers


@dataclass(frozen=True)
class FleetSummary:
    """Fleet-aggregated uptime (the sums Fig. 6 ratios are built from)."""

    light_sleep_s: float
    connected_s: float
    sleep_s: float
    energy_mj: float


class CampaignResult:
    """Everything measured from executing one plan on one fleet,
    backed by its :class:`FleetOutcomes` columns; ``outcomes``
    materialises the per-device row form lazily."""

    def __init__(
        self,
        plan: MulticastPlan,
        horizon_frames: int,
        columnar: FleetOutcomes,
        actual_start_s: Tuple[float, ...] = (),
        energy_profile: EnergyProfile = DEFAULT_PROFILE,
    ) -> None:
        self.plan = plan
        self.horizon_frames = horizon_frames
        self.actual_start_s = tuple(actual_start_s)
        self.energy_profile = energy_profile
        self._outcomes: Optional[Tuple[DeviceOutcome, ...]] = None
        self._columnar = columnar
        self._fleet: Optional[FleetSummary] = None

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def columnar(self) -> FleetOutcomes:
        """The columnar backing."""
        return self._columnar

    @property
    def n_devices(self) -> int:
        """Number of devices covered (without materialising outcomes)."""
        return len(self._columnar)

    @property
    def outcomes(self) -> Tuple[DeviceOutcome, ...]:
        """Per-device outcomes, sorted by device index.

        Materialised (and cached) on first access; fleet summaries
        never need this.
        """
        if self._outcomes is None:
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
        """Fleet-level sums across all devices (cached), reduced with
        array arithmetic."""
        if self._fleet is None:
            ledgers = self._columnar.ledgers
            self._fleet = FleetSummary(
                light_sleep_s=float(
                    ledgers.group_seconds(StateGroup.LIGHT_SLEEP).sum()
                ),
                connected_s=float(
                    ledgers.group_seconds(StateGroup.CONNECTED).sum()
                ),
                sleep_s=float(ledgers.group_seconds(StateGroup.SLEEP).sum()),
                energy_mj=float(ledgers.energy_mj(self.energy_profile).sum()),
            )
        return self._fleet

    @property
    def mean_wait_s(self) -> float:
        """Mean connected wait before the data started (~TI/2 for the
        windowed mechanisms, 0 for unicast)."""
        if self.n_devices == 0:
            raise SimulationError(
                "mean_wait_s is undefined for a result with no outcomes"
            )
        return float(self._columnar.wait_s.mean())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CampaignResult(mechanism={self.mechanism!r}, "
            f"n={self.n_devices}, horizon={self.horizon_frames})"
        )
