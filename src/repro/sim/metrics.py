"""Campaign results and the paper's comparison metrics.

A :class:`CampaignResult` is one frozen column table of per-device
outcomes, whichever path produced it (the vectorised executor, the
STRICT log replay, or the tests' event-driven oracle): per-device columns
sorted by device, the per-state seconds matrix, and the realised start
of every transmission.

Fleet-level summaries (:attr:`CampaignResult.fleet`,
:attr:`CampaignResult.mean_wait_s`) reduce the columns with array
arithmetic; indexing a result builds a per-device
:class:`DeviceOutcome` view on access. The fleet-level summary holds
the sums Fig. 6's relative increases are built from (the runner's cell
executes every compared plan over the *same* horizon) and what Fig. 7
plots (the transmission count).
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.energy.ledger import STATE_INDEX, STATE_ORDER, UptimeLedger, UptimeTotals
from repro.energy.profiles import DEFAULT_PROFILE, EnergyProfile
from repro.energy.states import STATE_GROUPS, PowerState, StateGroup
from repro.errors import ConfigurationError, SimulationError
from repro.table import ColumnTable


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


def _group_seconds(
    seconds: np.ndarray, group: StateGroup, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per-device seconds across the states of ``group``.

    Rows are added in :data:`STATE_ORDER`, matching the summation order
    of :meth:`UptimeLedger.group_seconds` float for float. ``out``, when
    given, is a zeroed buffer to sum into.
    """
    total = np.zeros(seconds.shape[1], dtype=np.float64) if out is None else out
    for row, state in enumerate(STATE_ORDER):
        if STATE_GROUPS[state] is group:
            total += seconds[row]
    return total


def fold_ledgers(
    horizon_s: float,
    *,
    po_count: np.ndarray, po_monitor_s: float,
    page_rx: np.ndarray, paging_message_s: float,
    is_da: np.ndarray, ra_base: np.ndarray, episode: np.ndarray,
    main_ra: np.ndarray, rrc_setup_s: float, tail: np.ndarray,
    wait: np.ndarray, rx: np.ndarray,
) -> np.ndarray:
    """Every device's per-state seconds over a ``horizon_s`` campaign.

    Returns an ``(n_states, n)`` matrix, one row per state in
    :data:`STATE_ORDER`, laid out F-contiguous: the layout
    :class:`CampaignResult` stores, so a result keeps the matrix without
    a copy. Its columns follow the rows of the array arguments, which
    share one order; a scalar argument holds for every row. The
    columnar executor folds its durations here (in device order) and
    the STRICT log replay its logged ones, so equal inputs give
    bit-identical matrices.

    DA-SC-adapted devices (``is_da``) add their adaptation episode:
    ``episode`` seconds, ``ra_base`` of them random access, after one
    paging message. With no adapted row those terms are all 0.0 and
    are skipped, and ``episode`` is not read. Deep sleep fills the rest
    of the horizon. A negative duration raises
    :class:`ConfigurationError`.
    """
    seconds = np.zeros((wait.size, len(STATE_ORDER)), dtype=np.float64).T

    def add(state: PowerState, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if np.any(values < 0):
            raise ConfigurationError(f"cannot add negative durations for {state}")
        seconds[STATE_INDEX[state]] += values

    add(PowerState.PO_MONITOR, po_count * po_monitor_s)
    if np.any(is_da):
        # One buffer holds each row's charge in turn (IEEE addition
        # commutes, so ``charge += x`` is the sum ``x + charge`` too).
        charge = np.where(is_da, paging_message_s, 0.0)
        charge += page_rx
        add(PowerState.PAGING_RX, charge)
        np.copyto(charge, ra_base)
        charge[~is_da] = 0.0
        charge += main_ra
        add(PowerState.RANDOM_ACCESS, charge)
        np.subtract(episode, ra_base, out=charge)
        charge[~is_da] = 0.0
        charge += rrc_setup_s
        charge += tail
        add(PowerState.RRC_SIGNALLING, charge)
        del charge
    else:
        # The adaptation terms are 0.0 and ``ra_base`` and ``episode``
        # are not read; adding 0.0 to a row that starts at 0.0 changes
        # no bit.
        add(PowerState.PAGING_RX, page_rx)
        add(PowerState.RANDOM_ACCESS, main_ra)
        add(PowerState.RRC_SIGNALLING, rrc_setup_s + tail)
    add(PowerState.CONNECTED_WAIT, wait)
    add(PowerState.CONNECTED_RX, rx)
    # max(0, (horizon - light) - connected) in one buffer; the deep-sleep
    # row, zero until the end, holds the connected sum meanwhile.
    deep = _group_seconds(seconds, StateGroup.LIGHT_SLEEP)
    np.subtract(horizon_s, deep, out=deep)
    deep_row = seconds[STATE_INDEX[PowerState.DEEP_SLEEP]]
    deep -= _group_seconds(seconds, StateGroup.CONNECTED, out=deep_row)
    deep_row[...] = 0.0
    add(PowerState.DEEP_SLEEP, np.maximum(0.0, deep, out=deep))
    return seconds


@dataclass(frozen=True)
class FleetSummary:
    """Fleet-aggregated uptime (the sums Fig. 6 ratios are built from)."""

    light_sleep_s: float
    connected_s: float
    sleep_s: float
    energy_mj: float


#: The columns of :class:`CampaignResult` and their dtypes.
_COLUMNS = (
    ("device", np.int64),
    ("transmission", np.int64),
    ("ready_s", np.float64),
    ("wait_s", np.float64),
    ("updated_s", np.float64),
    ("seconds", np.float64),
    ("actual_start_s", np.float64),
)


@dataclass(frozen=True, eq=False)
class CampaignResult(ColumnTable, SequenceABC):
    """Everything measured from executing one plan on one fleet, as a
    frozen column table.

    One row per device, sorted by ``device`` (the fleet index):
    ``transmission`` is the plan transmission that served it,
    ``ready_s`` when it was connected and ready for the data, ``wait_s``
    its connected idle time until that transmission began and
    ``updated_s`` when it finished receiving the payload. ``seconds``
    is the ``(n_states, n)`` time per power state, one row per state in
    :data:`STATE_ORDER`. ``actual_start_s`` holds one realised start per
    plan transmission. Every column is read-only.

    ``seconds`` is stored F-contiguous, the layout the columnar
    executor's sort by device produces; the layout fixes the float
    order of :meth:`energy_mj`'s matrix product, so every executor's
    result sums energy bit for bit alike. A matrix already in that
    layout is not copied. As a sequence, the rows read as
    :class:`DeviceOutcome` views built on access (never cached).
    """

    device: np.ndarray
    transmission: np.ndarray
    ready_s: np.ndarray
    wait_s: np.ndarray
    updated_s: np.ndarray
    seconds: np.ndarray
    actual_start_s: np.ndarray
    horizon_frames: int
    mechanism: str
    energy_profile: EnergyProfile = DEFAULT_PROFILE

    def __post_init__(self) -> None:
        n = np.asarray(self.device).size
        for name, dtype in _COLUMNS:
            # order="F" leaves a 1-D column contiguous and lays out the
            # matrix F-contiguous, copying only what is not already so.
            column = np.asarray(getattr(self, name), dtype=dtype, order="F")
            expected = {
                "seconds": (len(STATE_ORDER), n),
                "actual_start_s": (column.size,),
            }.get(name, (n,))
            if column.shape != expected:
                raise SimulationError(
                    f"column {name!r} has shape {column.shape}, expected {expected}"
                )
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "horizon_frames", int(self.horizon_frames))

    # ------------------------------------------------------------------
    # The outcome-sequence view
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.device.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        row = range(len(self))[index]
        column = self.seconds[:, row].tolist()
        return DeviceOutcome(
            device_index=int(self.device[row]),
            transmission_index=int(self.transmission[row]),
            ledger=UptimeLedger(dict(zip(STATE_ORDER, column))),
            ready_s=float(self.ready_s[row]),
            wait_s=float(self.wait_s[row]),
            updated_s=float(self.updated_s[row]),
        )

    @property
    def n_transmissions(self) -> int:
        """The paper's bandwidth-utilisation proxy."""
        return self.actual_start_s.size

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def group_seconds(self, group: StateGroup) -> np.ndarray:
        """Per-device seconds across all states in ``group``."""
        return _group_seconds(self.seconds, group)

    def energy_mj(self) -> np.ndarray:
        """Per-device energy in millijoules under the result's profile."""
        powers = np.array(
            [self.energy_profile.power_mw(state) for state in STATE_ORDER],
            dtype=np.float64,
        )
        return powers @ self.seconds

    @property
    def fleet(self) -> FleetSummary:
        """Fleet-level sums across all devices."""
        return FleetSummary(
            light_sleep_s=float(self.group_seconds(StateGroup.LIGHT_SLEEP).sum()),
            connected_s=float(self.group_seconds(StateGroup.CONNECTED).sum()),
            sleep_s=float(self.group_seconds(StateGroup.SLEEP).sum()),
            energy_mj=float(self.energy_mj().sum()),
        )

    @property
    def mean_wait_s(self) -> float:
        """Mean connected wait before the data started (~TI/2 for the
        windowed mechanisms, 0 for unicast)."""
        if not len(self):
            raise SimulationError(
                "mean_wait_s is undefined for a result with no outcomes"
            )
        return float(self.wait_s.mean())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CampaignResult(mechanism={self.mechanism!r}, "
            f"n={len(self)}, horizon={self.horizon_frames})"
        )
