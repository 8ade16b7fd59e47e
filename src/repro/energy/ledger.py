"""Uptime and energy ledgers.

A :class:`UptimeLedger` accumulates (state, duration) contributions for a
single device over a campaign and produces the split the paper's Fig. 6
plots: light-sleep uptime vs connected-mode uptime. Ledgers add
componentwise, so fleet totals are ``sum(ledgers, UptimeLedger())``-style
reductions done by the metrics layer.

:class:`LedgerArray` is the columnar counterpart used by the vectorised
executor: one ``(n_states, n_devices)`` matrix instead of one dict per
device, with all group/energy reductions as NumPy array arithmetic.
Individual :class:`UptimeLedger` views are materialised on demand only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.energy.profiles import DEFAULT_PROFILE, EnergyProfile
from repro.energy.states import STATE_GROUPS, PowerState, StateGroup
from repro.errors import ConfigurationError

#: Fixed row order of :class:`LedgerArray` (PowerState declaration order,
#: which is also the summation order of ``UptimeLedger.group_seconds``).
STATE_ORDER = tuple(PowerState)

#: Row index of each power state inside a :class:`LedgerArray`.
STATE_INDEX: Dict[PowerState, int] = {s: i for i, s in enumerate(STATE_ORDER)}


@dataclass(frozen=True)
class UptimeTotals:
    """The paper's uptime split, in seconds.

    ``light_sleep_s`` is time in PO monitoring / paging reception;
    ``connected_s`` is time in random access, signalling, waiting and
    data reception; ``sleep_s`` completes the timeline but is *not*
    uptime.
    """

    light_sleep_s: float
    connected_s: float
    sleep_s: float = 0.0

    @property
    def uptime_s(self) -> float:
        """Total uptime (light sleep + connected)."""
        return self.light_sleep_s + self.connected_s


class UptimeLedger:
    """Mutable per-device accumulator of time spent in each power state."""

    __slots__ = ("_seconds",)

    def __init__(self, seconds: Optional[Mapping[PowerState, float]] = None) -> None:
        self._seconds: Dict[PowerState, float] = {state: 0.0 for state in PowerState}
        if seconds:
            for state, value in seconds.items():
                self.add(state, value)

    def add(self, state: PowerState, seconds: float) -> None:
        """Accumulate ``seconds`` of time spent in ``state``."""
        if seconds < 0:
            raise ConfigurationError(
                f"cannot add negative duration {seconds} for {state}"
            )
        self._seconds[state] += seconds

    def seconds_in(self, state: PowerState) -> float:
        """Total seconds recorded in ``state``."""
        return self._seconds[state]

    def group_seconds(self, group: StateGroup) -> float:
        """Total seconds across all states in ``group``."""
        return sum(
            value
            for state, value in self._seconds.items()
            if STATE_GROUPS[state] is group
        )

    @property
    def totals(self) -> UptimeTotals:
        """The paper's uptime split for this device."""
        return UptimeTotals(
            light_sleep_s=self.group_seconds(StateGroup.LIGHT_SLEEP),
            connected_s=self.group_seconds(StateGroup.CONNECTED),
            sleep_s=self.group_seconds(StateGroup.SLEEP),
        )

    def energy_mj(self, profile: EnergyProfile = DEFAULT_PROFILE) -> float:
        """Total energy in millijoules under ``profile``."""
        return sum(
            profile.energy_mj(state, seconds)
            for state, seconds in self._seconds.items()
        )

    def merged_with(self, other: "UptimeLedger") -> "UptimeLedger":
        """A new ledger holding the componentwise sum of both ledgers."""
        merged = UptimeLedger()
        for state in PowerState:
            merged.add(state, self.seconds_in(state) + other.seconds_in(state))
        return merged

    def as_dict(self) -> Dict[PowerState, float]:
        """Copy of the per-state seconds (for reporting/serialisation)."""
        return dict(self._seconds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        totals = self.totals
        return (
            f"UptimeLedger(light={totals.light_sleep_s:.3f}s, "
            f"connected={totals.connected_s:.3f}s)"
        )


class LedgerArray:
    """An array-of-ledgers: per-state seconds for a whole fleet at once.

    Rows follow :data:`STATE_ORDER`; columns are devices. Group and
    energy reductions are single matrix operations, so fleet-level
    summaries never touch per-device Python objects.
    """

    __slots__ = ("seconds",)

    def __init__(self, n_devices: int) -> None:
        if n_devices < 0:
            raise ConfigurationError(
                f"device count must be non-negative, got {n_devices}"
            )
        self.seconds = np.zeros((len(STATE_ORDER), n_devices), dtype=np.float64)

    def __len__(self) -> int:
        return self.seconds.shape[1]

    @classmethod
    def from_ledgers(cls, ledgers: Sequence[UptimeLedger]) -> "LedgerArray":
        """One column per scalar ledger, in order."""
        array = cls(len(ledgers))
        for row, state in enumerate(STATE_ORDER):
            array.seconds[row] = [ledger.seconds_in(state) for ledger in ledgers]
        return array

    def add(self, state: PowerState, values: np.ndarray) -> None:
        """Accumulate per-device ``values`` seconds spent in ``state``."""
        values = np.asarray(values, dtype=np.float64)
        if np.any(values < 0):
            raise ConfigurationError(f"cannot add negative durations for {state}")
        self.seconds[STATE_INDEX[state]] += values

    def seconds_in(self, state: PowerState) -> np.ndarray:
        """Per-device seconds recorded in ``state`` (a view)."""
        return self.seconds[STATE_INDEX[state]]

    def group_seconds(self, group: StateGroup) -> np.ndarray:
        """Per-device seconds across all states in ``group``.

        Rows are added in :data:`STATE_ORDER`, matching the summation
        order of :meth:`UptimeLedger.group_seconds` float for float.
        """
        total = np.zeros(len(self), dtype=np.float64)
        for state in STATE_ORDER:
            if STATE_GROUPS[state] is group:
                total += self.seconds[STATE_INDEX[state]]
        return total

    def energy_mj(self, profile: EnergyProfile = DEFAULT_PROFILE) -> np.ndarray:
        """Per-device energy in millijoules under ``profile``."""
        powers = np.array(
            [profile.power_mw(state) for state in STATE_ORDER], dtype=np.float64
        )
        return powers @ self.seconds

    def take(self, order: np.ndarray) -> "LedgerArray":
        """A new array with columns permuted/selected by ``order``."""
        picked = LedgerArray(0)
        picked.seconds = self.seconds[:, order]
        return picked

    def ledger_at(self, column: int) -> UptimeLedger:
        """Materialise one device's :class:`UptimeLedger` (reporting only)."""
        return UptimeLedger(
            {state: float(self.seconds[i, column]) for i, state in enumerate(STATE_ORDER)}
        )
