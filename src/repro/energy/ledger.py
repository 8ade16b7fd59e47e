"""Uptime and energy ledgers.

A :class:`UptimeLedger` holds one device's seconds per power state over
a campaign and produces the split the paper's Fig. 6 plots: light-sleep
uptime vs connected-mode uptime. The tests' event-driven replay builds
one per device from the seconds it accumulated; a campaign result's row
view holds one read from its column of the result's per-state seconds
matrix (:class:`~repro.sim.metrics.CampaignResult`), whose rows follow
:data:`STATE_ORDER`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.energy.profiles import DEFAULT_PROFILE, EnergyProfile
from repro.energy.states import STATE_GROUPS, PowerState, StateGroup
from repro.errors import ConfigurationError

#: Fixed row order of a result's per-state seconds matrix (PowerState
#: declaration order, which is also the summation order of
#: ``UptimeLedger.group_seconds``).
STATE_ORDER = tuple(PowerState)

#: Row index of each power state inside a per-state seconds matrix.
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
    """Frozen record of one device's seconds in each power state.

    Built from ``{state: seconds}`` (states left out hold 0); negative
    seconds are rejected. Two ledgers are equal, and hash alike, when
    they hold the same seconds in every state, so result rows (which
    hold one) compare and hash by value.
    """

    __slots__ = ("_seconds",)

    def __init__(self, seconds: Optional[Mapping[PowerState, float]] = None) -> None:
        values = [0.0] * len(STATE_ORDER)
        for state, value in (seconds or {}).items():
            if value < 0:
                raise ConfigurationError(
                    f"negative duration {value} for {state}"
                )
            values[STATE_INDEX[state]] = float(value)
        object.__setattr__(self, "_seconds", tuple(values))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("an UptimeLedger is immutable")

    def __reduce__(self):
        return UptimeLedger, (dict(zip(STATE_ORDER, self._seconds)),)

    def seconds_in(self, state: PowerState) -> float:
        """Total seconds recorded in ``state``."""
        return self._seconds[STATE_INDEX[state]]

    def group_seconds(self, group: StateGroup) -> float:
        """Total seconds across all states in ``group``."""
        return sum(
            value
            for state, value in zip(STATE_ORDER, self._seconds)
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
            for state, seconds in zip(STATE_ORDER, self._seconds)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UptimeLedger):
            return NotImplemented
        return self._seconds == other._seconds

    def __hash__(self) -> int:
        return hash(self._seconds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        totals = self.totals
        return (
            f"UptimeLedger(light={totals.light_sleep_s:.3f}s, "
            f"connected={totals.connected_s:.3f}s)"
        )

