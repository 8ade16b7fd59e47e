"""Device power-state and energy accounting.

The paper deliberately avoids absolute energy numbers ("specific energy
consumption values are hard to estimate, as they are device specific")
and instead reports *relative uptime increase* split into light-sleep
uptime (PO monitoring, paging reception) and connected-mode uptime
(random access, waiting, payload reception), because connected-mode
current draw is an order of magnitude above light sleep (refs [12, 13]).

This package mirrors that methodology: :class:`~repro.energy.ledger.UptimeLedger`
accumulates per-state durations, exposes the light/connected split the
figures use, and can *optionally* convert to joules through a
:class:`~repro.energy.profiles.EnergyProfile`.
"""

from repro.energy.states import PowerState, STATE_GROUPS, StateGroup
from repro.energy.profiles import (
    DEFAULT_PROFILE,
    EnergyProfile,
    REPRESENTATIVE_MODULE,
)
from repro.energy.ledger import (
    STATE_INDEX,
    STATE_ORDER,
    UptimeLedger,
    UptimeTotals,
)
from repro.energy.lifetime import DutyCycle, LifetimeProjection, project_lifetime

__all__ = [
    "PowerState",
    "StateGroup",
    "STATE_GROUPS",
    "EnergyProfile",
    "REPRESENTATIVE_MODULE",
    "DEFAULT_PROFILE",
    "UptimeLedger",
    "UptimeTotals",
    "STATE_ORDER",
    "STATE_INDEX",
    "DutyCycle",
    "LifetimeProjection",
    "project_lifetime",
]
