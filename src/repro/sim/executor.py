"""The campaign executor: plan -> per-device ledgers.

Turns a validated :class:`~repro.core.plan.MulticastPlan` into a
:class:`~repro.sim.metrics.CampaignResult` by accounting each device's
timeline over a common observation horizon:

* idle periods — every paging occasion costs one PO-monitor interval
  (light sleep); the grid is the preferred cycle except, for DA-SC
  adapted devices, the temporarily shortened grid between adaptation
  and the multicast;
* paging receptions (normal, extended) — light sleep;
* random access, RRC signalling, connected waiting and data reception —
  connected mode;
* everything else — deep sleep.

The transmission start is the realistic one: the eNB begins the
multicast at the nominal frame *or* as soon as the last paged group
member is connected, whichever is later (devices paged at the very end
of the window still need their random access to finish). Waits are
therefore never negative.

The arithmetic is the vectorised whole-fleet path of
:mod:`repro.sim.columnar`. The same accounting is reproduced
event-by-event on the discrete-event engine in
``tests/executor_oracle.py``, the executor's independent oracle; the
tests assert both agree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.eventlog import EventLogRecorder

from repro.core.plan import MulticastPlan
from repro.devices.fleet import Fleet
from repro.energy.profiles import DEFAULT_PROFILE, EnergyProfile
from repro.rrc.procedures import ProcedureTimings
from repro.sim.columnar import execute_columnar
from repro.sim.metrics import CampaignResult


class CampaignExecutor:
    """Executes plans with whole-fleet timeline arithmetic."""

    def __init__(
        self,
        timings: ProcedureTimings = ProcedureTimings(),
        energy_profile: EnergyProfile = DEFAULT_PROFILE,
    ) -> None:
        self._timings = timings
        self._profile = energy_profile

    @property
    def timings(self) -> ProcedureTimings:
        """The control-plane timing model in force."""
        return self._timings

    def execute(
        self,
        fleet: Fleet,
        plan: MulticastPlan,
        horizon_frames: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        recorder: Optional["EventLogRecorder"] = None,
    ) -> CampaignResult:
        """Run ``plan`` against ``fleet`` over a common horizon.

        ``horizon_frames`` fixes the observation window; it defaults to
        just past the campaign's real end. Pass the horizon of another
        result to build a comparable baseline (Fig. 6 divides uptime
        sums computed over identical horizons).

        ``rng`` is only needed when the random access model injects
        contention. ``recorder`` (see :mod:`repro.sim.eventlog`)
        captures the campaign's semantic events; the caller finalises
        it into an :class:`EventLog`.
        """
        return execute_columnar(
            fleet,
            plan,
            timings=self._timings,
            energy_profile=self._profile,
            horizon_frames=horizon_frames,
            rng=rng,
            recorder=recorder,
        )
