"""DR-SI: DRX-Respecting, Standards-Incompliant grouping (paper Sec. III-C).

Devices keep their preferred cycles (as in DR-SC) yet a single
transmission suffices (as in DA-SC) — at the cost of protocol changes:

* the eNB adds a non-critical extension (``mltc-transmission``) to the
  paging message, carrying the device identity and the time remaining
  until the multicast. The identity appears *only* in the extension,
  not in the ``PagingRecordList``, so the device knows it is not being
  paged for downlink data and **does not connect** — it just arms a new
  timer (``T322``) for "a random time value between [t - TI, t)";
* when T322 expires the device wakes, connects, and marks the
  connection with the new establishment cause ``multicastReception``.

Devices that naturally have a PO inside the window are paged normally
at it — no extension needed for them.

The random (rather than coordinated) wake time inside the window is the
paper's design: it spreads the random-access load of the whole group
over the TI window instead of synchronising a RACH stampede at t - TI.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import GroupingMechanism, PlanningContext
from repro.core.plan import (
    METHOD_CODE,
    MulticastPlan,
    PlanArrays,
    WakeMethod,
    check_rows,
)
from repro.devices.fleet import Fleet
from repro.drx.schedule import v_first_at_or_after
from repro.errors import ConfigurationError
from repro.grouping.policies import SingleGroupPolicy
from repro.grouping.policy import GroupingPolicy


class DrSiMechanism(GroupingMechanism):
    """Single-transmission grouping via extended paging + T322."""

    name = "dr-si"
    standards_compliant = False
    respects_preferred_drx = True

    def _default_policy(self) -> GroupingPolicy:
        return SingleGroupPolicy()

    def plan(
        self,
        fleet: Fleet,
        context: PlanningContext,
        rng: Optional[np.random.Generator] = None,
    ) -> MulticastPlan:
        """Plan one transmission per policy group.

        Under the default single-group policy this is Sec. III-C
        verbatim: one transmission at ``t = announce + 2 * maxDRX``.
        Members with a PO inside their group's window are paged at it;
        the rest receive the ``mltc-transmission`` extension at an
        earlier PO and self-wake when T322 expires.

        ``rng`` draws each notified device's uniform T322 expiry inside
        the window; it is required because the random wake time is part
        of the mechanism itself (not just tie-breaking).
        """
        if rng is None:
            raise ConfigurationError(
                "DR-SI needs an RNG: devices select a random wake time "
                "within [t - TI, t)"
            )
        decision = self._policy.group(fleet, context, rng)
        rows = self._window_rows(fleet, context, decision)
        page, connect = rows.page, rows.page.copy()
        notified = np.flatnonzero(~rows.has_po)
        if notified.size:
            # Extended page at the device's first PO after the announce:
            # "notify the devices well in advance of the time of the
            # multicast transmission".
            device = rows.device[notified]
            page[notified] = v_first_at_or_after(
                fleet.phases[device], fleet.periods[device], context.announce_frame
            )
            check_rows(
                page[notified] >= rows.start[notified],
                "device {d}: first PO {p} already inside the window despite "
                "having no window PO",
                d=device,
                p=page[notified],
            )  # pragma: no cover - unreachable by construction
            # Each group draws its notified members' wake frames in one
            # call, in member order: the same stream as one draw each.
            bounds = np.searchsorted(
                rows.transmission[notified],
                np.arange(rows.group_end.size + 1),
            ).tolist()
            windows = zip(rows.group_start.tolist(), rows.group_end.tolist())
            for (lo, hi), a, b in zip(windows, bounds[:-1], bounds[1:]):
                if b > a:
                    connect[notified[a:b]] = rng.integers(lo, hi, size=b - a)
        method = np.where(
            rows.has_po,
            METHOD_CODE[WakeMethod.PAGED_IN_WINDOW],
            METHOD_CODE[WakeMethod.EXTENDED_PAGE_TIMER],
        )
        columns = PlanArrays(rows.device, rows.transmission, method, page, connect)
        return self._assemble(fleet, context, columns, rows.group_end)
