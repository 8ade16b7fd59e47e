"""The unicast baseline the paper normalises against (Sec. IV-A).

"Each device receiving the multicast data based on its own DRX and
without waiting for other devices. Since unicast transmission would not
introduce any additional processes, it is the most efficient way to
receive the data in terms of energy consumption from the device
perspective" — every device is paged at its first PO after the
announce, connects, and is served immediately at its own link rate.

It is of course the *worst* case for bandwidth: N devices need N
transmissions, which is the reference Fig. 7 compares DR-SC against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import GroupingMechanism, PlanningContext
from repro.core.plan import METHOD_CODE, MulticastPlan, PlanArrays, WakeMethod
from repro.devices.fleet import Fleet
from repro.drx.schedule import v_first_at_or_after


class UnicastBaseline(GroupingMechanism):
    """One transmission per device at its first paging opportunity.

    Grouping is degenerate here — every device is its own group by
    definition — so the baseline accepts (and ignores) a grouping
    policy purely for constructor symmetry with the real mechanisms.
    """

    name = "unicast"
    standards_compliant = True
    respects_preferred_drx = True

    def plan(
        self,
        fleet: Fleet,
        context: PlanningContext,
        rng: Optional[np.random.Generator] = None,
    ) -> MulticastPlan:
        """Page every device at its first PO and serve it immediately."""
        page = v_first_at_or_after(fleet.phases, fleet.periods, context.announce_frame)
        # The unicast data flows as soon as the device is connected; the
        # nominal transmission frame includes the connect slack. Order by
        # that start, page frame as tie-break (a stable sort), so
        # transmission indices follow the campaign timeline even in
        # mixed-coverage fleets where a later page with less slack can
        # start earlier.
        start = page + context.connect_slack_table()[fleet.coverage_codes]
        order = np.lexsort((page, start))
        page = page[order]
        columns = PlanArrays(
            order,
            np.arange(order.size, dtype=np.int64),
            METHOD_CODE[WakeMethod.IMMEDIATE_PAGE],
            page,
            page,
        )
        return self._assemble(fleet, context, columns, start[order])
