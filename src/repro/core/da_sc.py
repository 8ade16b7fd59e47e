"""DA-SC: DRX-Adjusting, Standards-Compliant grouping (paper Sec. III-B).

The eNB picks one transmission time ``t`` at least twice the longest
device cycle after the announce ("at least 2 * maxDRX ... so that there
will be at least one PO of every device before t") and forces every
device to have a PO inside ``[t - TI, t)``:

* devices that already have a PO there are simply paged at it;
* every other device is paged at its **last PO before t - TI**,
  connects through random access, receives the temporary (shorter) DRX
  cycle in an RRC Connection Reconfiguration, and is released straight
  back to sleep; after the multicast the original cycle is restored
  with one more reconfiguration while the device is still connected.

The temporary cycle is "the maximum that creates a PO within that time
period". Because every ladder value divides every longer one, PO grids
*nest*: shortening a cycle only adds wake-ups, and the grid of a longer
cycle is a subset of any shorter one's. Two consequences the module
relies on (both property-tested):

1. the adaptation PO itself stays a PO under the new cycle, and the
   restore needs no phase bookkeeping;
2. the *maximum* feasible cycle is also the *minimum-wake-up* choice —
   the paper's two stated goals (max cycle, minimal introduced energy)
   coincide, so the ``PAPER`` strategy is optimal among grid-anchored
   adaptations. The ``LARGEST_WITHIN_TI`` strategy is the naive
   fallback (always pick the largest ladder cycle no longer than TI,
   which hits any TI-window) used as an ablation.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Tuple

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
from repro.drx.cycles import FULL_LADDER
from repro.drx.paging import UE_ID_SPACE, v_paging_frame_offset
from repro.drx.schedule import v_first_at_or_after, v_last_at_or_before
from repro.grouping.policies import SingleGroupPolicy
from repro.grouping.policy import GroupingPolicy


class AdaptationStrategy(Enum):
    """How DA-SC chooses the temporary cycle."""

    PAPER = "paper"
    """Sec. III-B verbatim: the maximum ladder cycle whose grid has a PO
    inside [t - TI, t) after the adaptation PO. Also minimises the
    number of introduced wake-ups (grids nest)."""

    LARGEST_WITHIN_TI = "largest_within_ti"
    """Always the largest ladder cycle <= TI (guaranteed window hit,
    no per-device search). More wake-ups; the signalling is simpler."""


class DaScMechanism(GroupingMechanism):
    """Single-transmission grouping via temporary DRX shortening."""

    name = "da-sc"
    standards_compliant = True
    respects_preferred_drx = False

    def __init__(
        self,
        strategy: AdaptationStrategy = AdaptationStrategy.PAPER,
        policy: Optional[GroupingPolicy] = None,
    ) -> None:
        super().__init__(policy)
        self._strategy = strategy

    def _default_policy(self) -> GroupingPolicy:
        return SingleGroupPolicy()

    @property
    def strategy(self) -> AdaptationStrategy:
        """The configured adaptation strategy."""
        return self._strategy

    def plan(
        self,
        fleet: Fleet,
        context: PlanningContext,
        rng: Optional[np.random.Generator] = None,
    ) -> MulticastPlan:
        """Plan one synchronised transmission per policy group.

        Under the default single-group policy this is Sec. III-B
        verbatim: one transmission at ``t = announce + 2 * maxDRX``.
        Other policies yield one transmission per group; members with a
        PO inside their group's window are paged normally, the rest go
        through the DRX-adaptation episode relative to that window.
        """
        # The paper's window is the half-open [t - TI, t); with the
        # transmission at frame t itself, a device paged at frame p in
        # the window waits t - p < TI so its inactivity timer never
        # expires before the data starts. We therefore accept POs in
        # [t - TI, t - 1] and page as late as slack allows.
        decision = self._policy.group(fleet, context, rng)
        rows = self._window_rows(fleet, context, decision)
        page = rows.page
        adaptation = np.full(page.size, -1, dtype=np.int64)
        cycle = np.zeros(page.size, dtype=np.int64)
        adapted = np.flatnonzero(~rows.has_po)
        if adapted.size:
            adaptation[adapted], cycle[adapted], page[adapted] = self._adapt(
                fleet,
                rows.device[adapted],
                rows.start[adapted],
                rows.last[adapted],
                context,
            )
        method = np.where(
            rows.has_po,
            METHOD_CODE[WakeMethod.PAGED_IN_WINDOW],
            METHOD_CODE[WakeMethod.DRX_ADAPTATION],
        )
        columns = PlanArrays(
            rows.device, rows.transmission, method, page, page, adaptation, cycle
        )
        return self._assemble(fleet, context, columns, rows.group_end)

    # ------------------------------------------------------------------
    # Adaptation machinery
    # ------------------------------------------------------------------
    def _adapt(
        self,
        fleet: Fleet,
        device: np.ndarray,
        window_lo: np.ndarray,
        window_hi: np.ndarray,
        context: PlanningContext,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The adaptation episode of every device without a window PO.

        Returns ``(adaptation_frame, adapted_cycle, window_po)`` per
        device: the last preferred PO before the window, the temporary
        cycle, and the adapted PO the device is paged at in the window.

        The cycle scan runs the ladder downward as whole-array passes
        over the devices still unresolved: a device takes the first
        (largest) ladder cycle shorter than its own whose
        identity-derived grid has a PO in ``[earliest_po, window_hi]``.
        Existence is guaranteed: any cycle no longer than that span puts
        a PO in it, and the span is the TI window minus the (much
        shorter) adaptation episode.
        """
        phases, periods = fleet.phases[device], fleet.periods[device]
        adaptation = v_last_at_or_before(phases, periods, window_lo - 1)
        check_rows(
            adaptation < 0,
            "device {d} has no PO before the window; t must be at least "
            "2 * maxDRX after the announce",
            d=device,
        )
        # The device is busy with the reconfiguration episode right after
        # its adaptation PO; the adapted window PO must come later.
        busy = context.adaptation_busy_table()[fleet.coverage_codes[device]]
        earliest = np.maximum(window_lo, adaptation + busy + 1)
        ue_ids = fleet.imsis[device] % UE_ID_SPACE
        cycle = np.zeros(device.size, dtype=np.int64)
        window_po = np.zeros(device.size, dtype=np.int64)
        unresolved = np.ones(device.size, dtype=bool)
        for candidate in sorted(FULL_LADDER, reverse=True):
            trial = unresolved & (candidate < periods)
            if self._strategy is AdaptationStrategy.LARGEST_WITHIN_TI:
                trial &= candidate <= window_hi - earliest + 1
            rows = np.flatnonzero(trial)
            if not rows.size:
                continue
            grid = np.full(rows.size, int(candidate), dtype=np.int64)
            po = v_first_at_or_after(
                v_paging_frame_offset(ue_ids[rows], grid, fleet.nb),
                grid,
                earliest[rows],
            )
            inside = po <= window_hi[rows]
            hit = rows[inside]
            cycle[hit] = candidate
            window_po[hit] = po[inside]
            unresolved[hit] = False
        check_rows(
            unresolved,
            "no ladder cycle creates a PO in [{lo}, {hi}] for device with "
            "cycle {t} frames",
            lo=earliest,
            hi=window_hi,
            t=periods,
        )
        return adaptation, cycle, window_po
