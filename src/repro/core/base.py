"""Mechanism interface and shared planning helpers.

All mechanisms implement ``plan(fleet, context, rng) -> MulticastPlan``.
The :class:`PlanningContext` bundles everything a mechanism may consult:
the cell configuration (inactivity timer, paging parameters), the
control-procedure timing model and the payload.

Mechanisms are parameterised by a
:class:`~repro.grouping.policy.GroupingPolicy`: the policy decides *who
shares a transmission* (groups plus serving windows), the mechanism
decides *how each member is woken* for it. Every mechanism defaults to
the policy that reproduces its paper semantics (greedy window cover for
DR-SC, one fleet-wide group for DA-SC/DR-SI), so constructing a
mechanism without a policy is bit-identical to the pre-policy code.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import NamedTuple, Optional, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.grouping.policy import GroupingPolicy
    from repro.setcover.decision import GroupingDecision

from repro.devices.fleet import COVERAGE_ORDER, Fleet
from repro.drx.schedule import v_last_at_or_before
from repro.enb.cell import CellConfig
from repro.errors import ConfigurationError
from repro.core.plan import MulticastPlan, PlanArrays, TransmissionTable
from repro.phy.airtime import payload_airtime_frames
from repro.rrc.procedures import ProcedureTimings
from repro.timebase import ms_to_frames


@dataclass(frozen=True)
class PlanningContext:
    """Everything a mechanism needs besides the fleet itself.

    Attributes:
        payload_bytes: size of the multicast content (firmware image).
        cell: cell configuration (TI, nB, paging capacity).
        timings: control-plane procedure durations.
        announce_frame: frame at which the content became available at
            the eNB; all paging and transmissions happen at or after it.
    """

    payload_bytes: int
    cell: CellConfig = CellConfig()
    timings: ProcedureTimings = ProcedureTimings()
    announce_frame: int = 0

    def __post_init__(self) -> None:
        if self.payload_bytes <= 0:
            raise ConfigurationError(
                f"payload must be positive, got {self.payload_bytes}"
            )
        if self.announce_frame < 0:
            raise ConfigurationError(
                f"announce frame must be >= 0, got {self.announce_frame}"
            )

    @property
    def inactivity_timer_frames(self) -> int:
        """The TI in frames (window length for all mechanisms)."""
        return self.cell.inactivity_timer_frames

    def connect_slack_table(self) -> np.ndarray:
        """Frames a device needs from page to connected-and-ready, per
        coverage code (:data:`~repro.devices.fleet.COVERAGE_ORDER`).

        Used by planners to page devices early enough inside the window
        that they are connected before the nominal transmission start:
        paging reception + random access (collision-free base duration)
        + RRC setup.
        """
        return self._after_page_frames(self.timings.airtime.rrc_setup_s)

    def adaptation_busy_table(self) -> np.ndarray:
        """Frames the DA-SC adaptation episode keeps a device busy, per
        coverage code: the adapted window PO must land after this span,
        or the device would still be mid-reconfiguration when it is due
        to be paged for the multicast."""
        airtime = self.timings.airtime
        return self._after_page_frames(
            airtime.rrc_setup_s, airtime.rrc_reconfiguration_s, airtime.rrc_release_s
        )

    def _after_page_frames(self, *after_access_s: float) -> np.ndarray:
        """Paging reception + random access + ``after_access_s``, in frames."""
        frames = []
        for coverage in COVERAGE_ORDER:
            seconds = self.timings.airtime.paging_message_s
            seconds += self.timings.random_access.base_duration_s(coverage)
            for step_s in after_access_s:
                seconds += step_s
            frames.append(ms_to_frames(seconds * 1000.0))
        return np.array(frames, dtype=np.int64)


class WindowRows(NamedTuple):
    """Groups as plan rows: one per member, groups in time order,
    members in member order."""

    group_start: np.ndarray  # per group (transmission), its window start
    group_end: np.ndarray  # per group (transmission), its window end
    device: np.ndarray
    transmission: np.ndarray  # each row's group (transmission) index
    start: np.ndarray  # each row's window start
    last: np.ndarray  # each row's last window frame
    page: np.ndarray  # latest window PO (meaningless where not has_po)
    has_po: np.ndarray  # the member has a PO in [start, last]


class GroupingMechanism(abc.ABC):
    """Base class for the paper's grouping mechanisms and baselines."""

    #: Short machine-readable identifier (used by the registry and reports).
    name: str = "abstract"

    #: True unless the mechanism needs protocol changes (paper Sec. III).
    standards_compliant: bool = True

    #: True unless the mechanism temporarily modifies device DRX cycles.
    respects_preferred_drx: bool = True

    def __init__(self, policy: Optional["GroupingPolicy"] = None) -> None:
        self._policy = policy if policy is not None else self._default_policy()

    @property
    def policy(self) -> Optional["GroupingPolicy"]:
        """The grouping policy in force (None for policy-free baselines)."""
        return self._policy

    def _default_policy(self) -> Optional["GroupingPolicy"]:
        """The policy reproducing this mechanism's paper semantics.

        Subclasses override; the unicast baseline keeps ``None`` (each
        device is its own group by definition, no policy consulted).
        """
        return None

    @property
    def grouping_name(self) -> Optional[str]:
        """Registry name of the policy in force (recorded on plans)."""
        return self._policy.name if self._policy is not None else None

    @abc.abstractmethod
    def plan(
        self,
        fleet: Fleet,
        context: PlanningContext,
        rng: Optional[np.random.Generator] = None,
    ) -> MulticastPlan:
        """Produce a validated multicast plan for ``fleet``."""

    # ------------------------------------------------------------------
    # Shared helpers for subclasses
    # ------------------------------------------------------------------
    @staticmethod
    def _window_rows(
        fleet: Fleet, context: PlanningContext, decision: "GroupingDecision"
    ) -> WindowRows:
        """Lay ``decision`` out as plan rows and page every member at its
        latest window PO — the latest PO leaving its connect slack before
        the window's last frame (minimising the connected wait), else the
        latest PO at or before that frame.

        Policies return groups in selection order; transmission indices
        must follow the timeline, so the groups are renumbered by window
        end. The stable sort preserves selection order among groups
        sharing a window (collision-aware splits).
        """
        decision = decision.take(np.argsort(decision.end, kind="stable"))
        sizes = np.diff(decision.bounds)
        transmission = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
        device, start = decision.members, decision.start[transmission]
        last = decision.end[transmission] - 1
        phases, periods = fleet.phases[device], fleet.periods[device]
        slack = context.connect_slack_table()[fleet.coverage_codes[device]]
        latest = v_last_at_or_before(phases, periods, last)
        with_slack = v_last_at_or_before(phases, periods, last - slack)
        page = np.where(with_slack >= start, with_slack, latest)
        return WindowRows(
            decision.start, decision.end, device, transmission, start, last, page,
            latest >= start,
        )

    def _assemble(
        self,
        fleet: Fleet,
        context: PlanningContext,
        columns: PlanArrays,
        frames: np.ndarray,
    ) -> MulticastPlan:
        """This mechanism's plan: transmission ``i`` goes out at
        ``frames[i]`` to the rows of ``columns`` directed to it, its
        bearer sized for its slowest member (paper Sec. II-A)."""
        rows, bounds = columns.rows_by_transmission
        rates = np.minimum.reduceat(
            fleet.downlink_bps(columns.device[rows]), bounds[:-1]
        )
        unique, inverse = np.unique(rates, return_inverse=True)
        airtime = [
            payload_airtime_frames(context.payload_bytes, rate)
            for rate in unique.tolist()
        ]
        return MulticastPlan(
            mechanism=self.name,
            standards_compliant=self.standards_compliant,
            respects_preferred_drx=self.respects_preferred_drx,
            announce_frame=context.announce_frame,
            inactivity_timer_frames=context.inactivity_timer_frames,
            payload_bytes=context.payload_bytes,
            transmissions=TransmissionTable(
                frames, rates, np.array(airtime, dtype=np.int64)[inverse], columns
            ),
            directives=columns,
            grouping=self.grouping_name,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
