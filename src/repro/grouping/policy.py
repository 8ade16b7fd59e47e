"""The grouping-policy contract: who goes in which group, and when.

The paper's central contribution is *device grouping*, yet the original
implementation hardwired the grouping decision into the mechanisms
(DR-SC called :func:`~repro.setcover.greedy.greedy_window_cover`
inline; DA-SC/DR-SI always formed one fleet-wide group). This module
makes the decision a first-class axis: a :class:`GroupingPolicy` maps
``(fleet, context, rng)`` to a
:class:`~repro.setcover.decision.GroupingDecision` — per group, its
member devices and the TI-bounded window ``[start, end)`` the group's
paging and transmission happen in, held as columns — and the
mechanisms turn that decision into a validated
:class:`~repro.core.plan.MulticastPlan` using their own wake methods
(window paging for DR-SC, DRX adaptation for DA-SC, extended paging
for DR-SI).

The split mirrors the related work: collision-aware group sizing (Han &
Schotten) and coverage-based user clustering (Shahini & Ansari) are
grouping *policies*, not new mechanisms — they change who shares a
transmission, not how devices are woken for it.

Window conventions: a group's window is half-open ``[start, end)``.
Windowed mechanisms (DR-SC) transmit at ``end - 1`` (the paper's
"last frame of the selected window"); single-shot mechanisms
(DA-SC/DR-SI) transmit at ``end`` with POs accepted in
``[start, end)`` — both satisfy the plan invariant that a device paged
at frame ``p`` stays connected through a transmission at frame ``F``
iff ``F - p <= TI``.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.setcover.decision import GroupingDecision

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.base import PlanningContext
    from repro.devices.fleet import Fleet


class GroupingPolicy(abc.ABC):
    """Base class for grouping policies.

    Subclasses set :attr:`name` (the registry key) and implement
    :meth:`group`. ``guarantees_window_po`` declares whether every
    member of every group is guaranteed to have a paging occasion
    inside its group's window under its *preferred* DRX cycle — the
    precondition for mechanisms that cannot adapt cycles (DR-SC).
    """

    #: Registry key (kebab-case).
    name: str = "abstract"

    #: One-line human description for ``grouping list``.
    description: str = ""

    #: True when every group member has a preferred-cycle PO inside the
    #: group window (required by DR-SC; DA-SC adapts the rest, DR-SI
    #: notifies them with extended pages).
    guarantees_window_po: bool = True

    @abc.abstractmethod
    def group(
        self,
        fleet: "Fleet",
        context: "PlanningContext",
        rng: Optional[np.random.Generator] = None,
    ) -> GroupingDecision:
        """Partition ``fleet`` into groups with serving windows."""

    # ------------------------------------------------------------------
    # Shared helpers for subclasses
    # ------------------------------------------------------------------
    @staticmethod
    def _horizon(fleet: "Fleet", context: "PlanningContext") -> Tuple[int, int]:
        """The paper's search horizon: twice the longest DRX cycle.

        Every device has at least one PO inside it, and the fleet's PO
        pattern repeats after it (Sec. III-A), so no policy needs to
        look further.
        """
        start = context.announce_frame
        return start, start + 2 * int(fleet.max_cycle)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
