"""The built-in grouping policies.

Six policies ship, spanning the design space the related work opens:

* :class:`GreedyCoverPolicy` — the paper's greedy TI-window set cover
  (DR-SC's historical inline behaviour, bit-identical);
* :class:`ExactCoverPolicy` — the provably minimum window cover for
  small fleets (branch and bound over :mod:`repro.setcover.exact`);
* :class:`CollisionAwarePolicy` — greedy cover with per-group size caps
  derived from the :mod:`repro.rrc.nprach` contention model, so a
  group's own paging burst cannot push the RACH collision probability
  past a configured ceiling (cf. Han & Schotten's grouping-based
  collision control);
* :class:`CoverageStratifiedPolicy` — covers each coverage class
  separately so one deep-coverage member cannot drag a whole group's
  NPDSCH bearer down to its rate (cf. Shahini & Ansari's
  channel-condition clustering);
* :class:`RandomWindowPolicy` — the ablation floor: windows anchored at
  randomly chosen POs instead of best-coverage sweeps;
* :class:`SingleGroupPolicy` — the ablation ceiling: one fleet-wide
  group (the DA-SC/DR-SI paper semantics; DR-SC rejects it because not
  every device has a PO in one TI window).
"""

from __future__ import annotations

import math
from typing import List, Optional, TYPE_CHECKING

import numpy as np

from repro.devices.fleet import COVERAGE_ORDER
from repro.drx.schedule import v_has_in
from repro.errors import ConfigurationError, SetCoverError
from repro.grouping.policy import GroupingDecision, GroupingPolicy
from repro.rrc.nprach import NprachConfig
from repro.setcover.exact import exact_min_window_cover
from repro.setcover.greedy import greedy_window_cover

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.base import PlanningContext
    from repro.devices.fleet import Fleet


class GreedyCoverPolicy(GroupingPolicy):
    """Chvátal's greedy TI-window set cover (paper Sec. III-A, Fig. 4).

    The default policy. Its decision is the one
    :func:`~repro.setcover.greedy.greedy_window_cover` returns, tie-breaks
    included, so plans (and therefore every golden metric) are
    bit-identical to the pre-policy code.
    """

    name = "greedy-cover"
    description = "greedy TI-window set cover (the paper's Fig. 4; default)"
    guarantees_window_po = True

    def group(
        self,
        fleet: "Fleet",
        context: "PlanningContext",
        rng: Optional[np.random.Generator] = None,
    ) -> GroupingDecision:
        start, end = self._horizon(fleet, context)
        decision = greedy_window_cover(
            fleet.phases,
            fleet.periods,
            window_len=context.inactivity_timer_frames,
            horizon_start=start,
            horizon_end=end,
            rng=rng,
        )
        decision.validate_partition(len(fleet))
        return decision


class ExactCoverPolicy(GroupingPolicy):
    """The provably minimum TI-window cover (small fleets only).

    Wraps :func:`~repro.setcover.exact.exact_min_window_cover` — branch
    and bound seeded with the greedy bound, exponential in the worst
    case — so it refuses fleets larger than ``max_devices``. Each
    device is served in the earliest chosen window containing one of
    its POs.
    """

    name = "exact-cover"
    description = "optimal window cover via branch & bound (small fleets)"
    guarantees_window_po = True

    #: Default refusal threshold. The bound is a guardrail, not a
    #: runtime guarantee: the search also grows with the number of
    #: candidate windows (i.e. the PO density over the 2*maxDRX
    #: horizon), and ~20 moderate-eDRX devices already cost seconds.
    DEFAULT_MAX_DEVICES = 24

    def __init__(self, max_devices: int = DEFAULT_MAX_DEVICES) -> None:
        if max_devices < 1:
            raise ConfigurationError(
                f"max_devices must be >= 1, got {max_devices}"
            )
        self._max_devices = max_devices

    def group(
        self,
        fleet: "Fleet",
        context: "PlanningContext",
        rng: Optional[np.random.Generator] = None,
    ) -> GroupingDecision:
        if len(fleet) > self._max_devices:
            raise SetCoverError(
                f"exact-cover is exponential; fleet of {len(fleet)} exceeds "
                f"the {self._max_devices}-device bound (use greedy-cover)"
            )
        start, end = self._horizon(fleet, context)
        decision = exact_min_window_cover(
            fleet.phases, fleet.periods, context.inactivity_timer_frames, start, end
        )
        decision.validate_partition(len(fleet))
        return decision


class CollisionAwarePolicy(GroupingPolicy):
    """Greedy cover with NPRACH-derived per-group size caps.

    Every member of a group is paged inside the same TI window and
    races for the same NPRACH preambles, so the group size *is* the
    contention load. With ``K`` contention preambles per opportunity
    and ``m`` simultaneous contenders, a given device collides with
    probability ``1 - (1 - 1/K)^(m - 1)``; this policy splits every
    greedy group into chunks small enough that the probability never
    exceeds ``max_collision_probability``. Split chunks share their
    source window and nominal transmission frame, so no member's paging
    changes — only how many share one bearer. The chunks are modelled
    as concurrent bearer replicas at that frame (any serialisation the
    eNB applies between them is *not* modelled — the plan invariant
    that every page stays within TI of its transmission pins the chunks
    to the window); the airtime cost of splitting is therefore read
    from the transmission count, not from queuing delay.
    """

    name = "collision-aware"
    description = "greedy cover split so RACH collision stays under a cap"
    guarantees_window_po = True

    def __init__(
        self,
        nprach: NprachConfig = NprachConfig(),
        max_collision_probability: float = 0.1,
    ) -> None:
        if not 0.0 < max_collision_probability < 1.0:
            raise ConfigurationError(
                "max_collision_probability must be in (0, 1), got "
                f"{max_collision_probability}"
            )
        self._nprach = nprach
        self._cap = max_collision_probability

    @property
    def nprach(self) -> NprachConfig:
        """The contention model the cap is computed against."""
        return self._nprach

    @property
    def max_collision_probability(self) -> float:
        """The configured per-device collision-probability ceiling."""
        return self._cap

    def collision_probability(self, group_size: int) -> float:
        """P(a given device collides) with ``group_size`` contenders."""
        if group_size < 1:
            raise ConfigurationError(
                f"group size must be >= 1, got {group_size}"
            )
        k = self._nprach.n_preambles
        if k == 1:
            return 0.0 if group_size == 1 else 1.0
        return 1.0 - (1.0 - 1.0 / k) ** (group_size - 1)

    @property
    def max_group_size(self) -> int:
        """The largest group whose self-inflicted collision load fits."""
        k = self._nprach.n_preambles
        if k == 1:
            return 1
        size = 1 + int(
            math.floor(math.log1p(-self._cap) / math.log1p(-1.0 / k))
        )
        # Guard the float boundary: back off until the cap truly holds.
        while size > 1 and self.collision_probability(size) > self._cap:
            size -= 1
        return max(1, size)

    def group(
        self,
        fleet: "Fleet",
        context: "PlanningContext",
        rng: Optional[np.random.Generator] = None,
    ) -> GroupingDecision:
        base = GreedyCoverPolicy().group(fleet, context, rng)
        cap = self.max_group_size
        # Group g splits into chunks at bounds[g] + k * cap.
        chunks = -(-np.diff(base.bounds) // cap)
        source = np.repeat(np.arange(base.n_groups), chunks)
        k = np.arange(source.size) - np.repeat(np.cumsum(chunks) - chunks, chunks)
        decision = GroupingDecision(
            base.start[source],
            base.end[source],
            base.members,
            np.append(base.bounds[source] + k * cap, base.members.size),
        )
        decision.validate_partition(len(fleet))
        return decision


class CoverageStratifiedPolicy(GroupingPolicy):
    """Greedy cover per coverage class.

    The multicast bearer serves the worst member of a group (paper
    Sec. II-A), so one extreme-coverage device in a group of normal-
    coverage devices multiplies everyone's airtime. Stratifying the
    cover by coverage class keeps every group's bearer at its class
    rate, trading more transmissions for less wasted airtime. Strata
    are covered in :data:`~repro.devices.fleet.COVERAGE_ORDER` order
    with the shared ``rng`` threaded through sequentially, so the
    decision is deterministic per seed.
    """

    name = "coverage-stratified"
    description = "greedy cover per coverage class (homogeneous bearers)"
    guarantees_window_po = True

    def group(
        self,
        fleet: "Fleet",
        context: "PlanningContext",
        rng: Optional[np.random.Generator] = None,
    ) -> GroupingDecision:
        ti = context.inactivity_timer_frames
        start, end = self._horizon(fleet, context)
        phases, periods = fleet.phases, fleet.periods
        codes = fleet.coverage_codes
        parts = []
        for code in range(len(COVERAGE_ORDER)):
            stratum = np.nonzero(codes == code)[0]
            if stratum.size == 0:
                continue
            cover = greedy_window_cover(
                phases[stratum],
                periods[stratum],
                window_len=ti,
                horizon_start=start,
                horizon_end=end,
                rng=rng,
            )
            sizes = np.diff(cover.bounds)
            parts.append((cover.start, cover.end, stratum[cover.members], sizes))
        starts, ends, members, sizes = map(np.concatenate, zip(*parts))
        decision = GroupingDecision(
            starts, ends, members, np.append(0, np.cumsum(sizes))
        )
        decision.validate_partition(len(fleet))
        return decision


class RandomWindowPolicy(GroupingPolicy):
    """The ablation floor: windows anchored at randomly chosen POs.

    Repeatedly picks a random not-yet-covered device and a random one
    of its POs inside the search horizon, ends a window at that PO, and
    sweeps every still-uncovered device with a PO inside the window
    into the group. Coverage is guaranteed (the anchoring device always
    qualifies); quality is whatever luck provides — the distance to
    :class:`GreedyCoverPolicy` measures what the max-coverage sweep
    actually buys.
    """

    name = "random"
    description = "random PO-anchored windows (ablation floor)"
    guarantees_window_po = True

    def group(
        self,
        fleet: "Fleet",
        context: "PlanningContext",
        rng: Optional[np.random.Generator] = None,
    ) -> GroupingDecision:
        if rng is None:
            raise ConfigurationError(
                "the random grouping policy needs an RNG"
            )
        ti = context.inactivity_timer_frames
        start, end = self._horizon(fleet, context)
        phases, periods = fleet.phases, fleet.periods
        remaining = np.ones(len(fleet), dtype=bool)
        order = rng.permutation(len(fleet))
        starts: List[int] = []
        ends: List[int] = []
        groups: List[np.ndarray] = []
        for anchor in order:
            if not remaining[anchor]:
                continue
            phase = int(phases[anchor])
            period = int(periods[anchor])
            k_lo = max(0, -((phase - start) // period))
            k_hi = (end - 1 - phase) // period
            k = int(rng.integers(k_lo, k_hi + 1))
            po = phase + k * period
            starts.append(max(start, po - ti + 1))
            ends.append(po + 1)
            covered = v_has_in(phases, periods, starts[-1], ends[-1])
            groups.append(np.nonzero(covered & remaining)[0])
            remaining[groups[-1]] = False
        decision = GroupingDecision.from_groups(starts, ends, groups)
        decision.validate_partition(len(fleet))
        return decision


class SingleGroupPolicy(GroupingPolicy):
    """The ablation ceiling: one fleet-wide group.

    The window is the paper's DA-SC/DR-SI choice — ``[t - TI, t)`` with
    ``t`` at least twice the longest device cycle after the announce,
    "so that there will be at least one PO of every device before t".
    Not every device has a PO *inside* the window, so this policy does
    not guarantee window POs: DA-SC adapts the cycles of the devices
    that miss it and DR-SI notifies them with extended pages, while
    DR-SC rejects the policy outright.
    """

    name = "single-group"
    description = "one fleet-wide group at t = announce + 2*maxDRX"
    guarantees_window_po = False

    def group(
        self,
        fleet: "Fleet",
        context: "PlanningContext",
        rng: Optional[np.random.Generator] = None,
    ) -> GroupingDecision:
        ti = context.inactivity_timer_frames
        t = context.announce_frame + 2 * int(fleet.max_cycle)
        decision = GroupingDecision(
            [max(context.announce_frame, t - ti)],
            [t],
            np.arange(len(fleet), dtype=np.int64),
            [0, len(fleet)],
        )
        decision.validate_partition(len(fleet))
        return decision
