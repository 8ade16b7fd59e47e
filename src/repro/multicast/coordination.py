"""Multi-cell campaign coordination.

The on-demand scheme of ref. [3] is explicitly multi-cell: "the mobile
network operator then distributes both the list and the data to all the
eNBs that the devices are attached to", and each eNB pages and serves
its own attached devices. The paper's evaluation fixes a single cell;
this module provides the coordination layer above it, so city-scale
rollouts spanning many cells reuse the per-cell planners unchanged —
and so the single-cell results can be read as per-cell components of a
larger campaign.

Scaling contract:

* :func:`partition_fleet` maps device attachments to per-cell fleets
  with one stable ``np.argsort`` pass (the quadratic per-cell scan is
  retained as the ``method="reference"`` equivalence oracle), and
  accepts non-uniform cell-load ``weights``;
* :meth:`CoordinationEntity.rollout` with ``seed=`` derives one
  independent child generator per cell from a root
  :class:`~numpy.random.SeedSequence` — the same contract as the
  Monte-Carlo backends — so the cells are work items of the task graph
  in :mod:`repro.sim.dispatch`, drained in-process (``serial``) or on
  the fused pool with bit-identical results for any worker count;
* each cell executes on the columnar fast path by default, so a
  1e5-device x 32-cell campaign plans and executes in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import GroupingMechanism, PlanningContext
from repro.core.plan import MulticastPlan
from repro.devices.fleet import Fleet
from repro.errors import ConfigurationError
from repro.multicast.payload import FirmwareImage
from repro.sim.dispatch import drain, map_items, validate_backend
from repro.sim.executor import CampaignExecutor
from repro.sim.metrics import CampaignResult
from repro.timebase import frames_to_seconds

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.eventlog import EventLog


@dataclass(frozen=True)
class MultiCellSpec:
    """Declarative shape of a multi-cell deployment.

    Attributes:
        n_cells: number of eNBs the fleet is attached across. ``1``
            reproduces the paper's single-cell evaluation.
        weights: optional per-cell attachment probabilities (must sum
            to 1, one entry per cell). ``None`` attaches uniformly.
    """

    n_cells: int = 1
    weights: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.n_cells < 1:
            raise ConfigurationError(
                f"need at least one cell, got {self.n_cells}"
            )
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(self.weights))
            if len(self.weights) != self.n_cells:
                raise ConfigurationError(
                    f"{len(self.weights)} cell weights for "
                    f"{self.n_cells} cells"
                )
            from repro.traffic.validation import validate_unit_sum

            validate_unit_sum(self.weights, what="cell weights")

    @property
    def is_multi_cell(self) -> bool:
        """True when the campaign spans more than one cell."""
        return self.n_cells > 1


def attach_devices(
    n_devices: int,
    spec: MultiCellSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample each device's serving cell id.

    Uniform attachment draws with ``rng.integers`` (bit-compatible with
    the historical partitioner); weighted attachment draws each device's
    cell from the spec's load distribution.
    """
    if n_devices < 1:
        raise ConfigurationError(
            f"need at least one device, got {n_devices}"
        )
    if spec.weights is None:
        return rng.integers(0, spec.n_cells, size=n_devices)
    return rng.choice(
        spec.n_cells, size=n_devices, p=np.asarray(spec.weights)
    )


def partition_indices(
    attachments: np.ndarray, n_cells: int, *, method: str = "vectorised"
) -> Dict[int, np.ndarray]:
    """Group device indices by attachment, ascending within each cell.

    ``method="vectorised"`` is one stable argsort plus a searchsorted
    over the cell boundaries — O(n log n) total instead of the
    O(n_cells x n_devices) per-cell scan kept as ``"reference"``. Both
    return identical index arrays; empty cells are omitted.
    """
    attachments = np.asarray(attachments)
    if method == "reference":
        cells: Dict[int, np.ndarray] = {}
        for cell_id in range(n_cells):
            indices = [
                i for i in range(attachments.size)
                if attachments[i] == cell_id
            ]
            if indices:
                cells[cell_id] = np.asarray(indices, dtype=np.int64)
        return cells
    if method != "vectorised":
        raise ConfigurationError(
            f"unknown partition method {method!r}; "
            "expected 'vectorised' or 'reference'"
        )
    order = np.argsort(attachments, kind="stable")
    sorted_attachments = attachments[order]
    boundaries = np.searchsorted(
        sorted_attachments, np.arange(n_cells + 1)
    )
    return {
        cell_id: order[boundaries[cell_id] : boundaries[cell_id + 1]]
        for cell_id in range(n_cells)
        if boundaries[cell_id + 1] > boundaries[cell_id]
    }


def partition_fleet(
    fleet: Fleet,
    n_cells: int,
    rng: np.random.Generator,
    *,
    weights: Optional[Sequence[float]] = None,
    method: str = "vectorised",
) -> Dict[int, Fleet]:
    """Randomly attach each device to one of ``n_cells`` cells.

    Returns only non-empty cells (a cell with no target devices plays no
    part in the campaign). ``weights`` skews the attachment distribution
    (non-uniform cell load).

    ``method="vectorised"`` (the default) groups indices with one
    stable argsort and carves sub-fleets by slicing the parent's
    columnar arrays; ``method="reference"`` is the original
    implementation — an O(n_cells x n_devices) per-cell scan followed
    by a full per-cell :class:`~repro.devices.fleet.Fleet`
    reconstruction — retained as the equivalence oracle and benchmark
    baseline. Both produce identical cells for the same generator.
    """
    spec = MultiCellSpec(
        n_cells=n_cells,
        weights=None if weights is None else tuple(weights),
    )
    attachments = attach_devices(len(fleet), spec, rng)
    cells = partition_indices(attachments, n_cells, method=method)
    if method == "reference":
        # Full per-cell reconstruction, as the original implementation
        # did (the benchmark baseline the vectorised subset replaces).
        return {
            cell_id: Fleet([fleet[i] for i in indices])
            for cell_id, indices in cells.items()
        }
    return {
        cell_id: fleet.subset(indices)
        for cell_id, indices in cells.items()
    }


@dataclass(frozen=True)
class CellCampaign:
    """One cell's share of a multi-cell campaign.

    ``event_log`` is populated only when the rollout ran with
    ``record_events=True`` (see :mod:`repro.sim.eventlog`).
    """

    cell_id: int
    fleet_size: int
    plan: MulticastPlan
    result: CampaignResult
    event_log: Optional["EventLog"] = None


def cells_bit_identical(left: CellCampaign, right: CellCampaign) -> bool:
    """True when two per-cell campaigns are bit-identical.

    This is the serial == fused contract in one place (the CLI's
    ``--verify`` and the multicell benchmark both use it): same plan,
    same horizon, exactly equal fleet summary and realised starts, and
    exactly equal per-device timing columns.
    """
    if not (
        left.cell_id == right.cell_id
        and left.fleet_size == right.fleet_size
        and left.plan.transmissions == right.plan.transmissions
        and left.result.horizon_frames == right.result.horizon_frames
        and left.result.fleet == right.result.fleet
        and left.result.actual_start_s == right.result.actual_start_s
    ):
        return False
    columnar_l = left.result.columnar
    columnar_r = right.result.columnar
    return (
        np.array_equal(columnar_l.wait_s, columnar_r.wait_s)
        and np.array_equal(columnar_l.ready_s, columnar_r.ready_s)
        and np.array_equal(columnar_l.updated_s, columnar_r.updated_s)
    )


@dataclass(frozen=True)
class MultiCellReport:
    """Aggregate of a coordinated campaign across cells."""

    campaigns: Tuple[CellCampaign, ...]

    @property
    def n_cells(self) -> int:
        """Cells that actually served devices."""
        return len(self.campaigns)

    @property
    def total_devices(self) -> int:
        """Devices updated across all cells."""
        return sum(c.fleet_size for c in self.campaigns)

    @property
    def total_transmissions(self) -> int:
        """Total data transmissions across all cells.

        For DA-SC/DR-SI this equals the number of non-empty cells — the
        multi-cell generalisation of "a single transmission".
        """
        return sum(c.plan.n_transmissions for c in self.campaigns)

    @property
    def total_energy_mj(self) -> float:
        """Fleet-wide energy across all cells."""
        return sum(c.result.fleet.energy_mj for c in self.campaigns)

    @property
    def total_light_sleep_s(self) -> float:
        """Fleet-wide light-sleep seconds across all cells."""
        return sum(c.result.fleet.light_sleep_s for c in self.campaigns)

    @property
    def total_connected_s(self) -> float:
        """Fleet-wide connected seconds across all cells."""
        return sum(c.result.fleet.connected_s for c in self.campaigns)

    @property
    def mean_wait_s(self) -> float:
        """Device-weighted mean connected wait across all cells."""
        total = self.total_devices
        return sum(
            c.result.mean_wait_s * c.fleet_size for c in self.campaigns
        ) / total

    @property
    def largest_group(self) -> int:
        """Largest single-transmission group in any cell."""
        return max(
            t.group_size
            for c in self.campaigns
            for t in c.plan.transmissions
        )

    @property
    def campaign_duration_s(self) -> float:
        """Wall-clock until the *last* cell finishes (cells run in
        parallel on their own carriers)."""
        return frames_to_seconds(
            max(c.result.horizon_frames for c in self.campaigns)
        )


def _cell_campaign(
    rng: np.random.Generator,
    _index: int,
    item: Tuple[int, Fleet],
    *,
    mechanism: GroupingMechanism,
    executor: CampaignExecutor,
    context: PlanningContext,
    record_events: bool = False,
) -> CellCampaign:
    """Plan and execute one cell's campaign (picklable; pool-safe)."""
    cell_id, fleet = item
    plan = mechanism.plan(fleet, context, rng)
    plan.validate(fleet)
    recorder = None
    if record_events:
        from repro.sim.eventlog import EventLogRecorder

        recorder = EventLogRecorder()
    result = executor.execute(fleet, plan, rng=rng, recorder=recorder)
    return CellCampaign(
        cell_id=cell_id,
        fleet_size=len(fleet),
        plan=plan,
        result=result,
        event_log=None if recorder is None else recorder.finalize(cell=cell_id),
    )


class CoordinationEntity:
    """The network-side coordinator of ref. [3].

    Receives the global device list plus the payload, splits the list by
    attachment, and runs one single-cell campaign per eNB with the
    configured grouping mechanism.
    """

    def __init__(
        self,
        mechanism: GroupingMechanism,
        executor: Optional[CampaignExecutor] = None,
    ) -> None:
        self._mechanism = mechanism
        self._executor = executor or CampaignExecutor()

    def rollout(
        self,
        cells: Dict[int, Fleet],
        image: FirmwareImage,
        context: PlanningContext,
        rng: Optional[np.random.Generator] = None,
        *,
        seed: Optional[int] = None,
        backend: str = "serial",
        workers: Optional[int] = None,
        record_events: bool = False,
    ) -> MultiCellReport:
        """Run the coordinated campaign over every cell.

        ``record_events=True`` attaches a finalized
        :class:`~repro.sim.eventlog.EventLog` to every
        :class:`CellCampaign` (works on both backends; logs are plain
        arrays and pickle across the pool).

        Two randomness modes:

        * ``rng=`` threads one shared generator through the cells in
          ascending cell-id order (the historical serial contract);
        * ``seed=`` derives one independent child generator per cell
          (``SeedSequence(seed).spawn(n)`` in ascending cell-id order),
          which makes the per-cell campaigns order-independent work
          items (:mod:`repro.sim.dispatch`): ``serial`` drains them in
          this process, ``fused`` on the fused work-queue pool — the
          same pool scenario campaigns flatten (run x cell) tasks into
          — with per-cell results bit-identical for any ``workers``.

        ``backend="fused"`` requires ``seed=`` (a shared generator
        cannot cross a process pool without changing the draws).
        """
        if not cells:
            raise ConfigurationError("no cells to roll out to")
        if context.payload_bytes != image.size_bytes:
            raise ConfigurationError(
                "planning context payload "
                f"({context.payload_bytes}) disagrees with the image "
                f"({image.size_bytes})"
            )
        validate_backend(backend)
        if rng is not None and seed is not None:
            raise ConfigurationError(
                "pass either rng= (shared generator) or seed= "
                "(per-cell child generators), not both"
            )
        if seed is None:
            if backend != "serial":
                raise ConfigurationError(
                    f"backend={backend!r} requires seed= so every cell "
                    "gets its own child generator"
                )
            campaigns: List[CellCampaign] = []
            for cell_id in sorted(cells):
                campaigns.append(
                    _cell_campaign(
                        rng,
                        cell_id,
                        (cell_id, cells[cell_id]),
                        mechanism=self._mechanism,
                        executor=self._executor,
                        context=context,
                        record_events=record_events,
                    )
                )
            return MultiCellReport(campaigns=tuple(campaigns))

        items = [(cell_id, cells[cell_id]) for cell_id in sorted(cells)]
        fn = partial(
            _cell_campaign,
            mechanism=self._mechanism,
            executor=self._executor,
            context=context,
            record_events=record_events,
        )
        campaigns = drain(
            map_items(
                fn,
                seed,
                items,
                campaign="rollout",
                cell_ids=[cell_id for cell_id, _ in items],
            ),
            backend,
            workers=workers,
        )
        return MultiCellReport(campaigns=tuple(campaigns))
