"""Multi-cell deployment shape and device attachment.

The on-demand scheme of ref. [3] is explicitly multi-cell: "the mobile
network operator then distributes both the list and the data to all the
eNBs that the devices are attached to", and each eNB pages and serves
its own attached devices. The paper's evaluation fixes a single cell;
this module describes the layer above it — how many cells, how the
fleet's load spreads across them, and which devices each cell serves —
so the single-cell results can be read as per-cell components of a
larger campaign.

A multi-cell campaign itself runs on the scenario runner
(:mod:`repro.scenarios.runner`): a ``ScenarioSpec`` with
``cells=MultiCellSpec(...)`` draws each run's attachments with
:func:`attach_devices` and fans out one task per populated cell, on
either backend.

Scaling contract: :func:`partition_indices` groups device attachments
by cell with one stable ``np.argsort`` pass, and :func:`partition_fleet`
carves a fleet into per-cell sub-fleets by slicing its columns,
optionally under non-uniform cell-load ``weights``. Both are tested
against the per-cell scan and per-cell fleet rebuild kept in
``tests/fleet_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.devices.fleet import Fleet
from repro.errors import ConfigurationError


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
    attachments: np.ndarray, n_cells: int
) -> Dict[int, np.ndarray]:
    """Group device indices by attachment, ascending within each cell.

    One stable argsort plus a searchsorted over the cell boundaries —
    O(n log n) total, not O(n_cells x n_devices). Empty cells are
    omitted.
    """
    attachments = np.asarray(attachments)
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
) -> Dict[int, Fleet]:
    """Randomly attach each device to one of ``n_cells`` cells.

    Returns only non-empty cells (a cell with no target devices plays no
    part in the campaign). ``weights`` skews the attachment distribution
    (non-uniform cell load). Indices are grouped with
    :func:`partition_indices` and each sub-fleet is a slice of the
    parent's columns (:meth:`~repro.devices.fleet.Fleet.subset`).
    """
    spec = MultiCellSpec(
        n_cells=n_cells,
        weights=None if weights is None else tuple(weights),
    )
    attachments = attach_devices(len(fleet), spec, rng)
    cells = partition_indices(attachments, n_cells)
    return {
        cell_id: fleet.subset(indices)
        for cell_id, indices in cells.items()
    }
