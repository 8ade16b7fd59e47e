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
by cell with one stable ``np.argsort`` pass (the quadratic per-cell
scan is retained as the ``method="reference"`` equivalence oracle),
and :func:`partition_fleet` carves a fleet into per-cell sub-fleets,
optionally under non-uniform cell-load ``weights``.
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
            cell_id: Fleet.from_devices([fleet[i] for i in indices])
            for cell_id, indices in cells.items()
        }
    return {
        cell_id: fleet.subset(indices)
        for cell_id, indices in cells.items()
    }
