"""Per-device reference loops for fleet sampling and cell partition.

:func:`sample_reference` draws a mixture one device at a time with
``Generator.choice``; ``TrafficMixture.sample_columns`` must consume the
same stream draw for draw (``tests/unit/test_fleet_arrays.py``). The
partition references scan every device once per cell and rebuild each
cell's fleet from device objects; ``partition_indices`` and
``partition_fleet`` must give identical cells, and
``benchmarks/bench_multicell.py`` times the partition against them.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.devices.fleet import Fleet
from repro.devices.profiles import DeviceCategory
from repro.drx.cycles import DrxCycle
from repro.errors import ConfigurationError
from repro.multicast.coordination import MultiCellSpec, attach_devices
from repro.traffic.mixtures import TrafficMixture


def sample_reference(
    mixture: TrafficMixture, n: int, rng: np.random.Generator
) -> List[Tuple[DeviceCategory, DrxCycle]]:
    """Draw ``n`` (category, cycle) pairs, one device at a time."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    categories = list(mixture.categories)
    weights = np.array([mixture.category_share(c) for c in categories])
    cat_idx = rng.choice(len(categories), size=n, p=weights)
    out: List[Tuple[DeviceCategory, DrxCycle]] = []
    for i in cat_idx:
        category = categories[int(i)]
        dist = mixture.cycle_distribution(category)
        cycles = list(dist)
        probs = np.array([dist[c] for c in cycles])
        cycle = cycles[int(rng.choice(len(cycles), p=probs))]
        out.append((category, cycle))
    return out


def partition_indices_reference(
    attachments: np.ndarray, n_cells: int
) -> Dict[int, np.ndarray]:
    """Group device indices by attachment with one scan per cell."""
    attachments = np.asarray(attachments)
    cells: Dict[int, np.ndarray] = {}
    for cell_id in range(n_cells):
        indices = [
            i for i in range(attachments.size)
            if attachments[i] == cell_id
        ]
        if indices:
            cells[cell_id] = np.asarray(indices, dtype=np.int64)
    return cells


def partition_fleet_reference(
    fleet: Fleet, n_cells: int, rng: np.random.Generator
) -> Dict[int, Fleet]:
    """Uniformly attached cells, each fleet rebuilt from its devices."""
    spec = MultiCellSpec(n_cells=n_cells)
    attachments = attach_devices(len(fleet), spec, rng)
    cells = partition_indices_reference(attachments, n_cells)
    return {
        cell_id: Fleet.from_devices([fleet[i] for i in indices])
        for cell_id, indices in cells.items()
    }
