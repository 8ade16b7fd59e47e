"""Scenario x axis grid sweeps.

A sweep takes registered scenarios and a list of axes (named spec
fields with value lists), expands the full cartesian grid of spec
variants with :meth:`~repro.scenarios.spec.ScenarioSpec.with_overrides`,
and runs the whole grid as one task graph (:mod:`repro.sim.dispatch`) —
drained in this process or, with ``backend="fused"``, on one process
pool with no barrier between grid cells. This is the "as many scenarios
as you can imagine" layer: the paper varies one axis at a time; a sweep
composes them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.reporting import Table
from repro.multicast.coordination import MultiCellSpec
from repro.scenarios.runner import scenario_campaign
from repro.scenarios.spec import ScenarioSpec
from repro.sim.cache import ResultCache
from repro.sim.montecarlo import RunStatistics, run_campaigns
from repro.timebase import format_bytes

#: CLI axis aliases -> ScenarioSpec field names. Stress axes plus the
#: grouping-policy axis are sweepable; identity fields (name, mechanism,
#: mixture) make a *different scenario*, not a point on an axis —
#: grouping is an axis because every policy answers the same question
#: ("who shares a transmission?") for the same scenario.
AXIS_FIELDS: Dict[str, str] = {
    "devices": "n_devices",
    "payload": "payload_bytes",
    "ti": "inactivity_timer_s",
    "collision": "ra_collision_probability",
    "loss": "segment_loss_probability",
    "cells": "cells",
    "grouping": "grouping",
    "runs": "n_runs",
    "seed": "seed",
    "record": "record_events",
}

#: Axes whose values are registry names, not numbers.
_STRING_AXES = frozenset({"grouping"})

#: Axes whose values are booleans (CLI accepts 0/1/true/false).
_BOOL_AXES = frozenset({"record"})

#: Axes whose numeric CLI value must be wrapped into a richer spec
#: field. A ``cells`` sweep varies the uniform cell count (sweeping the
#: full weighted shape would be a different scenario, not an axis).
_AXIS_WRAPPERS = {
    "cells": lambda value: MultiCellSpec(n_cells=int(value)),
}

#: The default ≥3-axis stress grid (kept tiny: the grid multiplies).
DEFAULT_AXES: Tuple[Tuple[str, Tuple[float, ...]], ...] = (
    ("devices", (100, 400)),
    ("collision", (0.0, 0.2)),
    ("loss", (0.0, 0.05)),
)


@dataclass(frozen=True)
class SweepAxis:
    """One sweep dimension: a spec field and the values it takes."""

    name: str
    values: Tuple[Any, ...]

    def __post_init__(self) -> None:
        if self.name not in AXIS_FIELDS:
            raise ConfigurationError(
                f"unknown sweep axis {self.name!r}; "
                f"available: {sorted(AXIS_FIELDS)}"
            )
        if not self.values:
            raise ConfigurationError(f"axis {self.name!r} needs values")

    @property
    def field(self) -> str:
        """The :class:`ScenarioSpec` field this axis overrides."""
        return AXIS_FIELDS[self.name]


@dataclass(frozen=True)
class SweepCell:
    """One grid point: the derived spec plus its axis coordinates."""

    base_name: str
    coordinates: Tuple[Tuple[str, Any], ...]
    spec: ScenarioSpec

    @property
    def label(self) -> str:
        """Human-readable cell id (``name[axis=value,...]``)."""
        coords = ",".join(
            f"{axis}={_format_axis_value(value)}"
            for axis, value in self.coordinates
        )
        return f"{self.base_name}[{coords}]"


def _format_axis_value(value: Any) -> str:
    """Compact rendering of one axis value (numeric or registry name)."""
    if isinstance(value, (int, float)):
        return f"{value:g}"
    return str(value)


def parse_axis(spec: str) -> SweepAxis:
    """Parse a CLI ``--axis name=v1,v2,...`` argument."""
    name, sep, values_part = spec.partition("=")
    if not sep or not values_part:
        raise ConfigurationError(
            f"axis must look like name=v1,v2,... got {spec!r}"
        )
    name = name.strip()
    field = AXIS_FIELDS.get(name)
    values: List[Any] = []
    for part in values_part.split(","):
        part = part.strip()
        if not part:
            continue
        if name in _STRING_AXES:
            values.append(part)
            continue
        if name in _BOOL_AXES:
            lowered = part.lower()
            if lowered not in ("0", "1", "true", "false"):
                raise ConfigurationError(
                    f"axis {name!r} takes 0/1/true/false, got {part!r}"
                )
            values.append(lowered in ("1", "true"))
            continue
        number = float(part)
        if field in ("n_devices", "payload_bytes", "cells", "n_runs", "seed"):
            number = int(number)
        values.append(number)
    return SweepAxis(name=name, values=tuple(values))


def expand_grid(
    scenarios: Sequence[ScenarioSpec], axes: Sequence[SweepAxis]
) -> List[SweepCell]:
    """The full scenario x axis cartesian grid, as derived specs."""
    if not scenarios:
        raise ConfigurationError("a sweep needs at least one scenario")
    if not axes:
        raise ConfigurationError("a sweep needs at least one axis")
    seen = set()
    for axis in axes:
        if axis.name in seen:
            raise ConfigurationError(f"duplicate sweep axis {axis.name!r}")
        seen.add(axis.name)
    cells: List[SweepCell] = []
    for spec in scenarios:
        for combo in itertools.product(*(axis.values for axis in axes)):
            overrides = {
                axis.field: _AXIS_WRAPPERS.get(axis.name, lambda v: v)(value)
                for axis, value in zip(axes, combo)
            }
            coordinates = tuple(
                (axis.name, value) for axis, value in zip(axes, combo)
            )
            cells.append(
                SweepCell(
                    base_name=spec.name,
                    coordinates=coordinates,
                    spec=spec.with_overrides(**overrides),
                )
            )
    return cells


def run_sweep(
    scenarios: Sequence[ScenarioSpec],
    axes: Sequence[SweepAxis],
    *,
    backend: str = "serial",
    workers: Optional[int] = None,
    n_runs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    record_dir: Optional[str] = None,
) -> "List[Tuple[SweepCell, Dict[str, RunStatistics]]]":
    """Execute every grid cell and return (cell, aggregated stats) pairs.

    The whole grid — every (scenario, run, cell) task of every grid
    cell not answered from the cache — drains as one task graph, in
    this process (``serial``) or on one fused pool, so there is no
    barrier between grid cells. Cached cells are answered with the
    exact key :func:`~repro.scenarios.runner.run_scenario` uses.
    Per-grid-cell results are bit-identical to running each cell alone
    on either backend.

    Grid cells whose spec has ``record_events`` set (e.g. via a
    ``record=1`` axis) write their per-run event logs into
    ``record_dir`` and bypass the cache, as a recording
    :func:`~repro.scenarios.runner.run_scenario` does; without a
    ``record_dir`` the flag is inert.
    """
    grid = expand_grid(scenarios, axes)
    results = run_campaigns(
        [
            scenario_campaign(
                cell.spec,
                n_runs=n_runs,
                record_dir=record_dir if cell.spec.record_events else None,
            )
            for cell in grid
        ],
        backend,
        workers=workers,
        cache=cache,
    )
    return list(zip(grid, results))


def sweep_table(
    results: "Sequence[Tuple[SweepCell, Dict[str, RunStatistics]]]",
    axes: Sequence[SweepAxis],
) -> Table:
    """Tabulate a sweep: one row per grid cell."""
    axis_names = tuple(axis.name for axis in axes)
    rows = []
    for cell, stats in results:
        coords = dict(cell.coordinates)
        axis_cells = tuple(
            format_bytes(int(coords[name]))
            if name == "payload"
            else _format_axis_value(coords[name])
            for name in axis_names
        )
        rows.append(
            (cell.base_name,)
            + axis_cells
            + (
                f"{stats['transmissions'].mean:.1f}",
                f"{stats['mean_wait_s'].mean:.2f}s",
                f"{stats['energy_mj'].mean / 1000:.1f}J",
                f"{stats['segments_sent'].mean:.0f}",
            )
        )
    return Table(
        title=f"Scenario sweep over {' x '.join(axis_names)}",
        headers=("scenario",)
        + axis_names
        + ("transmissions", "mean wait", "fleet energy", "segments sent"),
        rows=tuple(rows),
        notes=(
            "every cell runs through one Monte-Carlo task graph; "
            "grid size = scenarios x "
            + " x ".join(str(len(axis.values)) for axis in axes)
            + ".",
        ),
    )
