"""The benchmark's workloads and the correctness check of their outputs.

Each workload is a registered scenario at a stated fleet size and
backend. The benchmark builds the spec from the workload and the seed it
is given; the program only ever receives that spec.

A run passes the correctness check when its simulated statistics

* equal the pinned values in ``pins.json``, where the seed and fleet
  size have pins (the default seed, 2018, at full and smoke size; the
  fused workload is pinned to the serial backend's values);
* equal those of the same run in the invocation's first campaign (every
  campaign repeats the same seed, so every repeat must be bit-identical);
* satisfy the workload's invariants (lossless delivery completes in one
  round, a single group holds the whole fleet, ...).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: The simulated statistics the check compares, per run.
CHECKED_STATS = (
    "transmissions",
    "largest_group",
    "mean_wait_s",
    "segments_sent",
    "repair_rounds",
    "delivered_fraction",
)

PINS_PATH = Path(__file__).with_name("pins.json")

#: Fleet size of the set-up warm-up campaign and of the self-test.
SMALL_DEVICES = 1000

#: Span names every traced run of every workload must see.
_COMMON_SPANS = (
    "traffic.generate_fleet",
    "grouping.group",
    "core.plan",
    "sim.execute",
    "reliability.simulate_repair_rounds",
    "runner.run_scenario",
)


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    n_devices: int
    backend: str
    workers: Optional[int]
    #: Monte-Carlo runs per timed campaign.
    n_runs: int
    why: str
    #: Span names beyond the common ones the traced run must see.
    expected_spans: Tuple[str, ...]

    def spec(self, seed: int, n_devices: Optional[int] = None) -> Any:
        from repro.scenarios import scenario

        return scenario(self.scenario).with_overrides(
            n_devices=self.n_devices if n_devices is None else n_devices,
            n_runs=self.n_runs,
            seed=seed,
        )

    @property
    def all_expected_spans(self) -> Tuple[str, ...]:
        return _COMMON_SPANS + self.expected_spans


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="cover-heavy",
            scenario="paper-baseline",
            n_devices=50_000,
            backend="serial",
            workers=None,
            n_runs=1,
            why=(
                "paper-baseline (DR-SC, lossless, 1 MB) at 5e4 devices, "
                "serial: the greedy window cover and DR-SC directives take "
                "most host time and the cover sets peak memory"
            ),
            expected_spans=("setcover.greedy_window_cover",),
        ),
        Workload(
            name="repair-heavy",
            scenario="lossy-link-repair",
            n_devices=20_000,
            backend="serial",
            workers=None,
            n_runs=1,
            why=(
                "lossy-link-repair (DR-SI single group, 15% loss) at 2e4 "
                "devices, serial: repair rounds dominate and the cover is a "
                "no-op, so cover changes must not move it"
            ),
            expected_spans=(),
        ),
        Workload(
            name="city-fused",
            scenario="city-rollout",
            n_devices=50_000,
            backend="fused",
            workers=2,
            n_runs=1,
            why=(
                "city-rollout (16 cells, DR-SC) at 5e4 devices on the fused "
                "pool with 2 workers: partition, shared memory, dispatch and "
                "plan validation over small cells"
            ),
            expected_spans=(
                "setcover.greedy_window_cover",
                "core.validate",
                "coordination.attach_devices",
            ),
        ),
    )
}


def run_values(stats: Dict[str, Any]) -> List[Dict[str, float]]:
    """Per-run checked statistics from ``run_scenario``'s result."""
    columns = {name: stats[name].values for name in CHECKED_STATS}
    n_runs = len(columns[CHECKED_STATS[0]])
    return [
        {name: float(columns[name][i]) for name in CHECKED_STATS}
        for i in range(n_runs)
    ]


def load_pins(workload: Workload, seed: int, n_devices: int) -> Optional[list]:
    """The pinned per-run statistics, if this seed and size have pins."""
    if not PINS_PATH.exists():
        return None
    pins = json.loads(PINS_PATH.read_text()).get(workload.name, {})
    return pins.get(str(seed), {}).get(str(n_devices))


def invariant_violations(spec: Any, run: Dict[str, float]) -> List[str]:
    """What is wrong with one run's statistics, whatever the seed."""
    n = spec.n_devices
    segments = spec.image().segment_count(spec.segment_bytes)
    problems = []
    if not all(math.isfinite(value) for value in run.values()):
        problems.append("non-finite statistic")
    if not 1 <= run["transmissions"] <= n:
        problems.append(
            f"transmissions {run['transmissions']} outside [1, {n}]"
        )
    if not 1 <= run["largest_group"] <= n:
        problems.append(
            f"largest_group {run['largest_group']} outside [1, {n}]"
        )
    if run["mean_wait_s"] < 0:
        problems.append(f"negative mean_wait_s {run['mean_wait_s']}")
    if not 1 <= run["repair_rounds"] <= spec.max_repair_rounds:
        problems.append(f"repair_rounds {run['repair_rounds']} out of range")
    if not 0 <= run["delivered_fraction"] <= 1:
        problems.append(f"delivered_fraction {run['delivered_fraction']}")
    if spec.segment_loss_probability == 0:
        cells = spec.cells.n_cells
        if run["repair_rounds"] != 1 or run["delivered_fraction"] != 1:
            problems.append("lossless delivery did not complete in one round")
        if run["segments_sent"] > cells * segments or (
            run["segments_sent"] % segments
        ):
            problems.append(
                f"lossless segments_sent {run['segments_sent']} is not a "
                f"whole image per cell ({segments} segments)"
            )
    elif run["segments_sent"] < segments:
        problems.append(f"segments_sent {run['segments_sent']} < {segments}")
    if spec.mechanism == "dr-si" and spec.cells.n_cells == 1:
        if run["transmissions"] != 1 or run["largest_group"] != n:
            problems.append("single-group DR-SI must send one transmission")
    return problems


def check_campaign(
    spec: Any,
    runs: Sequence[Dict[str, float]],
    reference: Optional[Sequence[Dict[str, float]]],
    pins: Optional[Sequence[Dict[str, float]]],
) -> List[str]:
    """One message per failed run of a campaign (empty when all pass)."""
    failures = []
    for index, run in enumerate(runs):
        problems = invariant_violations(spec, run)
        if reference is not None and run != reference[index]:
            problems.append("differs from the first campaign's run")
        if pins is not None and run != pins[index]:
            problems.append(f"differs from the pins {pins[index]}")
        if problems:
            failures.append(f"run {index}: " + "; ".join(problems))
    return failures
