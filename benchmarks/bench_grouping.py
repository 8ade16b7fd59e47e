"""A11 benchmark: grouping policies at fleet scale on the columnar path.

Plans and executes the same fleet under every registered grouping
policy (default: 1e5 devices; tune with
``REPRO_BENCH_GROUPING_DEVICES`` — CI runs 1e4):

* the window-PO policies (greedy-cover, collision-aware,
  coverage-stratified, random) drive DR-SC;
* single-group drives DA-SC (its natural mechanism — DR-SC rejects it);
* exact-cover is exponential, so it runs at its documented small-fleet
  bound on a subsampled fleet and is reported separately (its row never
  claims fleet scale).

Assertions:

* every fleet-scale plan covers the whole fleet with one directive per
  device and executes on the columnar path;
* ``collision-aware`` never exceeds the NPRACH collision-probability
  cap it was configured with — its largest group stays within
  ``max_group_size`` and the modelled per-device collision probability
  of its largest group stays <= the cap.

Results are persisted as ``BENCH_grouping.json`` (see
``conftest.write_bench_artifact``).
"""

from __future__ import annotations

import os
import time

import numpy as np
from conftest import emit, write_bench_artifact

from repro.core.base import PlanningContext
from repro.core.registry import mechanism_by_name
from repro.devices.profiles import DeviceCategory
from repro.drx.cycles import DrxCycle
from repro.experiments.reporting import Table, render_table
from repro.grouping import CollisionAwarePolicy, grouping_policy_by_name
from repro.sim.executor import CampaignExecutor
from repro.traffic.generator import CoverageMix, generate_fleet
from repro.traffic.mixtures import CategoryProfile, TrafficMixture

#: Responsive fleet (minute-scale eDRX) so planning horizons stay
#: bounded while the cover instances remain real workloads; mixed
#: coverage so stratification actually stratifies.
GROUPING_MIXTURE = TrafficMixture(
    "grouping-bench",
    {
        DeviceCategory.GENERIC: CategoryProfile(
            weight=1.0,
            cycle_distribution={
                DrxCycle.from_seconds(81.92): 0.5,
                DrxCycle.from_seconds(163.84): 0.5,
            },
        ),
    },
)

#: (policy, mechanism) pairs exercised at fleet scale.
FLEET_SCALE_COMBOS = (
    ("greedy-cover", "dr-sc"),
    ("collision-aware", "dr-sc"),
    ("coverage-stratified", "dr-sc"),
    ("random", "dr-sc"),
    ("single-group", "da-sc"),
)

def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    return int(value) if value else default


def _assert_full_coverage(plan, n_devices: int) -> None:
    directed = np.sort(plan.columns.device)
    assert directed.size == n_devices
    assert directed[0] == 0 and directed[-1] == n_devices - 1
    assert np.all(np.diff(directed) == 1), "duplicate or missing directives"


def _run_combo(policy_name, mechanism_name, fleet, context, seed):
    policy = grouping_policy_by_name(policy_name)
    mechanism = mechanism_by_name(mechanism_name, policy=policy)
    executor = CampaignExecutor()  # columnar fast path

    t0 = time.perf_counter()
    plan = mechanism.plan(fleet, context, np.random.default_rng(seed))
    plan_s = time.perf_counter() - t0
    _assert_full_coverage(plan, len(fleet))
    plan.validate(fleet)

    t0 = time.perf_counter()
    result = executor.execute(fleet, plan)
    execute_s = time.perf_counter() - t0

    largest = int(np.bincount(plan.columns.transmission).max())
    return policy, plan, {
        "policy": policy_name,
        "mechanism": mechanism_name,
        "n_devices": len(fleet),
        "transmissions": plan.n_transmissions,
        "largest_group": largest,
        "plan_s": plan_s,
        "execute_s": execute_s,
        "mean_wait_s": result.mean_wait_s,
        "fleet_energy_j": result.fleet.energy_mj / 1000.0,
    }


def test_a11_grouping_policies_at_fleet_scale(capsys):
    n_devices = _env_int("REPRO_BENCH_GROUPING_DEVICES", 100_000)
    assert n_devices >= 10_000, (
        "the grouping bench is a fleet-scale comparison; set "
        "REPRO_BENCH_GROUPING_DEVICES >= 10000"
    )
    fleet = generate_fleet(
        n_devices,
        GROUPING_MIXTURE,
        np.random.default_rng(7),
        coverage_mix=CoverageMix(normal=0.80, robust=0.15, extreme=0.05),
    )
    context = PlanningContext(payload_bytes=1_000_000)

    rows = []
    records = []
    collision_policy = None
    collision_plan = None
    for policy_name, mechanism_name in FLEET_SCALE_COMBOS:
        policy, plan, record = _run_combo(
            policy_name, mechanism_name, fleet, context, seed=42
        )
        if policy_name == "collision-aware":
            collision_policy, collision_plan = policy, plan
        records.append(record)

    # Exact cover cannot plan 1e4+ devices (branch and bound); run it at
    # its documented small-fleet bound so the artifact still tracks it.
    exact_bound = grouping_policy_by_name("exact-cover")._max_devices
    small = fleet.subset(np.arange(exact_bound))
    _, _, exact_record = _run_combo("exact-cover", "dr-sc", small, context, 42)
    records.append(exact_record)

    # The collision-aware contract: the configured cap really holds.
    assert collision_policy is not None and collision_plan is not None
    assert isinstance(collision_policy, CollisionAwarePolicy)
    cap = collision_policy.max_collision_probability
    largest = int(np.bincount(collision_plan.columns.transmission).max())
    assert largest <= collision_policy.max_group_size
    assert collision_policy.collision_probability(largest) <= cap, (
        f"largest collision-aware group of {largest} exceeds the "
        f"p<={cap} contention cap"
    )

    path = write_bench_artifact(
        "grouping",
        {
            "benchmark": "a11_grouping_policies_fleet_scale",
            "n_devices": n_devices,
            "payload_bytes": context.payload_bytes,
            "collision_cap": cap,
            "collision_max_group": collision_policy.max_group_size,
            "policies": records,
        },
    )
    for record in records:
        rows.append(
            (
                record["policy"],
                record["mechanism"],
                str(record["n_devices"]),
                str(record["transmissions"]),
                str(record["largest_group"]),
                f"{record['plan_s']:.2f}s",
                f"{record['execute_s']:.2f}s",
                f"{record['mean_wait_s']:.2f}s",
            )
        )
    emit(
        capsys,
        render_table(
            Table(
                title=(
                    f"A11 — grouping policies at {n_devices} devices "
                    "(columnar executor)"
                ),
                headers=(
                    "policy",
                    "mechanism",
                    "devices",
                    "tx",
                    "largest",
                    "plan",
                    "execute",
                    "mean wait",
                ),
                rows=tuple(rows),
                notes=(
                    f"collision-aware capped at p<={cap} "
                    f"(max {collision_policy.max_group_size}/group); "
                    "exact-cover runs at its small-fleet bound of "
                    f"{exact_bound} devices (branch and bound); artifact "
                    f"written to {path}.",
                ),
            )
        ),
    )
