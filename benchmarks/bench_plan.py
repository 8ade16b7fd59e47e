"""Plan-layer benchmark: directive building and validate per mechanism.

Plans one paper-default fleet of ``REPRO_BENCH_PLAN_DEVICES`` devices
(default 10^4; CI's bench job runs 10^5) with every mechanism and times
the two plan layers separately:

* **directives** — the mechanism's ``plan`` with its grouping decision
  precomputed (a replay policy hands it back), so the cover is excluded
  and only the per-device directive columns and transmissions are
  timed;
* **validate** — the whole-array :meth:`MulticastPlan.validate`.

Each figure is the best of three repeats. The bar asserted is the
columnar-plan target, for every mechanism: directives + validate
<= 0.3 s at 10^5 devices (the budget grows linearly above 10^5 and
stays 0.3 s below). Results are persisted as ``BENCH_plan.json``.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, Optional

import numpy as np
from conftest import emit, write_bench_artifact

from repro.core import (
    AdaptationStrategy,
    DaScMechanism,
    DrScMechanism,
    DrSiMechanism,
    UnicastBaseline,
)
from repro.core.base import GroupingMechanism, PlanningContext
from repro.experiments.reporting import Table, render_table
from repro.grouping.policy import GroupingDecision, GroupingPolicy
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import PAPER_DEFAULT_MIXTURE

#: Directives + validate budget per mechanism at 10^5 devices (seconds).
BAR_S = 0.3
BAR_DEVICES = 100_000
REPEATS = 3


class _ReplayPolicy(GroupingPolicy):
    """Hands back a precomputed decision, so ``plan`` times directives."""

    def __init__(self, inner: GroupingPolicy, decision: GroupingDecision):
        self.name = inner.name
        self.guarantees_window_po = inner.guarantees_window_po
        self._decision = decision

    def group(self, fleet, context, rng=None) -> GroupingDecision:
        return self._decision


#: name -> mechanism factory taking an optional policy.
MECHANISMS: Dict[str, Callable[[Optional[GroupingPolicy]], GroupingMechanism]] = {
    "dr-sc": lambda policy: DrScMechanism(policy),
    "da-sc": lambda policy: DaScMechanism(AdaptationStrategy.PAPER, policy),
    "da-sc/largest-within-ti": lambda policy: DaScMechanism(
        AdaptationStrategy.LARGEST_WITHIN_TI, policy
    ),
    "dr-si": lambda policy: DrSiMechanism(policy),
    "unicast": lambda policy: UnicastBaseline(),
}


def _best_of(fn: Callable[[], object]) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _measure(name, fleet, context) -> Dict[str, float]:
    default = MECHANISMS[name](None)
    policy = default.policy
    if policy is not None:
        decision = policy.group(fleet, context, np.random.default_rng(1))
        mechanism = MECHANISMS[name](_ReplayPolicy(policy, decision))
    else:
        mechanism = default
    plan = mechanism.plan(fleet, context, np.random.default_rng(2))
    plan.validate(fleet)
    return {
        "directives_s": _best_of(
            lambda: mechanism.plan(fleet, context, np.random.default_rng(2))
        ),
        "validate_s": _best_of(lambda: plan.validate(fleet)),
        "transmissions": plan.n_transmissions,
    }


def test_plan_layers_per_mechanism(capsys):
    n_devices = int(os.environ.get("REPRO_BENCH_PLAN_DEVICES") or 10_000)
    fleet = generate_fleet(
        n_devices, PAPER_DEFAULT_MIXTURE, np.random.default_rng(2018)
    )
    context = PlanningContext(payload_bytes=1_000_000)
    records = {name: _measure(name, fleet, context) for name in MECHANISMS}

    totals = {
        name: record["directives_s"] + record["validate_s"]
        for name, record in records.items()
    }
    budget = BAR_S * max(1.0, n_devices / BAR_DEVICES)
    path = write_bench_artifact(
        "plan",
        {
            "benchmark": "plan_layers_per_mechanism",
            "n_devices": n_devices,
            "payload_bytes": context.payload_bytes,
            "repeats": REPEATS,
            "directives_plus_validate_s": totals,
            "budget_s": budget,
            "mechanisms": records,
        },
    )
    emit(
        capsys,
        render_table(
            Table(
                title=f"Plan layers at {n_devices} devices (best of {REPEATS})",
                headers=("mechanism", "tx", "directives", "validate"),
                rows=tuple(
                    (
                        name,
                        str(record["transmissions"]),
                        f"{record['directives_s'] * 1e3:.1f} ms",
                        f"{record['validate_s'] * 1e3:.1f} ms",
                    )
                    for name, record in records.items()
                ),
                notes=(
                    f"directives + validate against a {budget:.2f}s budget "
                    f"per mechanism; artifact written to {path}.",
                ),
            )
        ),
    )
    over = {name: f"{s:.3f}s" for name, s in totals.items() if s > budget}
    assert not over, (
        f"directives + validate over the {budget:.2f}s budget at "
        f"{n_devices} devices: {over}"
    )
