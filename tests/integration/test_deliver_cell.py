"""A churn-free ``deliver`` is the scenario runner's one cell.

``OnDemandMulticastService.deliver`` and the runner's ``_run_cell``
call the same plan, validate and execute entry points. On the same
spec, fleet and generator they must give the same campaign: the
runner's cell, rebuilt from its event log, equals the delivered result
bit for bit, the two cell summaries and run folds are equal, and both
leave the generator in the same state.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.multicast import OnDemandMulticastService
from repro.scenarios import runner, scenario
from repro.scenarios.runner import CellSummary, fold_run
from repro.sim.eventlog import compare_results, replay_strict
from repro.sim.phases import PhaseTimer
from repro.traffic.generator import generate_fleet

#: Fields a live cell fills that say where and how it ran, not what.
RUN_CONTEXT = {"worker_rss_kb": 0, "phase_timings": {}, "event_log": None}


def _fleet_and_rng(spec):
    rng = np.random.default_rng(2018)
    fleet = generate_fleet(
        spec.n_devices,
        spec.mixture_obj(),
        rng,
        coverage_mix=spec.coverage,
    )
    return fleet, rng


@pytest.mark.parametrize("mechanism", ["dr-sc", "da-sc", "dr-si"])
def test_deliver_equals_the_runner_cell(mechanism):
    # dense-urban's random-access contention draws from the generator
    # during execution, so the two paths must consume it identically.
    spec = scenario("dense-urban").with_overrides(
        n_devices=400, mechanism=mechanism, record_events=True
    )
    fleet, rng = _fleet_and_rng(spec)
    (cell,) = runner._run_cell(fleet, spec, rng, 0, PhaseTimer())

    fleet_b, rng_b = _fleet_and_rng(spec)
    service = OnDemandMulticastService(
        spec.mechanism_obj(), cell=spec.cell(), timings=spec.timings()
    )
    report = service.deliver(fleet_b, spec.image(), rng=rng_b)

    assert compare_results(report.result, replay_strict(cell.event_log)) == []
    delivered = CellSummary.of(
        0, report.result, **runner._adaptation(fleet_b, report.plan)
    )
    assert replace(delivered, **RUN_CONTEXT) == replace(cell, **RUN_CONTEXT)
    assert rng.bit_generator.state == rng_b.bit_generator.state
    repairs = runner._draw_repairs(spec, [cell], rng)
    assert fold_run([delivered], repairs, multi_cell=False) == fold_run(
        [cell], repairs, multi_cell=False
    )
    if mechanism == "da-sc":
        assert delivered.adapted_devices > 0
