"""Golden-metrics regression and execution-path equivalence.

Every registered scenario is pinned: its headline metrics at the golden
configuration must match the committed JSON bit-for-bit (within float
tolerance), the fused backend must agree with serial exactly, and the
columnar executor must agree with the event-driven replay within 1e-9
on each scenario's campaign. A PR that shifts any of these either fixes
a bug (and re-pins with ``python -m repro scenarios run --all
--update-golden``) or is a regression.
"""

import numpy as np
import pytest
from executor_oracle import EventDrivenCampaign, assert_matches_replay


from repro.scenarios import (
    all_scenarios,
    diff_golden,
    golden_spec,
    headline_means,
    load_golden,
    run_scenario,
    scenario,
    scenario_names,
)
from repro.sim.executor import CampaignExecutor
from repro.traffic.generator import generate_fleet

ALL_NAMES = scenario_names()


@pytest.fixture(scope="module")
def golden_serial_columnar():
    """One serial columnar golden run per scenario (shared across tests)."""
    return {
        spec.name: run_scenario(golden_spec(spec))
        for spec in all_scenarios()
    }


class TestGoldenRegression:
    def test_registry_covers_the_pin_file(self, golden_serial_columnar):
        pinned = load_golden()
        assert set(pinned) == set(golden_serial_columnar)

    def test_headline_metrics_match_committed_golden(
        self, golden_serial_columnar
    ):
        current = {
            name: headline_means(stats)
            for name, stats in golden_serial_columnar.items()
        }
        problems = diff_golden(current, load_golden())
        assert problems == [], "\n".join(problems)


class TestExecutionPathEquivalence:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_fused_backend_bit_identical(self, name, golden_serial_columnar):
        spec = golden_spec(scenario(name))
        fused = run_scenario(spec, backend="fused", workers=2)
        serial = golden_serial_columnar[name]
        assert set(fused) == set(serial)
        for metric, stats in serial.items():
            assert (
                stats.values.tolist() == fused[metric].values.tolist()
            ), f"{name}.{metric} differs between serial and fused backends"

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_columnar_agrees_with_event_driven_oracle(self, name):
        """Each scenario's campaign, columnar vs the event-driven replay.

        The whole golden fleet runs as one cell under the scenario's
        mixture, coverage, mechanism, grouping policy and payload. RACH
        collisions are switched off: the replay draws RACH outcomes in
        event order, the columnar executor in directive order (that
        order is checked in ``test_columnar.py``).
        """
        spec = golden_spec(scenario(name)).with_overrides(
            ra_collision_probability=0.0
        )
        rng = np.random.default_rng(spec.seed)
        fleet = generate_fleet(
            spec.n_devices,
            spec.mixture_obj(),
            rng,
            coverage_mix=spec.coverage,
        )
        plan = spec.mechanism_obj().plan(fleet, spec.planning_context(), rng)
        columnar = CampaignExecutor(timings=spec.timings()).execute(
            fleet, plan, rng=np.random.default_rng(1)
        )
        replay = EventDrivenCampaign(fleet, plan, timings=spec.timings()).run(
            horizon_frames=columnar.horizon_frames,
            rng=np.random.default_rng(1),
        )
        assert len(columnar) == len(fleet)
        assert_matches_replay(columnar, replay, seconds_atol=1e-6)
        assert replay.mean_wait_s == pytest.approx(
            columnar.mean_wait_s, rel=1e-9, abs=1e-9
        )


class TestSweepThroughTheTaskGraph:
    def test_three_axis_grid_over_whole_registry_expands(self):
        from repro.scenarios import DEFAULT_AXES, SweepAxis, expand_grid

        axes = [SweepAxis(name, values) for name, values in DEFAULT_AXES]
        cells = expand_grid(all_scenarios(), axes)
        assert len(cells) == len(ALL_NAMES) * 2 * 2 * 2
        # Every cell derives a validated spec carrying its coordinates.
        for cell in cells:
            coords = dict(cell.coordinates)
            assert cell.spec.n_devices == coords["devices"]
            assert cell.spec.ra_collision_probability == coords["collision"]
            assert cell.spec.segment_loss_probability == coords["loss"]

    def test_sweep_cells_run_through_fused_backend(self):
        from repro.scenarios import SweepAxis, run_sweep, scenario

        results = run_sweep(
            [golden_spec(scenario("contention-storm"))],
            [
                SweepAxis("devices", (30, 60)),
                SweepAxis("collision", (0.0, 0.3)),
                SweepAxis("loss", (0.0,)),
            ],
            backend="fused",
            workers=2,
            n_runs=2,
        )
        assert len(results) == 4
        for cell, stats in results:
            assert stats["transmissions"].n == 2
            assert stats["delivered_fraction"].mean == pytest.approx(1.0)
        # More contention cannot shorten the mean wait at equal size.
        by_coords = {cell.coordinates: stats for cell, stats in results}
        calm = by_coords[(("devices", 30), ("collision", 0.0), ("loss", 0.0))]
        stormy = by_coords[(("devices", 30), ("collision", 0.3), ("loss", 0.0))]
        assert (
            stormy["mean_wait_s"].mean >= calm["mean_wait_s"].mean - 1e-9
        )

    def test_grouping_axis_sweep_serial_fused_bit_identical(self):
        """A 3-policy grouping sweep: fused == serial, bit for bit."""
        from repro.scenarios import SweepAxis, run_sweep, scenario

        specs = [
            golden_spec(scenario("paper-baseline")).with_overrides(n_devices=40),
            golden_spec(scenario("deep-coverage-heavy")).with_overrides(
                n_devices=40
            ),
        ]
        axes = [
            SweepAxis(
                "grouping",
                ("greedy-cover", "coverage-stratified", "random"),
            ),
        ]
        serial = run_sweep(specs, axes, backend="serial", n_runs=2)
        fused = run_sweep(
            specs, axes, backend="fused", workers=2, n_runs=2
        )
        assert len(serial) == len(fused) == 6
        for (cell_s, stats_s), (cell_p, stats_p) in zip(serial, fused):
            assert cell_s.coordinates == cell_p.coordinates
            assert cell_s.spec.grouping == dict(cell_s.coordinates)["grouping"]
            assert set(stats_s) == set(stats_p)
            for metric, stats in stats_s.items():
                assert (
                    stats.values.tolist() == stats_p[metric].values.tolist()
                ), f"{cell_s.label}.{metric} differs between backends"
