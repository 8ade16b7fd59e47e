"""Unit tests for the executor, engine, metrics, Monte-Carlo and RNG."""

import numpy as np
import pytest
from engine_oracle import Event, Simulator

from repro.core import DaScMechanism, DrScMechanism, DrSiMechanism, UnicastBaseline
from repro.core.plan import WakeMethod
from repro.energy.states import PowerState
from repro.errors import ConfigurationError, SimulationError
from repro.sim.events import EventKind
from repro.sim.executor import CampaignExecutor
from repro.timebase import frame_after_seconds
from repro.sim.montecarlo import RunStatistics
from repro.sim.rng import generator_for, spawn_generators

from metric_items import run_fn


class TestFrameAfter:
    def test_exact_boundary(self):
        assert frame_after_seconds(0.0) == 0
        assert frame_after_seconds(0.01) == 1
        # Float noise at the scale frames_to_seconds produces is absorbed.
        assert frame_after_seconds(0.010000000000001) == 1

    def test_mid_frame_rounds_up(self):
        assert frame_after_seconds(0.015) == 2


class TestExecutor:
    def test_unicast_no_wait(self, moderate_fleet, context, rng):
        plan = UnicastBaseline().plan(moderate_fleet, context, rng)
        result = CampaignExecutor().execute(moderate_fleet, plan)
        for outcome in result:
            assert outcome.wait_s == pytest.approx(0.0, abs=1e-9)

    def test_all_devices_updated(self, moderate_fleet, context, rng):
        for mechanism in (DrScMechanism(), DaScMechanism(), DrSiMechanism()):
            plan = mechanism.plan(moderate_fleet, context, rng)
            result = CampaignExecutor().execute(moderate_fleet, plan)
            assert len(result) == len(moderate_fleet)
            for outcome in result:
                assert outcome.updated_s > 0

    def test_waits_bounded_by_ti(self, moderate_fleet, context, rng):
        """No device waits longer than TI plus its own connect time."""
        plan = DrSiMechanism().plan(moderate_fleet, context, rng)
        result = CampaignExecutor().execute(moderate_fleet, plan)
        ti_s = context.inactivity_timer_frames * 0.010
        for outcome in result:
            assert outcome.wait_s <= ti_s + 5.0

    def test_horizon_override_extends_po_monitoring(
        self, moderate_fleet, context, rng
    ):
        plan = UnicastBaseline().plan(moderate_fleet, context, rng)
        executor = CampaignExecutor()
        short = executor.execute(moderate_fleet, plan)
        long = executor.execute(
            moderate_fleet, plan, horizon_frames=short.horizon_frames * 2
        )
        assert (
            long.fleet.light_sleep_s > short.fleet.light_sleep_s
        ), "more horizon, more POs monitored"
        # Connected time is untouched by the horizon.
        assert long.fleet.connected_s == pytest.approx(short.fleet.connected_s)

    def test_too_short_horizon_rejected(self, moderate_fleet, context, rng):
        plan = UnicastBaseline().plan(moderate_fleet, context, rng)
        with pytest.raises(SimulationError):
            CampaignExecutor().execute(moderate_fleet, plan, horizon_frames=10)

    def test_dasc_charges_adaptation_episode(self, moderate_fleet, context, rng):
        plan = DaScMechanism().plan(moderate_fleet, context, rng)
        result = CampaignExecutor().execute(moderate_fleet, plan)
        adapted = {
            d.device_index
            for d in plan.directives
            if d.method is WakeMethod.DRX_ADAPTATION
        }
        assert adapted, "fixture fleet should need adaptations"
        for outcome in result:
            ra = outcome.ledger.seconds_in(PowerState.RANDOM_ACCESS)
            if outcome.device_index in adapted:
                assert ra == pytest.approx(2 * 0.35)  # two RA procedures
            else:
                assert ra == pytest.approx(0.35)

    def test_deep_sleep_completes_timeline(self, moderate_fleet, context, rng):
        plan = UnicastBaseline().plan(moderate_fleet, context, rng)
        result = CampaignExecutor().execute(moderate_fleet, plan)
        horizon_s = result.horizon_frames * 0.010
        for outcome in result:
            totals = outcome.ledger.totals
            total = totals.light_sleep_s + totals.connected_s + totals.sleep_s
            assert total == pytest.approx(horizon_s, rel=1e-6)


class TestEngine:
    def test_orders_by_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(Event(2.0, EventKind.PO_MONITOR), lambda e: seen.append(2))
        sim.schedule(Event(1.0, EventKind.PO_MONITOR), lambda e: seen.append(1))
        sim.run()
        assert seen == [1, 2]

    def test_priority_breaks_ties(self):
        sim = Simulator()
        seen = []
        sim.schedule(
            Event(1.0, EventKind.TX_START), lambda e: seen.append("tx"), priority=1
        )
        sim.schedule(
            Event(1.0, EventKind.CONNECTION_READY),
            lambda e: seen.append("ready"),
            priority=0,
        )
        sim.run()
        assert seen == ["ready", "tx"]

    def test_insertion_order_breaks_remaining_ties(self):
        sim = Simulator()
        seen = []
        sim.schedule(Event(1.0, EventKind.PO_MONITOR), lambda e: seen.append("a"))
        sim.schedule(Event(1.0, EventKind.PO_MONITOR), lambda e: seen.append("b"))
        sim.run()
        assert seen == ["a", "b"]

    def test_run_until_leaves_future_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(Event(1.0, EventKind.PO_MONITOR), lambda e: seen.append(1))
        sim.schedule(Event(5.0, EventKind.PO_MONITOR), lambda e: seen.append(5))
        executed = sim.run(until_s=2.0)
        assert executed == 1 and seen == [1]
        assert sim.pending == 1
        sim.run()
        assert seen == [1, 5]

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(Event(1.0, EventKind.PO_MONITOR), lambda e: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule(Event(0.5, EventKind.PO_MONITOR), lambda e: None)


class TestEngineCancel:
    def test_cancelled_event_never_fires(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(
            Event(1.0, EventKind.PO_MONITOR), lambda e: seen.append(1)
        )
        sim.schedule(Event(2.0, EventKind.PO_MONITOR), lambda e: seen.append(2))
        assert sim.cancel(handle) is True
        assert sim.pending == 1
        sim.run()
        assert seen == [2]

    def test_cancelled_event_does_not_advance_clock(self):
        sim = Simulator()
        handle = sim.schedule(Event(5.0, EventKind.PO_MONITOR), lambda e: None)
        sim.schedule(Event(1.0, EventKind.PO_MONITOR), lambda e: None)
        sim.cancel(handle)
        sim.run()
        assert sim.now == 1.0

    def test_cancel_already_fired_event_returns_false(self):
        sim = Simulator()
        handle = sim.schedule(Event(1.0, EventKind.PO_MONITOR), lambda e: None)
        sim.run()
        assert sim.cancel(handle) is False

    def test_cancel_twice_returns_false(self):
        sim = Simulator()
        handle = sim.schedule(Event(1.0, EventKind.PO_MONITOR), lambda e: None)
        assert sim.cancel(handle) is True
        assert sim.cancel(handle) is False
        assert sim.pending == 0
        assert sim.run() == 0

    def test_cancel_unknown_handle_returns_false(self):
        sim = Simulator()
        assert sim.cancel(12345) is False

    def test_reschedule_after_cancel(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(
            Event(1.0, EventKind.TX_START), lambda e: seen.append("old")
        )
        sim.cancel(handle)
        sim.schedule(Event(3.0, EventKind.TX_START), lambda e: seen.append("new"))
        sim.run()
        assert seen == ["new"]
        assert sim.now == 3.0

    def test_run_until_keeps_cancelled_tombstones_harmless(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(
            Event(5.0, EventKind.PO_MONITOR), lambda e: seen.append("x")
        )
        sim.schedule(Event(6.0, EventKind.PO_MONITOR), lambda e: seen.append("y"))
        sim.cancel(handle)
        assert sim.run(until_s=5.5) == 0
        assert sim.pending == 1
        sim.run()
        assert seen == ["y"]

    def test_step_executes_one_event(self):
        sim = Simulator()
        seen = []
        sim.schedule(Event(1.0, EventKind.PO_MONITOR), lambda e: seen.append(1))
        handle = sim.schedule(
            Event(2.0, EventKind.PO_MONITOR), lambda e: seen.append(2)
        )
        sim.schedule(Event(3.0, EventKind.PO_MONITOR), lambda e: seen.append(3))
        sim.cancel(handle)
        assert sim.step() == 1 and seen == [1]
        assert sim.step() == 1 and seen == [1, 3]
        assert sim.step() == 0


class TestMonteCarlo:
    def test_aggregates_metrics(self):
        stats = run_fn(
            lambda rng, i: {"value": float(i)}, n_runs=10, seed=1
        )
        assert stats["value"].n == 10
        assert stats["value"].mean == pytest.approx(4.5)
        assert stats["value"].min == 0.0 and stats["value"].max == 9.0

    def test_runs_are_independent_but_reproducible(self):
        a = run_fn(
            lambda rng, i: {"draw": float(rng.random())}, n_runs=5, seed=42
        )
        b = run_fn(
            lambda rng, i: {"draw": float(rng.random())}, n_runs=5, seed=42
        )
        np.testing.assert_array_equal(a["draw"].values, b["draw"].values)
        assert len(set(a["draw"].values)) == 5

    def test_single_run_statistics(self):
        stats = RunStatistics(values=np.array([3.0]))
        assert stats.std == 0.0
        assert stats.ci95_halfwidth == 0.0

    def test_ci_shrinks_with_runs(self):
        wide = RunStatistics(values=np.array([0.0, 1.0] * 5))
        narrow = RunStatistics(values=np.array([0.0, 1.0] * 50))
        assert narrow.ci95_halfwidth < wide.ci95_halfwidth

    def test_empty_statistics_raise_instead_of_nan(self):
        """Zero-run statistics used to return NaN (with a NumPy
        RuntimeWarning); they now raise like CampaignResult.mean_wait_s
        does on a result with no outcomes."""
        import warnings

        stats = RunStatistics(values=np.array([], dtype=np.float64))
        assert stats.n == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any RuntimeWarning -> failure
            for reduction in ("mean", "std", "sem", "min", "max"):
                with pytest.raises(SimulationError):
                    getattr(stats, reduction)
            with pytest.raises(SimulationError):
                stats.ci95_halfwidth

    def test_inconsistent_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            run_fn(
                lambda rng, i: {"a": 1.0} if i == 0 else {"b": 1.0},
                n_runs=2,
                seed=1,
            )

    def test_empty_metrics_rejected(self):
        with pytest.raises(ConfigurationError):
            run_fn(lambda rng, i: {}, n_runs=1, seed=1)


class TestRng:
    def test_generator_reproducible(self):
        assert generator_for(7).random() == generator_for(7).random()

    def test_spawn_independent(self):
        children = spawn_generators(7, 3)
        draws = [g.random() for g in children]
        assert len(set(draws)) == 3

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            generator_for(-1)
        with pytest.raises(ConfigurationError):
            spawn_generators(1, 0)
