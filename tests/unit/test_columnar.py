"""Unit tests for the columnar executor path, LedgerArray and metrics.

The vectorised executor must reproduce the event-driven replay
(:class:`~repro.sim.replay.EventDrivenCampaign`, its independent
oracle) within 1e-9 per device and per power state. Also covers the
random-access draw order under contention, the columnar CampaignResult
surface (lazy outcomes, array reductions) and the empty-result
mean_wait_s guard.
"""

import numpy as np
import pytest

from repro.core import (
    DaScMechanism,
    DrScMechanism,
    DrSiMechanism,
    UnicastBaseline,
)
from repro.core.base import PlanningContext
from repro.core.plan import WakeMethod
from repro.energy.ledger import STATE_ORDER, LedgerArray, UptimeLedger
from repro.energy.states import PowerState, StateGroup
from repro.errors import ConfigurationError, SimulationError
from repro.sim.eventlog import EventLogRecorder
from repro.sim.events import EventKind
from repro.sim.executor import CampaignExecutor
from repro.sim.metrics import FleetOutcomes
from repro.sim.replay import EventDrivenCampaign
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import PAPER_DEFAULT_MIXTURE

MECHANISMS = [DrScMechanism, DaScMechanism, DrSiMechanism, UnicastBaseline]


def _assert_results_equivalent(reference, columnar, atol=1e-9):
    assert columnar.horizon_frames == reference.horizon_frames
    assert columnar.n_devices == reference.n_devices
    np.testing.assert_allclose(
        columnar.actual_start_s, reference.actual_start_s, atol=atol
    )
    for ref, col in zip(reference.outcomes, columnar.outcomes):
        assert col.device_index == ref.device_index
        assert col.transmission_index == ref.transmission_index
        assert col.ready_s == pytest.approx(ref.ready_s, abs=atol)
        assert col.wait_s == pytest.approx(ref.wait_s, abs=atol)
        assert col.updated_s == pytest.approx(ref.updated_s, abs=atol)
        for state in PowerState:
            assert col.ledger.seconds_in(state) == pytest.approx(
                ref.ledger.seconds_in(state), abs=atol
            ), f"device {ref.device_index} disagrees on {state}"


def _replayed(fleet, plan, horizon_frames=None):
    """The event-driven oracle's result for ``plan``."""
    return EventDrivenCampaign(fleet, plan).run(horizon_frames=horizon_frames)


class TestColumnarEquivalence:
    @pytest.mark.parametrize("mechanism_cls", MECHANISMS)
    def test_per_mechanism(self, mechanism_cls, moderate_fleet, context):
        rng = np.random.default_rng(7)
        plan = mechanism_cls().plan(moderate_fleet, context, rng)
        columnar = CampaignExecutor().execute(moderate_fleet, plan)
        reference = _replayed(moderate_fleet, plan, columnar.horizon_frames)
        _assert_results_equivalent(reference, columnar)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_paper_mixture_fleets(self, seed):
        """Randomized paper-mixture fleets, all mechanisms, common horizon."""
        rng = np.random.default_rng(seed)
        fleet = generate_fleet(40, PAPER_DEFAULT_MIXTURE, rng)
        ctx = PlanningContext(payload_bytes=250_000)
        for mechanism_cls in MECHANISMS:
            plan = mechanism_cls().plan(fleet, ctx, rng)
            columnar = CampaignExecutor().execute(fleet, plan)
            reference = _replayed(fleet, plan, columnar.horizon_frames)
            _assert_results_equivalent(reference, columnar)

    def test_fleet_summary_matches(self, moderate_fleet, context):
        rng = np.random.default_rng(3)
        plan = DaScMechanism().plan(moderate_fleet, context, rng)
        columnar = CampaignExecutor().execute(moderate_fleet, plan)
        reference = _replayed(moderate_fleet, plan, columnar.horizon_frames)
        for attribute in ("light_sleep_s", "connected_s", "sleep_s"):
            assert getattr(columnar.fleet, attribute) == pytest.approx(
                getattr(reference.fleet, attribute), rel=1e-12
            )
        assert columnar.fleet.energy_mj == pytest.approx(
            reference.fleet.energy_mj, rel=1e-12
        )
        assert columnar.mean_wait_s == pytest.approx(
            reference.mean_wait_s, abs=1e-9
        )

    def test_too_short_horizon_rejected(self, moderate_fleet, context):
        plan = UnicastBaseline().plan(moderate_fleet, context)
        with pytest.raises(SimulationError):
            CampaignExecutor().execute(
                moderate_fleet, plan, horizon_frames=10
            )

    def test_contention_draws_in_directive_order(
        self, moderate_fleet, context
    ):
        """With RACH collisions the columnar path draws device by device
        in directive order: a DA-SC device's adaptation episode first,
        then its main random access. The draws land in the log's
        ADAPTATION_PAGE and RA_ATTEMPT rows, value for value."""
        from repro.devices.fleet import COVERAGE_ORDER
        from repro.rrc.procedures import ProcedureTimings
        from repro.rrc.random_access import RandomAccessModel

        timings = ProcedureTimings(
            random_access=RandomAccessModel(collision_probability=0.3)
        )
        plan = DaScMechanism().plan(
            moderate_fleet, context, np.random.default_rng(5)
        )
        recorder = EventLogRecorder()
        CampaignExecutor(timings=timings).execute(
            moderate_fleet,
            plan,
            rng=np.random.default_rng(17),
            recorder=recorder,
        )
        log = recorder.finalize(cell=0)

        rng = np.random.default_rng(17)
        codes = moderate_fleet.coverage_codes
        episodes, attempts, durations = {}, {}, {}
        for directive in plan.directives:
            device = directive.device_index
            coverage = COVERAGE_ORDER[int(codes[device])]
            if directive.method is WakeMethod.DRX_ADAPTATION:
                episodes[device] = timings.adaptation_episode_s(coverage, rng)
            outcome = timings.random_access.perform(coverage, rng)
            attempts[device] = float(outcome.attempts)
            durations[device] = outcome.duration_s

        ra_rows = log.of_kind(EventKind.RA_ATTEMPT)
        assert sorted(ra_rows["device"].tolist()) == sorted(attempts)
        for row in ra_rows:
            assert row["a"] == attempts[int(row["device"])]
            assert row["b"] == durations[int(row["device"])]
        assert max(attempts.values()) > 1.0, "contention never collided"
        adaptation_rows = log.of_kind(EventKind.ADAPTATION_PAGE)
        assert episodes, "the plan adapts no device"
        assert sorted(adaptation_rows["device"].tolist()) == sorted(episodes)
        for row in adaptation_rows:
            assert row["a"] == episodes[int(row["device"])]


class TestColumnarResultSurface:
    def test_outcomes_materialise_lazily_and_sorted(self, moderate_fleet, context):
        plan = DrScMechanism().plan(moderate_fleet, context)
        result = CampaignExecutor().execute(moderate_fleet, plan)
        indices = [outcome.device_index for outcome in result.outcomes]
        assert indices == sorted(indices) == list(range(len(moderate_fleet)))
        assert result.outcomes is result.outcomes  # cached after first access

    def test_mean_wait_requires_outcomes(self, moderate_fleet, context):
        plan = UnicastBaseline().plan(moderate_fleet, context)
        result = CampaignExecutor().execute(moderate_fleet, plan)
        nothing = np.empty(0, dtype=np.int64)
        empty = type(result)(
            plan=plan,
            horizon_frames=result.horizon_frames,
            columnar=FleetOutcomes(
                device_indices=nothing,
                transmission_indices=nothing,
                ledgers=LedgerArray(0),
                ready_s=np.empty(0),
                wait_s=np.empty(0),
                updated_s=np.empty(0),
            ),
            actual_start_s=result.actual_start_s,
        )
        with pytest.raises(SimulationError):
            empty.mean_wait_s


class TestLedgerArray:
    def test_add_and_group_reductions(self):
        ledgers = LedgerArray(3)
        ledgers.add(PowerState.PO_MONITOR, np.array([1.0, 2.0, 3.0]))
        ledgers.add(PowerState.CONNECTED_RX, np.array([0.5, 0.0, 1.5]))
        np.testing.assert_allclose(
            ledgers.group_seconds(StateGroup.LIGHT_SLEEP), [1.0, 2.0, 3.0]
        )
        np.testing.assert_allclose(
            ledgers.group_seconds(StateGroup.CONNECTED), [0.5, 0.0, 1.5]
        )

    def test_negative_add_rejected(self):
        ledgers = LedgerArray(2)
        with pytest.raises(ConfigurationError):
            ledgers.add(PowerState.PO_MONITOR, np.array([1.0, -0.1]))

    def test_energy_matches_scalar_ledger(self):
        rng = np.random.default_rng(0)
        ledgers = LedgerArray(4)
        for state in STATE_ORDER:
            ledgers.add(state, rng.random(4))
        for column in range(4):
            scalar: UptimeLedger = ledgers.ledger_at(column)
            assert ledgers.energy_mj()[column] == pytest.approx(
                scalar.energy_mj(), rel=1e-12
            )

    def test_take_permutes_columns(self):
        ledgers = LedgerArray(3)
        ledgers.add(PowerState.PAGING_RX, np.array([1.0, 2.0, 3.0]))
        picked = ledgers.take(np.array([2, 0]))
        np.testing.assert_allclose(
            picked.seconds_in(PowerState.PAGING_RX), [3.0, 1.0]
        )


class TestFleetColumnarViews:
    def test_views_match_devices(self, moderate_fleet):
        from repro.devices.fleet import COVERAGE_ORDER

        codes = moderate_fleet.coverage_codes
        ue_ids = moderate_fleet.ue_ids
        numerators = moderate_fleet.nb_numerators
        denominators = moderate_fleet.nb_denominators
        for i, device in enumerate(moderate_fleet):
            assert COVERAGE_ORDER[codes[i]] is device.coverage
            assert ue_ids[i] == device.drx.ue_id
            assert numerators[i] == device.drx.nb.fraction.numerator
            assert denominators[i] == device.drx.nb.fraction.denominator
