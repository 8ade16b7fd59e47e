"""Unit tests for the columnar executor path and the outcome table.

The vectorised executor must reproduce the event-driven replay
(``executor_oracle.EventDrivenCampaign``, its independent
oracle) within 1e-9 per device and per power state. Also covers the
random-access draw order under contention, the executor's transient
memory (under 96 bytes per directive beyond its inputs and result, on
every path) and bit-identical replay at ~2x10^4 directives, the
CampaignResult table (row views built on access, read-only columns,
value semantics, the seconds layout, array reductions) and the
empty-result mean_wait_s guard.
"""

import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from executor_oracle import EventDrivenCampaign, assert_matches_replay

from repro.core import (
    DaScMechanism,
    DrScMechanism,
    DrSiMechanism,
    UnicastBaseline,
)
from repro.core.base import PlanningContext
from repro.core.plan import METHOD_CODE, WakeMethod, revise_plan
from repro.energy.ledger import STATE_INDEX, STATE_ORDER
from repro.energy.states import PowerState, StateGroup
from repro.errors import ConfigurationError, SimulationError
from repro.rrc.procedures import ProcedureTimings
from repro.rrc.random_access import RandomAccessModel
from repro.sim import columnar
from repro.sim.eventlog import EventLogRecorder, compare_results, replay_strict
from repro.sim.events import EventKind
from repro.sim.executor import CampaignExecutor
from repro.sim.metrics import CampaignResult, fold_ledgers
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import PAPER_DEFAULT_MIXTURE

MECHANISMS = [DrScMechanism, DaScMechanism, DrSiMechanism, UnicastBaseline]


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
        assert_matches_replay(columnar, reference)

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
            assert_matches_replay(columnar, reference)

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


#: Bytes per directive an unrecorded execute may hold beyond its
#: inputs and its result.
TRANSIENT_BYTES_PER_DIRECTIVE = 96

#: One plan per executor path, ~2x10^4 directives each.
LEAN_CASES = ("dr-sc", "da-sc", "dr-si", "contention", "partial")

_RESULT_COLUMNS = (
    "device", "transmission", "ready_s", "wait_s", "updated_s", "seconds",
    "actual_start_s",
)


@pytest.fixture(scope="module")
def lean_cases():
    """(fleet, plan, timings) per path: DR-SC; DA-SC with adapted rows;
    DR-SI (extended pages); DA-SC under RACH contention (the per-device
    draw loop); and a revised DR-SC plan whose directives cover a
    scrambled four-fifths of the fleet."""
    n = 20_000
    fleet = generate_fleet(n, PAPER_DEFAULT_MIXTURE, np.random.default_rng(2018))
    context = PlanningContext(payload_bytes=100_000)
    dr_sc = DrScMechanism().plan(fleet, context, np.random.default_rng(1))
    da_sc = DaScMechanism().plan(fleet, context, np.random.default_rng(1))
    dr_si = DrSiMechanism().plan(fleet, context, np.random.default_rng(1))
    left = np.random.default_rng(4).choice(n, n // 5, replace=False)
    partial = revise_plan(
        dr_sc, fleet, left=tuple(left.tolist()), now_frame=0, context=context
    ).revised
    contention = ProcedureTimings(
        random_access=RandomAccessModel(collision_probability=0.1)
    )
    return {
        "dr-sc": (fleet, dr_sc, ProcedureTimings()),
        "da-sc": (fleet, da_sc, ProcedureTimings()),
        "dr-si": (fleet, dr_si, ProcedureTimings()),
        "contention": (fleet, da_sc, contention),
        "partial": (fleet, partial, ProcedureTimings()),
    }


class TestLeanExecutor:
    def test_cases_cover_every_path(self, lean_cases):
        methods = {
            case: lean_cases[case][1].columns.method for case in LEAN_CASES
        }
        assert np.any(methods["da-sc"] == METHOD_CODE[WakeMethod.DRX_ADAPTATION])
        assert np.any(
            methods["dr-si"] == METHOD_CODE[WakeMethod.EXTENDED_PAGE_TIMER]
        )
        devices = lean_cases["partial"][1].columns.device
        assert devices.size == 16_000
        assert np.any(np.diff(devices) < 0), "directives are in device order"

    @pytest.mark.parametrize("case", LEAN_CASES)
    def test_transient_memory_per_directive(self, lean_cases, case):
        """The traced peak of an unrecorded call, less the memory live
        before it and the result's own bytes, stays under the bar."""
        fleet, plan, timings = lean_cases[case]
        rng = np.random.default_rng(7)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = columnar.execute_columnar(fleet, plan, timings, rng=rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = sum(getattr(result, name).nbytes for name in _RESULT_COLUMNS)
        transient = (peak - before - output) / len(plan.columns)
        assert transient <= TRANSIENT_BYTES_PER_DIRECTIVE, transient

    @pytest.mark.parametrize("case", LEAN_CASES)
    def test_seconds_folded_in_the_stored_layout(
        self, lean_cases, case, monkeypatch
    ):
        """The fold returns the F-contiguous matrix the result keeps:
        the constructor stores that very array, no copy."""
        fleet, plan, timings = lean_cases[case]
        folded = []

        def spy(*args, **kwargs):
            folded.append(columnar_fold(*args, **kwargs))
            return folded[-1]

        columnar_fold = columnar.fold_ledgers
        monkeypatch.setattr(columnar, "fold_ledgers", spy)
        result = columnar.execute_columnar(
            fleet, plan, timings, rng=np.random.default_rng(7)
        )
        assert result.seconds.flags.f_contiguous
        assert result.seconds is folded[0]

    @pytest.mark.parametrize("case", LEAN_CASES)
    def test_recorded_run_replays_bit_for_bit(self, lean_cases, case):
        """Recording changes neither the result nor the draws, and the
        STRICT replay of the log rebuilds the result bit for bit."""
        fleet, plan, timings = lean_cases[case]
        plain_rng, recorded_rng = np.random.default_rng(7), np.random.default_rng(7)
        plain = columnar.execute_columnar(fleet, plan, timings, rng=plain_rng)
        recorder = EventLogRecorder()
        live = columnar.execute_columnar(
            fleet, plan, timings, rng=recorded_rng, recorder=recorder
        )
        assert compare_results(plain, live) == []
        assert plain_rng.bit_generator.state == recorded_rng.bit_generator.state
        rebuilt = replay_strict(recorder.finalize(cell=0))
        assert compare_results(live, rebuilt) == []
        assert np.array_equal(live.energy_mj(), rebuilt.energy_mj())


def _table(seconds):
    """A result of ``seconds.shape[1]`` devices holding ``seconds``."""
    n = seconds.shape[1]
    return CampaignResult(
        device=np.arange(n),
        transmission=np.zeros(n, dtype=np.int64),
        ready_s=np.zeros(n),
        wait_s=np.zeros(n),
        updated_s=np.ones(n),
        seconds=seconds,
        actual_start_s=np.zeros(1),
        horizon_frames=100,
        mechanism="test",
    )


class TestColumnarResultSurface:
    def test_outcomes_materialise_lazily_and_sorted(self, moderate_fleet, context):
        plan = DrScMechanism().plan(moderate_fleet, context)
        result = CampaignExecutor().execute(moderate_fleet, plan)
        indices = [outcome.device_index for outcome in result]
        assert indices == sorted(indices) == list(range(len(moderate_fleet)))
        assert result[0] is not result[0]  # built on access, never cached
        assert [o.device_index for o in result[1:3]] == [1, 2]

    def test_outcome_rows_hash_by_value(self, moderate_fleet, context):
        plan = DrScMechanism().plan(moderate_fleet, context)
        result = CampaignExecutor().execute(moderate_fleet, plan)
        again = CampaignExecutor().execute(moderate_fleet, plan)
        assert hash(result[0]) == hash(again[0])
        assert len(set(result) | set(again)) == len(result)

    def test_mean_wait_requires_outcomes(self, moderate_fleet, context):
        plan = UnicastBaseline().plan(moderate_fleet, context)
        result = CampaignExecutor().execute(moderate_fleet, plan)
        nothing = np.empty(0, dtype=np.int64)
        empty = replace(
            result,
            device=nothing,
            transmission=nothing,
            ready_s=np.empty(0),
            wait_s=np.empty(0),
            updated_s=np.empty(0),
            seconds=np.zeros((len(STATE_ORDER), 0)),
        )
        assert len(empty) == 0
        with pytest.raises(SimulationError):
            empty.mean_wait_s

    def test_columns_are_read_only(self, moderate_fleet, context):
        plan = DaScMechanism().plan(moderate_fleet, context)
        result = CampaignExecutor().execute(moderate_fleet, plan)
        for name in (
            "device", "transmission", "ready_s", "wait_s", "updated_s",
            "seconds", "actual_start_s",
        ):
            column = getattr(result, name)
            assert not column.flags.writeable, name
        with pytest.raises(ValueError):
            result.seconds[0, 0] += 1.0
        with pytest.raises(ValueError):
            result.actual_start_s[0] = 0.0

    def test_two_executions_compare_and_hash_equal(self, moderate_fleet, context):
        plan = DaScMechanism().plan(moderate_fleet, context)
        first = CampaignExecutor().execute(moderate_fleet, plan)
        second = CampaignExecutor().execute(moderate_fleet, plan)
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)
        longer = CampaignExecutor().execute(
            moderate_fleet, plan, horizon_frames=first.horizon_frames + 1
        )
        assert longer != first

    def test_pickle_round_trip_is_equal_and_read_only(self, moderate_fleet, context):
        plan = DrScMechanism().plan(moderate_fleet, context)
        result = CampaignExecutor().execute(moderate_fleet, plan)
        restored = pickle.loads(pickle.dumps(result))
        assert restored == result
        assert not restored.seconds.flags.writeable
        assert not restored.wait_s.flags.writeable
        assert restored.seconds.flags.f_contiguous
        assert restored.fleet == result.fleet

    def test_seconds_stored_f_contiguous_without_copy(self):
        matrix = np.asfortranarray(np.ones((len(STATE_ORDER), 3)))
        assert _table(matrix).seconds is matrix
        c_layout = np.ones((len(STATE_ORDER), 3))
        stored = _table(c_layout).seconds
        assert stored.flags.f_contiguous
        assert np.array_equal(stored, c_layout)

    def test_constructor_checks_column_lengths(self):
        with pytest.raises(SimulationError, match="seconds"):
            _table(np.ones((len(STATE_ORDER) - 1, 3)))
        with pytest.raises(SimulationError, match="wait_s"):
            replace(_table(np.ones((len(STATE_ORDER), 3))), wait_s=np.zeros(2))


class TestOutcomeReductions:
    def test_group_reductions(self):
        seconds = np.zeros((len(STATE_ORDER), 3))
        seconds[STATE_INDEX[PowerState.PO_MONITOR]] = [1.0, 2.0, 3.0]
        seconds[STATE_INDEX[PowerState.CONNECTED_RX]] = [0.5, 0.0, 1.5]
        result = _table(seconds)
        np.testing.assert_allclose(
            result.group_seconds(StateGroup.LIGHT_SLEEP), [1.0, 2.0, 3.0]
        )
        np.testing.assert_allclose(
            result.group_seconds(StateGroup.CONNECTED), [0.5, 0.0, 1.5]
        )
        assert result.fleet.light_sleep_s == pytest.approx(6.0)
        assert result.fleet.connected_s == pytest.approx(2.0)

    def test_negative_fold_rejected(self):
        zeros = np.zeros(2)
        with pytest.raises(ConfigurationError):
            fold_ledgers(
                10.0,
                po_count=zeros, po_monitor_s=0.01,
                page_rx=zeros, paging_message_s=0.01,
                is_da=np.zeros(2, dtype=bool), ra_base=zeros, episode=zeros,
                main_ra=zeros, rrc_setup_s=0.1, tail=zeros,
                wait=np.array([1.0, -0.1]), rx=zeros,
            )

    def test_energy_matches_scalar_ledger(self):
        result = _table(np.random.default_rng(0).random((len(STATE_ORDER), 4)))
        energy = result.energy_mj()
        for column in range(4):
            assert energy[column] == pytest.approx(
                result[column].ledger.energy_mj(), rel=1e-12
            )
        assert result.fleet.energy_mj == float(energy.sum())

    def test_rows_read_their_own_columns(self):
        seconds = np.zeros((len(STATE_ORDER), 3))
        seconds[STATE_INDEX[PowerState.PAGING_RX]] = [1.0, 2.0, 3.0]
        result = _table(seconds)
        assert [
            o.ledger.seconds_in(PowerState.PAGING_RX) for o in result[::-1]
        ] == [3.0, 2.0, 1.0]


class TestFleetColumnarViews:
    def test_views_match_devices(self, moderate_fleet):
        from repro.devices.fleet import COVERAGE_ORDER

        codes = moderate_fleet.coverage_codes
        ue_ids = moderate_fleet.imsis % 4096
        for i, device in enumerate(moderate_fleet):
            assert COVERAGE_ORDER[codes[i]] is device.coverage
            assert ue_ids[i] == device.identity.ue_id
            assert device.nb is moderate_fleet.nb
