"""Value semantics of the frozen column tables (:mod:`repro.table`).

The fleet, the plan's directive table and the campaign outcome table
share one rule: they compare by their column values (NaN equal to NaN
in float columns) and scalar fields, hash by their columns, and
unpickle by re-running their constructor, so a pickle is checked and
its columns come back read-only.
"""

import pickle
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from repro.core.plan import PLAN_COLUMNS, PlanArrays
from repro.devices import Fleet
from repro.devices.fleet import COLUMN_NAMES
from repro.drx.paging import NB
from repro.energy.ledger import STATE_ORDER
from repro.energy.profiles import EnergyProfile
from repro.errors import FleetError, PlanError, SimulationError
from repro.sim.metrics import CampaignResult
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import MODERATE_EDRX_MIXTURE


def _fleet(n=12, seed=4):
    return generate_fleet(n, MODERATE_EDRX_MIXTURE, np.random.default_rng(seed))


def _plan(page_frame=(1, 2, 3)):
    return PlanArrays(
        device=[0, 1, 2],
        transmission=[0, 0, 1],
        method=[0, 0, 0],
        page_frame=list(page_frame),
        connect_frame=[4, 5, 6],
    )


def _result(n=3):
    return CampaignResult(
        device=np.arange(n),
        transmission=np.zeros(n, dtype=np.int64),
        ready_s=np.full(n, 1.0),
        wait_s=np.full(n, 2.0),
        updated_s=np.full(n, 3.0),
        seconds=np.ones((len(STATE_ORDER), n)),
        actual_start_s=np.array([2.5]),
        horizon_frames=400,
        mechanism="DR-SC",
    )


def _with(table, **fields):
    """A table equal to ``table`` except for the given fields."""
    return replace(table, **fields)


class _Forged:
    """Pickles as a call of ``cls`` on ``args``: a hand-edited pickle."""

    def __init__(self, cls, args):
        self.cls, self.args = cls, args

    def __reduce__(self):
        return self.cls, self.args


class TestEquality:
    def test_tables_with_equal_columns_are_equal(self):
        fleet = _fleet()
        copies = {name: column.copy() for name, column in fleet.columns()}
        assert Fleet(**copies, nb=fleet.nb) == fleet
        assert _plan() == _plan()

    def test_one_changed_value_breaks_equality(self):
        fleet = _fleet()
        periods = fleet.periods.copy()
        periods[-1] *= 2
        assert _with(fleet, periods=periods) != fleet
        assert _plan(page_frame=(1, 2, 4)) != _plan()

    def test_nan_equals_nan_in_float_columns(self):
        unknown = _with(_result(), ready_s=np.full(3, np.nan))
        assert unknown == _with(_result(), ready_s=np.full(3, np.nan))
        assert unknown != _result()

    def test_scalar_fields_compare(self):
        result = _result()
        assert replace(result) == result
        assert replace(result, horizon_frames=401) != result
        assert replace(result, mechanism="DA-SC") != result
        profile = result.energy_profile
        louder = EnergyProfile(
            profile.name, profile.voltage_v * 2, dict(profile.current_ma)
        )
        assert replace(result, energy_profile=louder) != result
        assert hash(replace(result, horizon_frames=401)) == hash(result)
        fleet = _fleet()
        assert replace(fleet, nb=NB.HALF_T) != fleet
        assert hash(replace(fleet, nb=NB.HALF_T)) == hash(fleet)

    def test_other_types_never_compare_equal(self):
        fleet = _fleet(3)
        assert fleet.__eq__(tuple(fleet)) is NotImplemented
        assert fleet != tuple(fleet)
        assert fleet != _plan()
        assert _plan() != fleet


class TestHash:
    def test_equal_tables_hash_equal(self):
        fleet = _fleet()
        clone = pickle.loads(pickle.dumps(fleet))
        assert hash(clone) == hash(fleet)
        assert len({fleet, clone}) == 1
        assert hash(_plan()) == hash(_plan())

    def test_signed_zero_and_nan_payloads_hash_as_they_compare(self):
        unknown = _with(_result(), ready_s=np.full(3, np.nan))
        other_nan = (np.full(3, np.nan).view(np.int64) | 1).view(np.float64)
        assert np.isnan(other_nan).all()
        renamed = _with(_result(), ready_s=other_nan)
        assert renamed == unknown
        assert hash(renamed) == hash(unknown)
        zeros, negative_zeros = np.zeros(3), -np.zeros(3)
        assert _with(_result(), wait_s=zeros) == _with(_result(), wait_s=negative_zeros)
        assert hash(_with(_result(), wait_s=zeros)) == hash(
            _with(_result(), wait_s=negative_zeros)
        )


class TestPickle:
    def test_reduce_reruns_the_constructor_on_every_column(self):
        fleet = _fleet(5)
        cls, args = fleet.__reduce__()
        assert cls is Fleet
        assert len(args) == len(COLUMN_NAMES) + 1  # the columns, then nb
        assert cls(*args) == fleet

    def test_forged_fleet_pickle_is_rejected(self):
        fleet = _fleet(5)
        columns = [column for _, column in fleet.columns()]
        columns[1] = columns[1][:3]
        payload = pickle.dumps(_Forged(Fleet, (*columns, fleet.nb)))
        with pytest.raises(FleetError, match="rows"):
            pickle.loads(payload)

    def test_plan_pickle_round_trips_read_only(self):
        clone = pickle.loads(pickle.dumps(_plan()))
        assert clone == _plan()
        for name in PLAN_COLUMNS:
            assert not getattr(clone, name).flags.writeable, name

    def test_result_pickle_round_trips_read_only(self):
        clone = pickle.loads(pickle.dumps(_result()))
        assert clone == _result()
        assert not clone.seconds.flags.writeable
        assert clone.seconds.flags.f_contiguous

    def test_forged_result_pickle_is_rejected(self):
        _, args = _result().__reduce__()
        args = list(args)
        args[3] = args[3][:2]  # wait_s one row short
        payload = pickle.dumps(_Forged(CampaignResult, tuple(args)))
        with pytest.raises(SimulationError, match="wait_s"):
            pickle.loads(payload)

    def test_forged_plan_pickle_is_rejected(self):
        plan = _plan()
        args = [getattr(plan, name) for name in PLAN_COLUMNS]
        args[PLAN_COLUMNS.index("page_frame")] = np.array([1, -2, 3])
        payload = pickle.dumps(_Forged(PlanArrays, tuple(args)))
        with pytest.raises(PlanError, match="negative page frame"):
            pickle.loads(payload)


class TestFrozen:
    def test_columns_cannot_be_rebound(self):
        fleet = _fleet(3)
        with pytest.raises(FrozenInstanceError):
            fleet.phases = np.zeros(3, np.int64)
        with pytest.raises(FrozenInstanceError):
            _plan().device = np.zeros(3, np.int64)
