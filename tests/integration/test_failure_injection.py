"""Failure-injection integration tests.

The paper's evaluation assumes clean channels; these tests exercise the
degraded paths the substrate models: RACH contention and paging-channel
overflow.
"""

import numpy as np
import pytest
from paging_oracle import pattern_of

from repro.core import DrScMechanism, DrSiMechanism, UnicastBaseline
from repro.core.base import PlanningContext
from repro.core.plan import plan_pages
from repro.devices.device import NbIotDevice
from repro.devices.fleet import Fleet
from repro.drx.cycles import DrxCycle
from repro.enb.paging_channel import paging_load
from repro.rrc.procedures import ProcedureTimings
from repro.rrc.random_access import RandomAccessModel
from repro.sim.executor import CampaignExecutor
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import MODERATE_EDRX_MIXTURE


class TestRachContention:
    def test_collisions_increase_connected_uptime(self, rng):
        fleet = generate_fleet(20, MODERATE_EDRX_MIXTURE, rng)
        context = PlanningContext(payload_bytes=100_000)
        plan = UnicastBaseline().plan(fleet, context, rng)

        clean = CampaignExecutor().execute(fleet, plan)
        lossy_timings = ProcedureTimings(
            random_access=RandomAccessModel(
                collision_probability=0.4, backoff_s=0.5
            )
        )
        lossy = CampaignExecutor(timings=lossy_timings).execute(
            fleet, plan, rng=np.random.default_rng(1)
        )
        assert lossy.fleet.connected_s > clean.fleet.connected_s

    def test_collisions_never_lose_devices(self, rng):
        """Retries delay devices; the transmission start slips so nobody
        misses the data."""
        fleet = generate_fleet(15, MODERATE_EDRX_MIXTURE, rng)
        context = PlanningContext(payload_bytes=100_000)
        plan = DrSiMechanism().plan(fleet, context, rng)
        lossy_timings = ProcedureTimings(
            random_access=RandomAccessModel(
                collision_probability=0.5, backoff_s=1.0
            )
        )
        result = CampaignExecutor(timings=lossy_timings).execute(
            fleet, plan, rng=np.random.default_rng(2)
        )
        assert len(result) == len(fleet)
        nominal_start = plan.transmissions[0].frame * 0.010
        assert result.actual_start_s[0] >= nominal_start
        for outcome in result:
            assert outcome.updated_s >= nominal_start

    def test_collision_probability_one_not_allowed(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            RandomAccessModel(collision_probability=1.0)


class TestPagingOverflow:
    def test_colliding_ue_ids_overflow_tiny_capacity(self, rng):
        """Devices sharing IMSI mod 4096 share POs; with capacity 1 the
        report must surface every device past the first rather than drop
        pages — a record names one device, not one UE_ID."""
        devices = [
            NbIotDevice.build(imsi=4096 * k + 99, cycle=DrxCycle(2048))
            for k in range(1, 5)
        ]
        fleet = Fleet.from_devices(devices)
        plan = DrScMechanism().plan(
            fleet, PlanningContext(payload_bytes=100_000), rng
        )
        table = plan_pages(fleet, plan)
        assert np.unique(table.frame).size == 1
        report = paging_load(table, 1)
        assert report.total_pages == 1
        assert report.overflowed == (
            (int(table.frame[0]), pattern_of(fleet[0]).subframe, (1, 2, 3)),
        )
