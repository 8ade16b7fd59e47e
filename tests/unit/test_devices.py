"""Unit tests for identities, devices, batteries and fleets."""

from dataclasses import fields

import numpy as np
import pytest
from paging_oracle import pattern_for, pattern_of

from repro.devices.battery import Battery
from repro.devices.device import NbIotDevice
from repro.devices.fleet import Fleet
from repro.devices.identity import DeviceIdentity
from repro.devices.profiles import DeviceCategory
from repro.drx.cycles import DrxCycle
from repro.drx.paging import NB
from repro.errors import ConfigurationError, FleetError
from repro.phy.coverage import CoverageClass


class TestIdentity:
    def test_ue_id_is_imsi_mod_4096(self):
        identity = DeviceIdentity(imsi=234_150_000_004_097)
        assert identity.ue_id == 234_150_000_004_097 % 4096

    def test_rejects_bad_imsi(self):
        with pytest.raises(ConfigurationError):
            DeviceIdentity(imsi=0)
        with pytest.raises(ConfigurationError):
            DeviceIdentity(imsi=10**15)

    def test_str_is_padded(self):
        assert str(DeviceIdentity(imsi=42)) == "imsi-000000000000042"


class TestDevice:
    def test_holds_what_a_fleet_row_stores(self):
        assert [f.name for f in fields(NbIotDevice)] == [
            "identity", "cycle", "nb", "coverage", "category", "battery"
        ]

    def test_phase_follows_negotiated_cycle(self):
        cycle = DrxCycle.from_seconds(40.96)
        device = NbIotDevice.build(imsi=7, cycle=cycle, nb=NB.HALF_T)
        fleet = Fleet.from_devices([device])
        assert fleet.phases[0] == pattern_for(7, cycle, NB.HALF_T).phase
        assert fleet[0] == device

    def test_build_wires_identity_cycle_and_nb(self):
        cycle = DrxCycle.from_seconds(20.48)
        device = NbIotDevice.build(imsi=12345, cycle=cycle, nb=NB.QUARTER_T)
        assert device.identity.ue_id == 12345 % 4096
        assert (device.cycle, device.nb) == (cycle, NB.QUARTER_T)

    def test_link_profile(self):
        device = NbIotDevice.build(
            imsi=1, cycle=DrxCycle(2048), coverage=CoverageClass.EXTREME
        )
        assert device.link.downlink_bps == 2000.0


class TestBattery:
    def test_capacity_energy(self):
        battery = Battery(capacity_mah=1000, voltage_v=3.6)
        assert battery.capacity_mj == pytest.approx(1000 * 3.6 * 3600)

    def test_ten_year_life_at_low_current(self):
        """A 5 Ah cell lasts >10 years below ~57 uA average draw."""
        battery = Battery(capacity_mah=5000)
        assert battery.lifetime_years(0.05) > 10.0
        assert battery.lifetime_years(0.10) < 10.0

    def test_fraction_consumed(self):
        battery = Battery(capacity_mah=1000, voltage_v=3.6)
        assert battery.fraction_consumed(battery.capacity_mj / 2) == pytest.approx(0.5)

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            Battery(capacity_mah=0)
        with pytest.raises(ConfigurationError):
            Battery().lifetime_years(0)
        with pytest.raises(ConfigurationError):
            Battery().fraction_consumed(-1)


class TestFleet:
    def _devices(self, n=4):
        return [
            NbIotDevice.build(
                imsi=1000 + i,
                cycle=DrxCycle.from_seconds(20.48 * 2 ** (i % 3)),
            )
            for i in range(n)
        ]

    def test_len_iter_getitem(self):
        fleet = Fleet.from_devices(self._devices())
        assert len(fleet) == 4
        assert fleet[0].identity.imsi == 1000
        assert [d.identity.imsi for d in fleet] == [1000, 1001, 1002, 1003]

    def test_rejects_empty(self):
        with pytest.raises(FleetError):
            Fleet.from_devices([])

    def test_rejects_duplicate_imsi(self):
        device = NbIotDevice.build(imsi=5, cycle=DrxCycle(2048))
        with pytest.raises(FleetError):
            Fleet.from_devices([device, device])

    def test_columnar_views_match_devices(self):
        fleet = Fleet.from_devices(self._devices())
        np.testing.assert_array_equal(
            fleet.phases, [pattern_of(d).phase for d in fleet]
        )
        np.testing.assert_array_equal(
            fleet.periods, [int(d.cycle) for d in fleet]
        )

    def test_columns_are_read_only(self):
        fleet = Fleet.from_devices(self._devices())
        with pytest.raises(ValueError):
            fleet.phases[0] = -99

    def test_max_cycle(self):
        fleet = Fleet.from_devices(self._devices())
        assert int(fleet.max_cycle) == max(int(d.cycle) for d in fleet)

    def test_group_rate_is_minimum(self):
        devices = [
            NbIotDevice.build(imsi=1, cycle=DrxCycle(2048)),
            NbIotDevice.build(
                imsi=2, cycle=DrxCycle(2048), coverage=CoverageClass.ROBUST
            ),
        ]
        fleet = Fleet.from_devices(devices)
        assert fleet.group_rate_bps([0]) == 25000.0
        assert fleet.group_rate_bps([0, 1]) == 10000.0

    def test_group_rate_rejects_empty(self):
        fleet = Fleet.from_devices(self._devices())
        with pytest.raises(FleetError):
            fleet.group_rate_bps([])

    def test_subset(self):
        fleet = Fleet.from_devices(self._devices())
        sub = fleet.subset([1, 3])
        assert len(sub) == 2
        assert sub[0].identity.imsi == 1001

    def test_bad_index_rejected(self):
        fleet = Fleet.from_devices(self._devices())
        with pytest.raises(FleetError):
            fleet.subset([99])


class TestCategories:
    def test_all_categories_have_descriptions(self):
        for category in DeviceCategory:
            assert category.description
