"""Unit tests for power states, profiles and ledgers."""

import pickle

import pytest

from repro.energy.ledger import UptimeLedger
from repro.energy.profiles import DEFAULT_PROFILE, EnergyProfile
from repro.energy.states import STATE_GROUPS, PowerState, StateGroup
from repro.errors import ConfigurationError


class TestStates:
    def test_every_state_has_a_group(self):
        assert set(STATE_GROUPS) == set(PowerState)

    def test_paper_grouping(self):
        """Light sleep = PO monitoring + paging RX; connected = RA,
        signalling, waiting, data (paper Sec. IV-A)."""
        light = {s for s, g in STATE_GROUPS.items() if g is StateGroup.LIGHT_SLEEP}
        assert light == {PowerState.PO_MONITOR, PowerState.PAGING_RX}
        connected = {s for s, g in STATE_GROUPS.items() if g is StateGroup.CONNECTED}
        assert PowerState.RANDOM_ACCESS in connected
        assert PowerState.CONNECTED_WAIT in connected
        assert PowerState.CONNECTED_RX in connected


class TestProfile:
    def test_connected_order_of_magnitude_above_light_sleep(self):
        """The paper's refs [12,13]: connected-mode energy is an order
        of magnitude above light sleep."""
        light = DEFAULT_PROFILE.current_ma[PowerState.PO_MONITOR]
        connected = DEFAULT_PROFILE.current_ma[PowerState.CONNECTED_RX]
        assert connected >= 3 * light
        assert DEFAULT_PROFILE.current_ma[PowerState.CONNECTED_TX] >= 10 * light

    def test_energy_linear_in_time(self):
        e1 = DEFAULT_PROFILE.energy_mj(PowerState.CONNECTED_RX, 1.0)
        e2 = DEFAULT_PROFILE.energy_mj(PowerState.CONNECTED_RX, 2.0)
        assert e2 == pytest.approx(2 * e1)

    def test_power_mw(self):
        assert DEFAULT_PROFILE.power_mw(PowerState.CONNECTED_RX) == pytest.approx(
            46.0 * 3.6
        )

    def test_missing_state_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyProfile(name="bad", voltage_v=3.6, current_ma={})

    def test_negative_current_rejected(self):
        currents = dict(DEFAULT_PROFILE.current_ma)
        currents[PowerState.DEEP_SLEEP] = -1.0
        with pytest.raises(ConfigurationError):
            EnergyProfile(name="bad", voltage_v=3.6, current_ma=currents)

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            DEFAULT_PROFILE.energy_mj(PowerState.DEEP_SLEEP, -1.0)


class TestLedger:
    def test_seconds_per_state(self):
        ledger = UptimeLedger({PowerState.PO_MONITOR: 0.75})
        assert ledger.seconds_in(PowerState.PO_MONITOR) == 0.75
        assert ledger.seconds_in(PowerState.CONNECTED_RX) == 0.0
        assert UptimeLedger() == UptimeLedger(
            {state: 0.0 for state in PowerState}
        )

    def test_totals_split(self):
        ledger = UptimeLedger({
            PowerState.PO_MONITOR: 1.0,
            PowerState.PAGING_RX: 0.5,
            PowerState.CONNECTED_RX: 3.0,
            PowerState.DEEP_SLEEP: 100.0,
        })
        totals = ledger.totals
        assert totals.light_sleep_s == pytest.approx(1.5)
        assert totals.connected_s == pytest.approx(3.0)
        assert totals.sleep_s == pytest.approx(100.0)
        assert totals.uptime_s == pytest.approx(4.5)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            UptimeLedger({PowerState.PO_MONITOR: -0.1})

    def test_value_equality_and_hash(self):
        ledger = UptimeLedger({PowerState.CONNECTED_RX: 2.0})
        assert ledger == UptimeLedger({PowerState.CONNECTED_RX: 2.0})
        assert hash(ledger) == hash(UptimeLedger({PowerState.CONNECTED_RX: 2.0}))
        assert ledger != UptimeLedger({PowerState.CONNECTED_RX: 2.5})
        assert ledger != UptimeLedger({PowerState.PAGING_RX: 2.0})
        assert len({ledger, UptimeLedger({PowerState.CONNECTED_RX: 2.0})}) == 1

    def test_immutable_and_picklable(self):
        ledger = UptimeLedger({PowerState.CONNECTED_RX: 2.0})
        with pytest.raises(AttributeError):
            ledger._seconds = ()
        assert not hasattr(ledger, "add")
        assert pickle.loads(pickle.dumps(ledger)) == ledger

    def test_energy_uses_profile(self):
        ledger = UptimeLedger({PowerState.CONNECTED_RX: 2.0})
        expected = DEFAULT_PROFILE.energy_mj(PowerState.CONNECTED_RX, 2.0)
        assert ledger.energy_mj() == pytest.approx(expected)
