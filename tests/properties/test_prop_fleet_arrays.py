"""Round-trip properties of the columnar fleet representation.

For arbitrary well-formed fleets (one nB per fleet), device objects and
``Fleet`` columns must convert into each other losslessly (a row view
equals the device it was captured from, less its battery, which the
fleet does not store), and index-slicing must commute with the
conversions. These are the invariants that make the columnar form
*canonical*: anything provable about the columns holds for the views.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st
from paging_oracle import pattern_of

from repro.devices import Battery, Fleet, NbIotDevice
from repro.devices.fleet import CATEGORY_ORDER, COVERAGE_ORDER
from repro.devices.identity import DeviceIdentity
from repro.drx.cycles import FULL_LADDER
from repro.drx.paging import NB

_NB_MEMBERS = tuple(NB)


@st.composite
def device_rows(draw, nb):
    imsi = draw(st.integers(min_value=1, max_value=10**15 - 1))
    cycle = draw(st.sampled_from(FULL_LADDER))
    battery = None
    if draw(st.booleans()):
        battery = Battery(
            capacity_mah=draw(
                st.floats(min_value=10.0, max_value=20_000.0)
            ),
            voltage_v=draw(st.floats(min_value=1.0, max_value=12.0)),
        )
    return NbIotDevice(
        identity=DeviceIdentity(imsi),
        cycle=cycle,
        nb=nb,
        coverage=draw(st.sampled_from(COVERAGE_ORDER)),
        category=draw(st.sampled_from(CATEGORY_ORDER)),
        battery=battery,
    )


@st.composite
def fleets(draw, max_size=60):
    devices = draw(
        st.lists(
            device_rows(draw(st.sampled_from(_NB_MEMBERS))),
            min_size=1,
            max_size=max_size,
            unique_by=lambda d: d.identity.imsi,
        )
    )
    return tuple(devices)


def _stored(devices):
    """``devices`` as a fleet stores them: without their batteries."""
    return tuple(replace(device, battery=None) for device in devices)


class TestFleetRoundTrip:
    @given(fleets())
    @settings(max_examples=60, deadline=None)
    def test_arrays_fleet_arrays_is_identity(self, devices):
        fleet = Fleet.from_devices(devices)
        assert Fleet.from_devices(tuple(fleet)) == fleet

    @given(fleets())
    @settings(max_examples=60, deadline=None)
    def test_device_views_match_source_objects(self, devices):
        fleet = Fleet.from_devices(devices)
        assert len(fleet) == len(devices)
        assert tuple(fleet) == _stored(devices)

    @given(fleets())
    @settings(max_examples=60, deadline=None)
    def test_phases_match_the_scalar_oracle(self, devices):
        fleet = Fleet.from_devices(devices)
        assert fleet.phases.tolist() == [pattern_of(d).phase for d in devices]

    @given(fleets(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_take_commutes_with_subset(self, devices, data):
        fleet = Fleet.from_devices(devices)
        indices = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(devices) - 1),
                min_size=1,
                max_size=len(devices),
                unique=True,
            )
        )
        sub = fleet.subset(indices)
        assert sub == Fleet.from_devices([devices[i] for i in indices])
        assert tuple(sub) == _stored(devices[i] for i in indices)
