"""NB-IoT device and fleet modelling.

A device couples an identity (from which its paging occasions derive),
a DRX configuration, a coverage class and a category. A fleet,
:class:`~repro.devices.fleet.Fleet`, is one frozen struct-of-arrays
with a row per device: the planners read its columns, and indexing it
builds :class:`~repro.devices.device.NbIotDevice` views of its rows.
:class:`~repro.devices.sharedmem.SharedFleet` maps the same columns
into POSIX shared memory so every worker of a campaign shares one
physical fleet.
"""

from repro.devices.identity import DeviceIdentity
from repro.devices.profiles import DeviceCategory
from repro.devices.battery import Battery
from repro.devices.device import NbIotDevice
from repro.devices.fleet import CATEGORY_ORDER, COVERAGE_ORDER, Fleet
from repro.devices.sharedmem import (
    SharedFleet,
    SharedFleetDescriptor,
    unlink_descriptor,
)

__all__ = [
    "DeviceIdentity",
    "DeviceCategory",
    "Battery",
    "NbIotDevice",
    "Fleet",
    "SharedFleet",
    "SharedFleetDescriptor",
    "unlink_descriptor",
    "COVERAGE_ORDER",
    "CATEGORY_ORDER",
]
