"""NB-IoT PHY/link-layer timing model.

NB-IoT trades throughput for coverage: deep-coverage devices repeat every
transmission many times, which lowers their sustained data rate by an
order of magnitude or more. The grouping mechanisms never look below
this abstraction — they only need *how long does sending X bytes to this
device (or group) take* and *how long do the control procedures take*,
which is exactly what this package answers.
"""

from repro.phy.coverage import CoverageClass, CoverageProfile, PROFILES
from repro.phy.airtime import (
    AirtimeModel,
    DEFAULT_AIRTIME_MODEL,
    payload_airtime_frames,
    payload_airtime_seconds,
)

__all__ = [
    "CoverageClass",
    "CoverageProfile",
    "PROFILES",
    "AirtimeModel",
    "DEFAULT_AIRTIME_MODEL",
    "payload_airtime_frames",
    "payload_airtime_seconds",
]
