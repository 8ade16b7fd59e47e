"""Value objects and ledgers reject inputs they cannot represent.

Each case builds one object (or makes one call) with a bad value and
expects the package's typed error, so a bad parameter fails where it
is given rather than deep inside a run.
"""

import numpy as np
import pytest

from repro.core.base import PlanningContext
from repro.drx.schedule import v_first_at_or_after
from repro.enb.scheduler import CarrierOccupancy
from repro.errors import ConfigurationError, PagingError
from repro.experiments.config import ExperimentConfig
from repro.multicast.scptm import ScPtmConfig
from repro.phy.coverage import CoverageClass, CoverageProfile
from repro.rrc.random_access import RandomAccessOutcome
from repro.setcover.decision import GroupingDecision
from repro.timebase import bits_of

_PROFILE = dict(
    coverage=CoverageClass.NORMAL,
    downlink_bps=20_000.0,
    repetitions=1,
    random_access_seconds=0.35,
)


def _decision(members):
    return GroupingDecision(
        start=[0], end=[10], members=members, bounds=[0, len(members)]
    )


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: PlanningContext(payload_bytes=0), id="empty-payload"),
        pytest.param(
            lambda: PlanningContext(payload_bytes=1, announce_frame=-1),
            id="announce-before-zero",
        ),
        pytest.param(
            lambda: CoverageProfile(**{**_PROFILE, "downlink_bps": 0.0}),
            id="zero-downlink",
        ),
        pytest.param(
            lambda: CoverageProfile(**{**_PROFILE, "repetitions": 0}),
            id="zero-repetitions",
        ),
        pytest.param(
            lambda: CoverageProfile(**{**_PROFILE, "random_access_seconds": 0.0}),
            id="zero-random-access",
        ),
        pytest.param(
            lambda: RandomAccessOutcome(attempts=0, duration_s=0.35),
            id="no-attempt",
        ),
        pytest.param(
            lambda: RandomAccessOutcome(attempts=1, duration_s=0.0),
            id="instant-access",
        ),
        pytest.param(
            lambda: ScPtmConfig(mcch_repetition_period_s=0.0), id="mcch-period"
        ),
        pytest.param(lambda: ScPtmConfig(mcch_monitor_s=0.0), id="mcch-monitor"),
        pytest.param(
            lambda: ExperimentConfig(device_counts=()), id="no-device-counts"
        ),
        pytest.param(
            lambda: ExperimentConfig(device_counts=(10, 0)),
            id="empty-fleet-size",
        ),
        pytest.param(
            lambda: CarrierOccupancy().add("a", 100, 0), id="empty-window"
        ),
        pytest.param(lambda: bits_of(-1), id="negative-bytes"),
        pytest.param(
            lambda: _decision([0, 1]).validate_partition(3), id="device-missing"
        ),
        pytest.param(
            lambda: _decision([0, 3]).validate_partition(2), id="unknown-device"
        ),
    ],
)
def test_rejects_unrepresentable_values(build):
    with pytest.raises(ConfigurationError):
        build()


@pytest.mark.parametrize(
    "phases, periods",
    [
        pytest.param([0, 1], [32], id="shape-mismatch"),
        pytest.param([0], [0], id="zero-period"),
    ],
)
def test_schedule_kernels_reject_bad_columns(phases, periods):
    with pytest.raises(PagingError):
        v_first_at_or_after(np.array(phases), np.array(periods), 0)
