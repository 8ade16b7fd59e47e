"""Unit tests for coverage classes and airtime computation."""

import pytest

from repro.errors import ConfigurationError
from repro.phy.airtime import (
    DEFAULT_AIRTIME_MODEL,
    AirtimeModel,
    payload_airtime_frames,
    payload_airtime_seconds,
)
from repro.phy.coverage import PROFILES, CoverageClass, CoverageProfile


class TestCoverage:
    def test_three_ce_levels(self):
        assert {c.ce_level for c in CoverageClass} == {0, 1, 2}

    def test_rates_degrade_with_coverage(self):
        assert (
            PROFILES[CoverageClass.NORMAL].downlink_bps
            > PROFILES[CoverageClass.ROBUST].downlink_bps
            > PROFILES[CoverageClass.EXTREME].downlink_bps
        )

    def test_random_access_slows_with_coverage(self):
        assert (
            PROFILES[CoverageClass.NORMAL].random_access_seconds
            < PROFILES[CoverageClass.ROBUST].random_access_seconds
            < PROFILES[CoverageClass.EXTREME].random_access_seconds
        )

    def test_repetitions_grow_with_coverage(self):
        assert PROFILES[CoverageClass.NORMAL].repetitions == 1
        assert PROFILES[CoverageClass.EXTREME].repetitions > 1

    def test_invalid_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            CoverageProfile(
                coverage=CoverageClass.NORMAL,
                downlink_bps=0,
                repetitions=1,
                random_access_seconds=1,
            )


class TestAirtime:
    def test_payload_airtime_seconds(self):
        # 100 KB at 25 kbps = 32 s.
        assert payload_airtime_seconds(100_000, 25_000) == pytest.approx(32.0)

    def test_paper_payload_durations(self):
        """Sanity: the three paper payloads at the normal-coverage rate."""
        rate = PROFILES[CoverageClass.NORMAL].downlink_bps
        assert payload_airtime_seconds(100_000, rate) == pytest.approx(32.0)
        assert payload_airtime_seconds(1_000_000, rate) == pytest.approx(320.0)
        assert payload_airtime_seconds(10_000_000, rate) == pytest.approx(3200.0)

    def test_payload_airtime_frames_ceils(self):
        assert payload_airtime_frames(100_000, 25_000) == 3200
        assert payload_airtime_frames(1, 25_000) == 1

    def test_zero_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            payload_airtime_frames(100, 0)


class TestAirtimeModel:
    def test_defaults_positive(self):
        model = DEFAULT_AIRTIME_MODEL
        assert model.po_monitor_s == pytest.approx(0.010)
        assert model.paging_message_s == pytest.approx(0.030)
        assert model.extended_paging_s > model.paging_message_s

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            AirtimeModel(po_monitor_ms=-1)

    def test_second_views(self):
        model = AirtimeModel(rrc_setup_ms=200)
        assert model.rrc_setup_s == pytest.approx(0.2)
