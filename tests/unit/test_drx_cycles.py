"""Unit tests for the DRX cycle ladder."""

import pytest

from repro.drx.cycles import (
    EDRX_LADDER,
    FULL_LADDER,
    LTE_DRX_LADDER,
    NBIOT_IDLE_LADDER,
    DrxCycle,
)
from repro.errors import LadderError


class TestLadderMembership:
    def test_paper_edrx_range(self):
        """eDRX spans 20.48 s to ~175 minutes (paper Sec. II-B)."""
        assert EDRX_LADDER[0].seconds == pytest.approx(20.48)
        assert EDRX_LADDER[-1].seconds == pytest.approx(10485.76)
        assert EDRX_LADDER[-1].seconds / 60 == pytest.approx(174.76, abs=0.01)

    def test_lte_range(self):
        """LTE DRX spans 0.32 s to 2.56 s (paper Sec. II-B)."""
        assert LTE_DRX_LADDER[0].seconds == pytest.approx(0.32)
        assert LTE_DRX_LADDER[-1].seconds == pytest.approx(2.56)

    def test_nbiot_idle_range(self):
        assert NBIOT_IDLE_LADDER[0].seconds == pytest.approx(1.28)
        assert NBIOT_IDLE_LADDER[-1].seconds == pytest.approx(10.24)

    def test_every_value_doubles(self):
        """'DRX values are always twice as long as the immediately
        shorter DRX value' (paper Sec. II-B)."""
        for shorter, longer in zip(FULL_LADDER, FULL_LADDER[1:]):
            assert int(longer) == 2 * int(shorter)

    def test_paper_doubling_example(self):
        """Paper: 20.48 -> 40.96 -> 81.92 ... -> 10485.76."""
        values = [c.seconds for c in EDRX_LADDER]
        assert values[:3] == pytest.approx([20.48, 40.96, 81.92])
        assert values[-1] == pytest.approx(10485.76)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(LadderError):
            DrxCycle(3000)

    def test_out_of_range_rejected(self):
        with pytest.raises(LadderError):
            DrxCycle(16)
        with pytest.raises(LadderError):
            DrxCycle(2 * DrxCycle.MAX_FRAMES)

    def test_from_seconds(self):
        assert int(DrxCycle.from_seconds(20.48)) == 2048

    def test_from_seconds_rejects_off_ladder(self):
        with pytest.raises(LadderError):
            DrxCycle.from_seconds(21.0)


class TestLadderNavigation:
    def test_shorter_longer_roundtrip(self):
        cycle = DrxCycle.from_seconds(81.92)
        assert cycle.shorter().longer() == cycle

    def test_shorter_at_bottom_raises(self):
        with pytest.raises(LadderError):
            DrxCycle(DrxCycle.MIN_FRAMES).shorter()

    def test_longer_at_top_raises(self):
        with pytest.raises(LadderError):
            DrxCycle(DrxCycle.MAX_FRAMES).longer()

    def test_divides(self):
        short = DrxCycle.from_seconds(20.48)
        long = DrxCycle.from_seconds(163.84)
        assert short.divides(long)
        assert not long.divides(short)


class TestClassification:
    def test_int_arithmetic_works(self):
        cycle = DrxCycle.from_seconds(20.48)
        assert cycle * 2 == 4096
        assert 10000 % cycle == 10000 % 2048
