"""Unit tests for the analytical helpers."""

import pytest
from theory_oracle import (
    expected_connected_increase,
    expected_wait_s,
    expected_window_coverage,
    greedy_approximation_bound,
    unicast_connected_s,
)

from repro.errors import ConfigurationError
from repro.traffic.mixtures import SHORT_EDRX_MIXTURE


class TestTheory:
    def test_expected_wait_is_half_ti(self):
        assert expected_wait_s(20.48) == pytest.approx(10.24)

    def test_window_coverage_short_fleet(self):
        """Every short-eDRX cycle <= 163.84 s; a 20.48 s window covers a
        device with probability TI/T."""
        coverage = expected_window_coverage(100, 20.48, SHORT_EDRX_MIXTURE)
        expected = 100 * 0.25 * sum(
            20.48 / t for t in (20.48, 40.96, 81.92, 163.84)
        )
        assert coverage == pytest.approx(expected)

    def test_window_coverage_caps_probability_at_one(self):
        coverage = expected_window_coverage(10, 1000.0, SHORT_EDRX_MIXTURE)
        assert coverage == pytest.approx(10.0)

    def test_greedy_bound_is_harmonic(self):
        assert greedy_approximation_bound(1) == pytest.approx(1.0)
        assert greedy_approximation_bound(3) == pytest.approx(1 + 0.5 + 1 / 3)

    def test_unicast_connected_time(self):
        # RA 0.35 + setup 0.12 + 32 s payload + release 0.04.
        total = unicast_connected_s(100_000)
        assert total == pytest.approx(0.35 + 0.12 + 32.0 + 0.04)

    def test_connected_increase_shrinks_with_payload(self):
        """Paper Fig. 6(b): relative overhead negligible above 1 MB."""
        small = expected_connected_increase(100_000, 20.48)
        large = expected_connected_increase(10_000_000, 20.48)
        assert small > large
        assert large < 0.01

    def test_extra_signalling_raises_increase(self):
        base = expected_connected_increase(100_000, 20.48)
        dasc = expected_connected_increase(
            100_000, 20.48, extra_signalling_s=0.9
        )
        assert dasc > base

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            expected_wait_s(0)
        with pytest.raises(ConfigurationError):
            expected_window_coverage(0, 20.48, SHORT_EDRX_MIXTURE)
        with pytest.raises(ConfigurationError):
            greedy_approximation_bound(0)
