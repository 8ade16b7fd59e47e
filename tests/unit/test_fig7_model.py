"""Unit tests for the analytical Fig. 7 mean-field model."""

import numpy as np
import pytest
from fig7_oracle import (
    expected_greedy_transmissions,
    transmissions_curve,
)

from repro.errors import ConfigurationError
from repro.setcover.greedy import greedy_window_cover
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import (
    PAPER_DEFAULT_MIXTURE,
    SHORT_EDRX_MIXTURE,
)


class TestMeanFieldModel:
    def test_monotone_in_devices(self):
        curve = transmissions_curve([100, 500, 1000], PAPER_DEFAULT_MIXTURE, 20.48)
        assert curve[100] < curve[500] < curve[1000]

    def test_sublinear_in_devices(self):
        curve = transmissions_curve([100, 1000], PAPER_DEFAULT_MIXTURE, 20.48)
        assert curve[1000] / curve[100] < 10.0

    def test_short_fleet_needs_few_transmissions(self):
        value = expected_greedy_transmissions(200, SHORT_EDRX_MIXTURE, 20.48)
        assert value < 30

    def test_wider_window_needs_fewer(self):
        narrow = expected_greedy_transmissions(300, PAPER_DEFAULT_MIXTURE, 10.24)
        wide = expected_greedy_transmissions(300, PAPER_DEFAULT_MIXTURE, 30.72)
        assert wide < narrow

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            expected_greedy_transmissions(0, PAPER_DEFAULT_MIXTURE, 20.48)
        with pytest.raises(ConfigurationError):
            expected_greedy_transmissions(10, PAPER_DEFAULT_MIXTURE, 0)


class TestModelTracksSimulation:
    @pytest.mark.parametrize("n_devices", [100, 300])
    def test_within_factor_of_monte_carlo(self, n_devices):
        """The independent analysis must land within ~50% of the sim —
        a regression guard on the sweep-line and the mixture, not a
        precision claim."""
        predicted = expected_greedy_transmissions(
            n_devices, PAPER_DEFAULT_MIXTURE, 20.48
        )
        measured = []
        for seed in range(4):
            rng = np.random.default_rng(9000 + seed)
            fleet = generate_fleet(n_devices, PAPER_DEFAULT_MIXTURE, rng)
            cover = greedy_window_cover(
                fleet.phases, fleet.periods, 2048, 0,
                2 * int(fleet.periods.max()), rng,
            )
            measured.append(cover.n_groups)
        mean_measured = float(np.mean(measured))
        assert 0.5 <= predicted / mean_measured <= 2.0, (
            f"model {predicted:.1f} vs sim {mean_measured:.1f}"
        )
