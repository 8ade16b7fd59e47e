"""Unit tests for RRC random access, procedures and timers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.phy.coverage import CoverageClass
from repro.rrc.procedures import ProcedureTimings
from repro.rrc.random_access import RandomAccessModel
from repro.rrc.timers import T322Timer


class TestT322:
    def test_duration(self):
        timer = T322Timer(armed_at_frame=10, expires_at_frame=110)
        assert timer.duration_frames == 100

    def test_must_expire_after_armed(self):
        with pytest.raises(ConfigurationError):
            T322Timer(armed_at_frame=10, expires_at_frame=10)


class TestRandomAccess:
    def test_deterministic_without_collisions(self):
        model = RandomAccessModel()
        outcome = model.perform(CoverageClass.NORMAL)
        assert outcome.attempts == 1
        assert outcome.duration_s == pytest.approx(0.35)

    def test_coverage_scales_duration(self):
        model = RandomAccessModel()
        assert (
            model.perform(CoverageClass.EXTREME).duration_s
            > model.perform(CoverageClass.NORMAL).duration_s
        )

    def test_collisions_need_rng(self):
        model = RandomAccessModel(collision_probability=0.5)
        with pytest.raises(ConfigurationError):
            model.perform(CoverageClass.NORMAL)

    def test_collisions_retry(self):
        model = RandomAccessModel(collision_probability=0.5)
        rng = np.random.default_rng(3)
        outcomes = [model.perform(CoverageClass.NORMAL, rng) for _ in range(200)]
        attempts = [o.attempts for o in outcomes]
        assert max(attempts) > 1
        # Retried procedures take longer than the collision-free base.
        retried = [o for o in outcomes if o.attempts > 1]
        assert all(o.duration_s > 0.35 for o in retried)

    def test_gives_up_after_max_attempts(self):
        model = RandomAccessModel(collision_probability=0.99, max_attempts=3)
        rng = np.random.default_rng(0)
        with pytest.raises(SimulationError):
            for _ in range(200):
                model.perform(CoverageClass.NORMAL, rng)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            RandomAccessModel(collision_probability=1.0)
        with pytest.raises(ConfigurationError):
            RandomAccessModel(backoff_s=-1)
        with pytest.raises(ConfigurationError):
            RandomAccessModel(max_attempts=0)


class TestProcedures:
    def test_connection_setup_composition(self):
        timings = ProcedureTimings()
        total = timings.connection_setup_s(CoverageClass.NORMAL)
        assert total == pytest.approx(0.35 + 0.12)

    def test_adaptation_episode_composition(self):
        """Page -> RA -> setup -> reconfiguration -> immediate release."""
        timings = ProcedureTimings()
        episode = timings.adaptation_episode_s(CoverageClass.NORMAL)
        assert episode == pytest.approx(0.35 + 0.12 + 0.08 + 0.04)

    def test_restore_is_single_reconfiguration(self):
        timings = ProcedureTimings()
        assert timings.restore_s() == pytest.approx(0.08)
        assert timings.release_s() == pytest.approx(0.04)
