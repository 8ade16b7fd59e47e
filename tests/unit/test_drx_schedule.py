"""Unit tests for the vectorised PO window queries and their oracle.

``PoSchedule`` is the per-device oracle in ``tests/paging_oracle.py``;
``TestPoSchedule`` checks it, ``TestVectorised`` checks the package's
``v_*`` queries against it.
"""

import numpy as np
import pytest
from paging_oracle import PoSchedule

from repro.drx.schedule import (
    v_count_in,
    v_first_at_or_after,
    v_has_in,
    v_last_at_or_before,
    v_last_before,
    v_pos_in_window,
)
from repro.errors import PagingError


class TestPoSchedule:
    def test_first_at_or_after(self):
        sched = PoSchedule(phase=5, period=10)
        assert sched.first_at_or_after(0) == 5
        assert sched.first_at_or_after(5) == 5
        assert sched.first_at_or_after(6) == 15
        assert sched.first_at_or_after(15) == 15

    def test_last_before(self):
        sched = PoSchedule(phase=5, period=10)
        assert sched.last_before(5) is None
        assert sched.last_before(6) == 5
        assert sched.last_before(15) == 5
        assert sched.last_before(16) == 15

    def test_last_at_or_before(self):
        sched = PoSchedule(phase=5, period=10)
        assert sched.last_at_or_before(4) is None
        assert sched.last_at_or_before(5) == 5
        assert sched.last_at_or_before(14) == 5

    def test_is_po(self):
        sched = PoSchedule(phase=5, period=10)
        assert sched.is_po(5)
        assert sched.is_po(25)
        assert not sched.is_po(6)
        assert not sched.is_po(0)

    def test_count_in(self):
        sched = PoSchedule(phase=5, period=10)
        assert sched.count_in(0, 50) == 5  # 5, 15, 25, 35, 45
        assert sched.count_in(5, 6) == 1
        assert sched.count_in(6, 15) == 0
        assert sched.count_in(10, 10) == 0
        assert sched.count_in(20, 10) == 0

    def test_has_in(self):
        sched = PoSchedule(phase=5, period=10)
        assert sched.has_in(0, 6)
        assert not sched.has_in(6, 15)

    def test_pos_in(self):
        sched = PoSchedule(phase=5, period=10)
        np.testing.assert_array_equal(sched.pos_in(0, 40), [5, 15, 25, 35])
        assert sched.pos_in(6, 15).size == 0
        assert sched.pos_in(10, 5).size == 0

    def test_nth_after(self):
        sched = PoSchedule(phase=5, period=10)
        assert sched.nth_after(0, 0) == 5
        assert sched.nth_after(0, 3) == 35

    def test_nth_after_rejects_negative(self):
        with pytest.raises(PagingError):
            PoSchedule(phase=0, period=10).nth_after(0, -1)

    def test_invalid_phase_rejected(self):
        with pytest.raises(PagingError):
            PoSchedule(phase=10, period=10)
        with pytest.raises(PagingError):
            PoSchedule(phase=-1, period=10)

    def test_invalid_period_rejected(self):
        with pytest.raises(PagingError):
            PoSchedule(phase=0, period=0)


class TestVectorised:
    def setup_method(self):
        self.phases = np.array([5, 0, 7])
        self.periods = np.array([10, 4, 20])

    def test_v_first_at_or_after_matches_scalar(self):
        result = v_first_at_or_after(self.phases, self.periods, 13)
        expected = [
            PoSchedule(5, 10).first_at_or_after(13),
            PoSchedule(0, 4).first_at_or_after(13),
            PoSchedule(7, 20).first_at_or_after(13),
        ]
        np.testing.assert_array_equal(result, expected)

    def test_v_last_before_matches_scalar(self):
        result = v_last_before(self.phases, self.periods, 13)
        np.testing.assert_array_equal(result, [5, 12, 7])

    def test_v_last_before_flags_missing(self):
        result = v_last_before(np.array([5]), np.array([10]), 3)
        assert result[0] == -1

    def test_v_last_at_or_before_per_device_bounds(self):
        frames = np.array([15, 3, 6])
        result = v_last_at_or_before(self.phases, self.periods, frames)
        expected = [
            PoSchedule(int(p), int(t)).last_at_or_before(int(f))
            for p, t, f in zip(self.phases, self.periods, frames)
        ]
        assert result.tolist() == [-1 if e is None else e for e in expected]
        assert result.tolist() == [15, 0, -1]

    def test_v_count_in_matches_scalar(self):
        result = v_count_in(self.phases, self.periods, 3, 28)
        expected = [
            PoSchedule(5, 10).count_in(3, 28),
            PoSchedule(0, 4).count_in(3, 28),
            PoSchedule(7, 20).count_in(3, 28),
        ]
        np.testing.assert_array_equal(result, expected)

    def test_v_has_in(self):
        result = v_has_in(self.phases, self.periods, 6, 7)
        np.testing.assert_array_equal(result, [False, False, False])

    def test_v_pos_in_window_covers_everything(self):
        devices, frames = v_pos_in_window(self.phases, self.periods, 0, 30)
        assert devices.size == frames.size
        for d, f in zip(devices, frames):
            assert PoSchedule(
                int(self.phases[d]), int(self.periods[d])
            ).is_po(int(f))
        # Frames are sorted.
        assert np.all(np.diff(frames) >= 0)
        # Every scalar PO appears.
        total = sum(
            PoSchedule(int(p), int(t)).count_in(0, 30)
            for p, t in zip(self.phases, self.periods)
        )
        assert devices.size == total

    def test_v_pos_in_window_empty(self):
        devices, frames = v_pos_in_window(self.phases, self.periods, 10, 10)
        assert devices.size == 0 and frames.size == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(PagingError):
            v_count_in(np.array([1, 2]), np.array([10]), 0, 5)

    def test_bad_phase_rejected(self):
        with pytest.raises(PagingError):
            v_count_in(np.array([10]), np.array([10]), 0, 5)
