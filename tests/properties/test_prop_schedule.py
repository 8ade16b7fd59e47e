"""Property-based tests for PO schedules (hypothesis): the per-device
oracle ``PoSchedule`` of ``tests/paging_oracle.py`` and the package's
``v_*`` queries against it."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from paging_oracle import PoSchedule

from repro.drx.schedule import (
    v_count_in,
    v_first_at_or_after,
    v_has_in,
    v_last_before,
)

periods = st.sampled_from([32, 64, 128, 256, 2048, 65536, 1048576])
frames = st.integers(min_value=0, max_value=3_000_000)


@st.composite
def schedules(draw):
    period = draw(periods)
    phase = draw(st.integers(min_value=0, max_value=period - 1))
    return PoSchedule(phase=phase, period=period)


class TestScheduleProperties:
    @given(schedules(), frames)
    def test_first_at_or_after_is_a_po_at_or_after(self, sched, frame):
        po = sched.first_at_or_after(frame)
        assert po >= frame
        assert sched.is_po(po)
        # Nothing earlier (in [frame, po)) is a PO.
        assert sched.count_in(frame, po) == 0

    @given(schedules(), frames)
    def test_last_before_is_the_latest_earlier_po(self, sched, frame):
        po = sched.last_before(frame)
        if po is None:
            assert sched.count_in(0, frame) == 0
        else:
            assert po < frame
            assert sched.is_po(po)
            assert sched.count_in(po + 1, frame) == 0

    @given(schedules(), frames, st.integers(min_value=0, max_value=100_000))
    def test_count_matches_enumeration(self, sched, start, length):
        end = start + length
        count = sched.count_in(start, end)
        assert count == len(sched.pos_in(start, end))
        assert (count > 0) == sched.has_in(start, end)

    @given(schedules(), frames, frames)
    def test_count_additive_over_split(self, sched, a, b):
        lo, hi = min(a, b), max(a, b)
        mid = (lo + hi) // 2
        assert sched.count_in(lo, hi) == sched.count_in(lo, mid) + sched.count_in(
            mid, hi
        )

    @given(schedules(), frames, st.integers(min_value=0, max_value=5))
    def test_nth_after_spacing(self, sched, frame, n):
        assert sched.nth_after(frame, n) == sched.first_at_or_after(
            frame
        ) + n * sched.period


class TestVectorisedAgreesWithScalar:
    @given(
        st.lists(schedules(), min_size=1, max_size=8),
        frames,
        st.integers(min_value=0, max_value=100_000),
    )
    @settings(max_examples=50)
    def test_all_vector_functions(self, scheds, start, length):
        phases = np.array([s.phase for s in scheds])
        per = np.array([s.period for s in scheds])
        end = start + length
        np.testing.assert_array_equal(
            v_first_at_or_after(phases, per, start),
            [s.first_at_or_after(start) for s in scheds],
        )
        expected_last = [
            s.last_before(start) if s.last_before(start) is not None else -1
            for s in scheds
        ]
        np.testing.assert_array_equal(
            v_last_before(phases, per, start), expected_last
        )
        np.testing.assert_array_equal(
            v_count_in(phases, per, start, end),
            [s.count_in(start, end) for s in scheds],
        )
        np.testing.assert_array_equal(
            v_has_in(phases, per, start, end),
            [s.has_in(start, end) for s in scheds],
        )
