"""Property-based tests for frame arithmetic."""

from hypothesis import given
from hypothesis import strategies as st

from repro.timebase import (
    MS_PER_FRAME,
    frame_at_or_after_ms,
    frames_to_seconds,
    ms_to_frames,
    seconds_to_frames,
)

frames = st.integers(min_value=0, max_value=10_000_000)

#: Instants up to 10^9 ms (~11.6 days of simulated radio time) — far
#: beyond where the old float-epsilon ceiling (`ceil(ms / 10 - 1e-9)`)
#: loses to double-precision ulp and drifts by a frame.
long_horizon_ms = st.integers(min_value=0, max_value=1_000_000_000)


class TestConversionProperties:
    @given(frames)
    def test_ms_roundtrip(self, n):
        assert ms_to_frames(n * MS_PER_FRAME, strict=True) == n

    @given(frames)
    def test_seconds_roundtrip(self, n):
        assert seconds_to_frames(frames_to_seconds(n)) == n

    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_ceiling_never_undershoots_the_subframe_grid(self, ms):
        # The instant snaps to the nearest integer millisecond (the
        # subframe grid), then rounds up to a whole frame: the result is
        # never below the snapped instant nor a full frame above it.
        out_ms = ms_to_frames(ms) * MS_PER_FRAME
        snapped = round(ms)
        assert snapped <= out_ms < snapped + MS_PER_FRAME
        assert out_ms >= ms - 0.5  # at most half a subframe of snapping

    @given(long_horizon_ms)
    def test_matches_exact_integer_path_across_long_horizons(self, ms):
        # Pit the float front-door against the pure-integer path: for
        # every exact integer-ms instant up to 10^9 ms they must agree.
        # The old epsilon ceiling failed this (e.g. at instants a few
        # ulp above a frame boundary the subtraction of 1e-9 underflows
        # and the ceiling overshoots by one frame).
        assert ms_to_frames(float(ms)) == frame_at_or_after_ms(ms)
        assert ms_to_frames(ms) == frame_at_or_after_ms(ms)

    @given(long_horizon_ms, st.integers(min_value=-4, max_value=4))
    def test_float_noise_near_boundaries_cannot_drift(self, ms, ulps):
        # An instant perturbed by a few float ulp must still resolve to
        # the same frame as the exact integer instant.
        import math

        noisy = float(ms)
        step = math.ulp(noisy) if noisy else 5e-324
        noisy = noisy + ulps * step
        if noisy < 0:
            return
        assert ms_to_frames(noisy) == frame_at_or_after_ms(ms)
