"""Unit tests for frame arithmetic and unit conversions."""

import pytest

from repro.errors import ConfigurationError, TimebaseError
from repro.timebase import (
    FRAMES_PER_HYPERFRAME,
    MS_PER_FRAME,
    format_bytes,
    format_duration,
    frame_at_or_after_ms,
    frames_to_seconds,
    ms_to_frames,
    seconds_to_frames,
    seconds_to_nearest_ms,
)


class TestConversions:
    def test_frame_is_ten_ms(self):
        assert MS_PER_FRAME == 10
        assert frames_to_seconds(100) == 1.0

    def test_hyperframe_is_1024_frames(self):
        assert FRAMES_PER_HYPERFRAME == 1024
        assert frames_to_seconds(FRAMES_PER_HYPERFRAME) == pytest.approx(10.24)

    def test_ms_to_frames_rounds_up(self):
        assert ms_to_frames(0) == 0
        assert ms_to_frames(1) == 1
        assert ms_to_frames(10) == 1
        assert ms_to_frames(11) == 2

    def test_ms_to_frames_snaps_float_noise_to_subframe_grid(self):
        # Instants within half a subframe of an integer millisecond
        # resolve to that millisecond before the frame ceiling — the
        # old epsilon ceiling charged a whole extra frame here.
        assert ms_to_frames(10.0000001) == 1
        assert ms_to_frames(1e9 + 1e-6) == 100_000_000
        assert ms_to_frames(9.9999999) == 1

    def test_ms_to_frames_strict_accepts_exact(self):
        assert ms_to_frames(20, strict=True) == 2

    def test_ms_to_frames_strict_rejects_fractional(self):
        with pytest.raises(TimebaseError):
            ms_to_frames(15, strict=True)

    def test_seconds_to_frames_paper_values(self):
        assert seconds_to_frames(20.48, strict=True) == 2048
        assert seconds_to_frames(10485.76, strict=True) == 1_048_576

    def test_negative_duration_rejected(self):
        with pytest.raises(TimebaseError):
            ms_to_frames(-1)

    def test_roundtrip(self):
        for frames in (0, 1, 7, 1024, 99999):
            assert ms_to_frames(frames * MS_PER_FRAME, strict=True) == frames


class TestMillisecondHelpers:
    def test_frame_at_or_after_exact_boundaries(self):
        assert frame_at_or_after_ms(0) == 0
        assert frame_at_or_after_ms(10) == 1
        assert frame_at_or_after_ms(11) == 2
        assert frame_at_or_after_ms(19) == 2
        assert frame_at_or_after_ms(20) == 2

    def test_nearest_ms_absorbs_float_noise(self):
        assert seconds_to_nearest_ms(0.01) == 10
        assert seconds_to_nearest_ms(0.010000000000001) == 10
        assert seconds_to_nearest_ms(0.009999999999999) == 10

    def test_no_drift_on_long_horizons(self):
        """The bug the fixed-epsilon version had: a frame-boundary time
        far from zero must still round to its own frame, because float
        representation error grows with magnitude but stays far below
        half a millisecond."""
        for frame in (1, 123_456, 10**7, 10**9):
            boundary_s = frames_to_seconds(frame)
            assert frame_at_or_after_ms(seconds_to_nearest_ms(boundary_s)) == frame

    def test_negative_instants_rejected(self):
        with pytest.raises(TimebaseError):
            seconds_to_nearest_ms(-0.001)
        with pytest.raises(TimebaseError):
            frame_at_or_after_ms(-1)


class TestFormatting:
    def test_format_bytes_paper_sizes(self):
        assert format_bytes(100_000) == "100KB"
        assert format_bytes(1_000_000) == "1MB"
        assert format_bytes(10_000_000) == "10MB"

    def test_format_bytes_odd_value(self):
        assert format_bytes(1234) == "1234B"

    def test_format_bytes_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            format_bytes(-1)

    def test_format_duration_ranges(self):
        assert format_duration(0.08) == "80ms"
        assert format_duration(12.5) == "12.5s"
        assert format_duration(200) == "3m20s"
        assert format_duration(3724) == "1h02m"


class TestSingleSourceOfFrameDuration:
    def test_no_literal_frame_second_conversions_outside_timebase(self):
        """Grep-style regression guard: frame->seconds conversions must
        go through repro.timebase (frames_to_seconds and friends), never
        a hardcoded ``* 0.010``. Literal 10 ms *durations* (e.g. a PO
        monitor interval default) are fine; multiplying by the literal
        is the smell this test forbids."""
        import re
        from pathlib import Path

        import repro

        package_root = Path(repro.__file__).parent
        conversion = re.compile(r"(\*\s*0\.010\b)|(\b0\.010\s*\*)")
        offenders = []
        for path in sorted(package_root.rglob("*.py")):
            if "timebase" in path.relative_to(package_root).parts:
                continue  # the one module allowed to own the constant
            for line_number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1
            ):
                if conversion.search(line):
                    offenders.append(
                        f"{path.relative_to(package_root)}:{line_number}: "
                        f"{line.strip()}"
                    )
        assert offenders == [], (
            "hardcoded frame-duration conversions found; use "
            "repro.timebase.frames_to_seconds instead:\n"
            + "\n".join(offenders)
        )
