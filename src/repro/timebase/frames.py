"""Integer radio-frame arithmetic.

The whole library keeps simulated time as an integer number of 10 ms
radio frames. This module provides the constants and conversions; a
frame interval is a pair of frames, half-open ``[start, end)``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import TimebaseError

#: Milliseconds per LTE/NB-IoT subframe.
MS_PER_SUBFRAME = 1

#: Subframes per radio frame.
SUBFRAMES_PER_FRAME = 10

#: Milliseconds per radio frame.
MS_PER_FRAME = MS_PER_SUBFRAME * SUBFRAMES_PER_FRAME

#: Radio frames per hyperframe (the Hyper-SFN increments every 1024 frames).
FRAMES_PER_HYPERFRAME = 1024


def frames_to_seconds(frames: int) -> float:
    """Convert a frame count to seconds."""
    return int(frames) * MS_PER_FRAME / 1000.0


def ms_to_frames(ms: float, *, strict: bool = False) -> int:
    """Convert milliseconds to frames.

    The duration is first quantised to the nearest integer millisecond
    (the 1 ms subframe is the radio timeline's physical granularity),
    then rounded up to whole frames with exact integer ceiling division
    (:func:`frame_at_or_after_ms`) — the conservative choice when
    budgeting airtime. Rounding half-to-even at the millisecond level
    absorbs float noise of up to half a subframe regardless of the
    horizon, unlike the fixed float epsilon this replaces, which double
    precision outgrows beyond ~10^7 frames.

    With ``strict=True`` the duration must be an exact multiple of 10 ms
    (within sub-subframe float noise).
    """
    if ms < 0:
        raise TimebaseError(f"duration must be non-negative, got {ms} ms")
    exact_ms = round(ms)
    if strict and (
        exact_ms % MS_PER_FRAME != 0
        or not math.isclose(ms, exact_ms, rel_tol=1e-9, abs_tol=1e-6)
    ):
        raise TimebaseError(f"{ms} ms is not a whole number of {MS_PER_FRAME} ms frames")
    return frame_at_or_after_ms(exact_ms)


def seconds_to_frames(seconds: float, *, strict: bool = False) -> int:
    """Convert seconds to frames; see :func:`ms_to_frames` for ``strict``."""
    return ms_to_frames(seconds * 1000.0, strict=strict)


def seconds_to_nearest_ms(seconds: float) -> int:
    """Quantise an instant to the nearest integer millisecond.

    The radio timeline is subframe-granular (1 subframe = 1 ms): all
    control-plane durations are whole milliseconds, and instants that
    are not (fractional-ms payload airtimes, random backoffs) are
    modelling artifacts below the protocol's time resolution. Rounding
    half-to-even absorbs float noise of up to half a subframe regardless
    of how far from zero the instant is — unlike a fixed epsilon, which
    double precision outgrows on long horizons.
    """
    if seconds < 0:
        raise TimebaseError(f"instant must be non-negative, got {seconds} s")
    return int(round(seconds * 1000.0))


def frame_at_or_after_ms(ms: int) -> int:
    """Index of the first frame starting at or after the instant ``ms``.

    Exact integer ceiling division — no floats, no epsilon, no drift.
    """
    if ms < 0:
        raise TimebaseError(f"instant must be non-negative, got {ms} ms")
    return -((-int(ms)) // MS_PER_FRAME)


def frame_after_seconds(time_s: float) -> int:
    """First frame boundary at or after the instant ``time_s``.

    The instant is snapped to the nearest integer millisecond (the 1 ms
    subframe is the radio timeline's physical granularity) and the frame
    index is then an exact integer ceiling — so the rounding cannot
    drift however long the horizon grows. Snapping means an instant less
    than half a subframe past a frame boundary resolves to that
    boundary; all control-plane durations are whole milliseconds, so
    only modelling artifacts (fractional-ms payload airtimes, random
    backoffs) are affected. All executors share this helper (see
    :func:`v_frame_after_seconds` for the fleet-wide twin).
    """
    return frame_at_or_after_ms(seconds_to_nearest_ms(time_s))


def v_frame_after_seconds(times_s: np.ndarray) -> np.ndarray:
    """Vectorised :func:`frame_after_seconds` (bit-identical).

    ``np.rint`` rounds half to even exactly like the scalar
    :func:`seconds_to_nearest_ms`, and the ceiling is the same exact
    integer division.
    """
    ms = np.array(times_s, dtype=np.float64)
    ms *= 1000.0
    np.rint(ms, out=ms)
    frames = ms.astype(np.int64)
    del ms  # in place from here: the input and one frame array are live
    np.negative(frames, out=frames)
    frames //= MS_PER_FRAME
    return np.negative(frames, out=frames)
