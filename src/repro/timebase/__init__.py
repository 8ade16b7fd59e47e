"""Radio time base: frames, subframes, hyperframes and unit conversions.

NB-IoT inherits the LTE radio timing structure:

* a **subframe** is 1 ms,
* a **radio frame** is 10 subframes = 10 ms and is numbered by the System
  Frame Number (SFN, 10 bits, wrapping at 1024),
* a **hyperframe** is 1024 radio frames = 10.24 s (the Hyper-SFN extends
  the SFN so that eDRX cycles far longer than an SFN period can be
  expressed, see 3GPP TS 36.304).

Throughout the library, *time is an integer count of radio frames since
the start of the simulation*. Integer frame arithmetic keeps every
schedule exact (no floating-point drift over a 175-minute eDRX cycle)
and makes schedules hashable and comparable. Conversions to seconds
happen only at reporting boundaries.
"""

from repro.timebase.frames import (
    FRAMES_PER_HYPERFRAME,
    MS_PER_FRAME,
    MS_PER_SUBFRAME,
    SUBFRAMES_PER_FRAME,
    frame_after_seconds,
    frame_at_or_after_ms,
    frames_to_seconds,
    ms_to_frames,
    seconds_to_frames,
    seconds_to_nearest_ms,
    v_frame_after_seconds,
)
from repro.timebase.units import (
    KIBIBYTE,
    KILOBYTE,
    MEBIBYTE,
    MEGABYTE,
    bits_of,
    format_bytes,
    format_duration,
)

__all__ = [
    "MS_PER_SUBFRAME",
    "SUBFRAMES_PER_FRAME",
    "MS_PER_FRAME",
    "FRAMES_PER_HYPERFRAME",
    "frame_after_seconds",
    "frame_at_or_after_ms",
    "v_frame_after_seconds",
    "frames_to_seconds",
    "ms_to_frames",
    "seconds_to_frames",
    "seconds_to_nearest_ms",
    "KILOBYTE",
    "KIBIBYTE",
    "MEGABYTE",
    "MEBIBYTE",
    "bits_of",
    "format_bytes",
    "format_duration",
]
