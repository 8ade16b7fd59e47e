"""Covering intervals of window starts, the input of the window cover.

A window ``[s, s + L)`` *covers* a device iff at least one of the
device's POs lies inside it. For a PO at frame ``p`` the covering window
starts are ``s in [p - L + 1, p]``; a device's covering-start set is the
union of such intervals over its POs. Finding the window that covers
the most devices is therefore a 1-D stabbing-count problem over these
intervals, which :class:`~repro.setcover.incremental.IncrementalSweep`
solves round by round.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.drx.schedule import v_first_at_or_after, v_last_before
from repro.errors import SetCoverError


def coverage_intervals(
    phases: np.ndarray,
    periods: np.ndarray,
    window_len: int,
    horizon_start: int,
    horizon_end: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-device intervals of covering window starts.

    Returns ``(starts, ends, owners)`` — half-open intervals on the
    window-start axis and the device index owning each. Intervals of one
    device never overlap each other (same-device runs are merged when
    the PO spacing is below the window length), so a sweep counting +1/-1
    counts *distinct* devices.
    """
    phases = np.asarray(phases, dtype=np.int64)
    periods = np.asarray(periods, dtype=np.int64)
    if window_len <= 0:
        raise SetCoverError(f"window length must be positive, got {window_len}")
    s_max = horizon_end - window_len  # last admissible window start
    if s_max < horizon_start:
        raise SetCoverError(
            f"horizon [{horizon_start}, {horizon_end}) shorter than the "
            f"window length {window_len}"
        )

    starts_list = []
    ends_list = []
    owners_list = []

    dense = periods < window_len  # same-device PO intervals would overlap
    sparse = ~dense

    if np.any(dense):
        idx = np.nonzero(dense)[0]
        first = v_first_at_or_after(phases[idx], periods[idx], horizon_start)
        last = v_last_before(phases[idx], periods[idx], horizon_end)
        valid = (last >= 0) & (first < horizon_end)
        idx, first, last = idx[valid], first[valid], last[valid]
        lo = np.maximum(horizon_start, first - window_len + 1)
        hi = np.minimum(last, s_max) + 1
        keep = hi > lo
        starts_list.append(lo[keep])
        ends_list.append(hi[keep])
        owners_list.append(idx[keep])

    if np.any(sparse):
        idx = np.nonzero(sparse)[0]
        sub_phases, sub_periods = phases[idx], periods[idx]
        firsts = v_first_at_or_after(sub_phases, sub_periods, horizon_start)
        counts = np.maximum(0, -((firsts - horizon_end) // sub_periods))
        rep_owner = np.repeat(idx, counts)
        if rep_owner.size:
            run_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            offsets = np.arange(rep_owner.size, dtype=np.int64) - np.repeat(
                run_starts, counts
            )
            pos = np.repeat(firsts, counts) + offsets * np.repeat(
                sub_periods, counts
            )
            lo = np.maximum(horizon_start, pos - window_len + 1)
            hi = np.minimum(pos, s_max) + 1
            keep = hi > lo
            starts_list.append(lo[keep])
            ends_list.append(hi[keep])
            owners_list.append(rep_owner[keep])

    if not starts_list:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    return (
        np.concatenate(starts_list),
        np.concatenate(ends_list),
        np.concatenate(owners_list),
    )
