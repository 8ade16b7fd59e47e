"""Sweep-line search for the best TI-window.

A window ``[s, s + L)`` *covers* a device iff at least one of the
device's POs lies inside it. For a PO at frame ``p`` the covering window
starts are ``s in [p - L + 1, p]``; a device's covering-start set is the
union of such intervals over its POs. Finding the window that covers
the most devices is therefore a 1-D stabbing-count problem, solved by a
single sorted sweep over interval endpoints — O(P log P) in the total
number of POs P, fully vectorised.

Ties are broken uniformly at random among the maximal segments, exactly
as the paper's Fig. 4 does ("we have 2 possible times so we pick one of
them randomly").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.drx.schedule import v_first_at_or_after, v_has_in, v_last_before
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


@dataclass(frozen=True)
class BestWindow:
    """The winning window of one sweep.

    Attributes:
        start: window start frame (the window is ``[start, start + L)``).
        transmission_frame: the window's last frame — where the paper
            schedules the multicast transmission (Sec. III-A).
        covered: indices of the devices with a PO inside the window.
    """

    start: int
    transmission_frame: int
    covered: np.ndarray


def best_window(
    phases: np.ndarray,
    periods: np.ndarray,
    window_len: int,
    horizon_start: int,
    horizon_end: int,
    rng: Optional[np.random.Generator] = None,
) -> BestWindow:
    """Find a TI-window covering the maximum number of devices.

    Ties between equally good windows are broken uniformly at random
    when ``rng`` is given, deterministically (earliest) otherwise. The
    tie-break candidates are the distinct positions where some
    covering interval starts or ends (a start clipped to the horizon
    lands on ``horizon_start``) whose coverage count equals the
    maximum, in ascending order; the pick is
    ``candidates[rng.integers(len(candidates))]``, one draw per call.
    """
    starts, ends, _ = coverage_intervals(
        phases, periods, window_len, horizon_start, horizon_end
    )
    if starts.size == 0:
        raise SetCoverError("no device has a PO inside the search horizon")

    positions = np.concatenate([starts, ends])
    deltas = np.concatenate(
        [np.ones(starts.size, np.int64), -np.ones(ends.size, np.int64)]
    )
    # Sort by position; at equal positions apply -1 before +1 so the
    # running value after each group is the exact count on [pos, next).
    order = np.lexsort((deltas, positions))
    positions = positions[order]
    running = np.cumsum(deltas[order])

    # Last event index of each position group -> coverage on [pos, next).
    is_last = np.empty(positions.size, dtype=bool)
    is_last[:-1] = positions[:-1] != positions[1:]
    is_last[-1] = True
    seg_pos = positions[is_last]
    seg_count = running[is_last]

    best = int(seg_count.max())
    candidates = np.nonzero(seg_count == best)[0]
    if rng is None:
        pick = candidates[0]
    else:
        pick = candidates[int(rng.integers(len(candidates)))]
    s = int(seg_pos[pick])

    covered = np.nonzero(v_has_in(phases, periods, s, s + window_len))[0]
    if covered.size != best:
        raise SetCoverError(
            f"sweep inconsistency: counted {best} devices but window at "
            f"{s} covers {covered.size}"
        )
    return BestWindow(
        start=s, transmission_frame=s + window_len - 1, covered=covered
    )
