"""Downlink occupancy accounting.

The paper uses *the number of multicast transmissions as a proxy for
bandwidth utilization* (Sec. IV-A). :func:`utilization` keeps the proxy
honest: it sums a finished plan's real airtime, reports carrier
utilization over the campaign horizon, and counts overlapping
transmissions (which a single NB-IoT carrier would have to serialise —
one more reason DR-SC's many transmissions are impractical for large
payloads). :class:`CarrierOccupancy` is the live ledger the capacity
arbiter keeps across in-flight campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.timebase import frames_to_seconds


@dataclass(frozen=True)
class UtilizationReport:
    """Carrier occupancy summary for a set of transmissions.

    Attributes:
        total_airtime_s: sum of transmission durations.
        horizon_s: observation period the utilization is computed over.
        utilization: total airtime / horizon (can exceed 1.0 when the
            schedule is infeasible on a single carrier).
        overlapping_pairs: number of transmission pairs that overlap.
    """

    total_airtime_s: float
    horizon_s: float
    utilization: float
    overlapping_pairs: int


def utilization(
    frame: np.ndarray, duration_frames: np.ndarray, horizon_frames: int
) -> UtilizationReport:
    """Occupancy of the transmissions ``[frame, frame + duration)`` (a
    plan's transmission-table columns) over ``[0, horizon_frames)``."""
    if horizon_frames <= 0:
        raise ConfigurationError(f"horizon must be positive, got {horizon_frames}")
    duration = np.asarray(duration_frames, dtype=np.int64)
    if (duration < 1).any():
        raise ConfigurationError("every duration must be >= 1 frame")
    total_airtime = int(duration.sum())
    return UtilizationReport(
        total_airtime_s=frames_to_seconds(total_airtime),
        horizon_s=frames_to_seconds(horizon_frames),
        utilization=total_airtime / horizon_frames,
        overlapping_pairs=_count_overlaps(frame, duration),
    )


def _count_overlaps(frame: np.ndarray, duration_frames: np.ndarray) -> int:
    """Number of overlapping pairs of ``[frame, frame + duration)``.

    With every duration >= 1 frame, a disjoint pair has exactly one
    member ending at or before the other's start, so the disjoint pairs
    are, summed over intervals, the intervals ending at or before its
    start: one ``searchsorted`` over the sorted ends. It is
    property-tested against the O(n^2) pairwise definition in
    ``tests/plan_oracle.py``.
    """
    start = np.asarray(frame, dtype=np.int64)
    ends = np.sort(start + np.asarray(duration_frames, dtype=np.int64))
    disjoint = int(np.searchsorted(ends, start, side="right").sum())
    return start.size * (start.size - 1) // 2 - disjoint


class CarrierOccupancy:
    """Live NPDSCH airtime ledger shared by every campaign in a cell.

    :func:`utilization` audits one finished plan; this ledger
    instead tracks the admitted transmission windows of *all* in-flight
    campaigns so the capacity arbiter can detect cross-campaign airtime
    conflicts before committing a new window.

    Windows are half-open frame intervals owned by a campaign. Overlap
    *within* one campaign is deliberately not a conflict — the batch
    pipeline has always permitted it (``UtilizationReport`` merely
    counts such pairs), and treating it as one would make a lone
    campaign behave differently under the service than under
    ``deliver``.
    """

    def __init__(self) -> None:
        self._next_token = 0
        self._windows: Dict[int, Tuple[object, int, int]] = {}

    def __len__(self) -> int:
        return len(self._windows)

    def add(self, owner: object, start_frame: int, duration_frames: int) -> int:
        """Register an admitted window; returns a token for :meth:`remove`."""
        if duration_frames < 1:
            raise ConfigurationError(
                f"duration must be >= 1 frame, got {duration_frames}"
            )
        token = self._next_token
        self._next_token += 1
        self._windows[token] = (owner, start_frame, start_frame + duration_frames)
        return token

    def remove(self, token: int) -> None:
        """Release a window (retired by a plan revision)."""
        if token not in self._windows:
            raise ConfigurationError(f"unknown occupancy token {token}")
        del self._windows[token]

    def conflicts(
        self, start_frame: int, duration_frames: int, *, owner: object
    ) -> List[Tuple[int, int]]:
        """Foreign intervals overlapping ``[start, start+duration)``.

        Returns the (start, end) frame intervals of every window owned
        by a *different* campaign that overlaps the candidate, sorted by
        start frame. Empty means the window can be admitted as-is.
        """
        end_frame = start_frame + duration_frames
        hits = [
            (w_start, w_end)
            for w_owner, w_start, w_end in self._windows.values()
            if w_owner != owner and w_start < end_frame and start_frame < w_end
        ]
        hits.sort()
        return hits
