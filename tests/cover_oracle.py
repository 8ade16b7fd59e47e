"""Per-round re-sweep greedy window cover — the cover's oracle.

:func:`reference_window_cover` is the greedy cover as it ran before
:class:`~repro.setcover.incremental.IncrementalSweep`: every round
re-sweeps the remaining devices' covering intervals with
:func:`best_window` and drops the devices it covers.
:func:`~repro.setcover.greedy.greedy_window_cover` must match it window
for window, tie-break draws included
(``tests/properties/test_prop_cover_equivalence.py``,
``benchmarks/bench_setcover.py``, ``benchmarks/bench_fleet_scale.py``).

:func:`greedy_set_cover` is the classic greedy over an explicit set
system: the reference the window cover is cross-checked against on
small fleets, and the greedy the exact solver's optimum and the
approximation bound are measured against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Set

import numpy as np

from repro.drx.schedule import v_has_in
from repro.errors import SetCoverError
from repro.setcover.decision import GroupingDecision
from repro.setcover.windows import coverage_intervals


def reference_window_cover(
    phases: np.ndarray,
    periods: np.ndarray,
    window_len: int,
    horizon_start: int,
    horizon_end: int,
    rng: Optional[np.random.Generator] = None,
) -> GroupingDecision:
    """``greedy_window_cover``'s cover, one full re-sweep per round."""
    phases = np.asarray(phases, dtype=np.int64)
    periods = np.asarray(periods, dtype=np.int64)
    starts: List[int] = []
    groups: List[np.ndarray] = []
    remaining = np.arange(phases.size, dtype=np.int64)
    while remaining.size:
        found = best_window(
            phases[remaining],
            periods[remaining],
            window_len,
            horizon_start,
            horizon_end,
            rng,
        )
        starts.append(found.start)
        groups.append(remaining[found.covered])
        mask = np.ones(remaining.size, dtype=bool)
        mask[found.covered] = False
        remaining = remaining[mask]
    start_frames = np.array(starts, dtype=np.int64)
    return GroupingDecision.from_groups(
        start_frames, start_frames + window_len, groups
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


def greedy_set_cover(
    universe: Set[int], sets: Sequence[FrozenSet[int]]
) -> List[int]:
    """Classic greedy set cover over an explicit set system.

    Returns the indices of the chosen sets, in selection order. Raises
    :class:`~repro.errors.SetCoverError` if the union of ``sets`` does
    not cover ``universe``. Ties are broken by lowest set index, which
    keeps the function deterministic for tests.

    Residual gains are kept in a lazy max-heap: gains are submodular
    (they only shrink as elements get covered), so a popped entry whose
    recomputed gain still matches is globally maximal and stale entries
    are simply re-pushed. Each round costs ``O(log |sets|)`` amortised
    plus the intersections actually recomputed, instead of rescanning
    every candidate set.
    """
    uncovered = set(universe)
    chosen: List[int] = []
    # Heap of (-gain, index): equal gains pop the lowest index first,
    # exactly the reference scan's tie-break.
    heap = [(-len(s & uncovered), i) for i, s in enumerate(sets)]
    heapq.heapify(heap)
    while uncovered:
        best_idx = -1
        while heap:
            neg_gain, i = heapq.heappop(heap)
            gain = len(sets[i] & uncovered)
            if gain == -neg_gain:
                if gain > 0:
                    best_idx = i
                break  # a zero top gain means nothing useful remains
            heapq.heappush(heap, (-gain, i))
        if best_idx < 0:
            raise SetCoverError(
                f"sets cannot cover universe: {sorted(uncovered)} uncoverable"
            )
        chosen.append(best_idx)
        uncovered -= sets[best_idx]
    return chosen
