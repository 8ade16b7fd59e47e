"""Exact minimum set cover for small instances.

Branch-and-bound over bitmask set representations, seeded with the
greedy solution as the initial upper bound. Exponential in the worst
case — intended for the test suite and the greedy-quality ablation
(bench A3), where instances stay small (tens of devices).
"""

from __future__ import annotations

from typing import FrozenSet, List, Sequence, Set

import numpy as np

from repro.errors import SetCoverError
from repro.setcover.decision import GroupingDecision
from repro.setcover.windows import coverage_intervals
from repro.drx.schedule import v_has_in


def exact_min_set_cover(
    universe: Set[int], sets: Sequence[FrozenSet[int]]
) -> List[int]:
    """Indices of a minimum-cardinality cover of ``universe``.

    Raises :class:`~repro.errors.SetCoverError` when no cover exists.
    """
    elements = sorted(universe)
    if not elements:
        return []
    pos = {e: i for i, e in enumerate(elements)}
    full = (1 << len(elements)) - 1
    masks = []
    for s in sets:
        mask = 0
        for e in s:
            if e in pos:
                mask |= 1 << pos[e]
        masks.append(mask)

    union = 0
    for mask in masks:
        union |= mask
    if union != full:
        raise SetCoverError("sets cannot cover the universe")

    # Greedy upper bound (guaranteed feasible now): Chvatal's greedy,
    # the most newly covered elements first, ties to the lowest index.
    best_solution: List[int] = []
    covered = 0
    while covered != full:
        gains = [bin(mask & ~covered).count("1") for mask in masks]
        best_solution.append(gains.index(max(gains)))
        covered |= masks[best_solution[-1]]
    best_size = len(best_solution)

    # Precompute, for every element, the sets containing it (for branching
    # on the rarest uncovered element — a classic, effective heuristic).
    containing: List[List[int]] = [[] for _ in elements]
    for set_idx, mask in enumerate(masks):
        m = mask
        while m:
            low = m & -m
            containing[low.bit_length() - 1].append(set_idx)
            m ^= low

    def branch(covered: int, chosen: List[int]) -> None:
        nonlocal best_solution, best_size
        if covered == full:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_solution = list(chosen)
            return
        if len(chosen) + 1 >= best_size:
            return
        # Branch on the uncovered element contained in the fewest sets.
        uncovered = full & ~covered
        pick_elem = -1
        pick_count = len(masks) + 1
        m = uncovered
        while m:
            low = m & -m
            elem = low.bit_length() - 1
            count = sum(1 for s in containing[elem] if masks[s] & ~covered)
            if count < pick_count:
                pick_count = count
                pick_elem = elem
            m ^= low
        for set_idx in containing[pick_elem]:
            gain = masks[set_idx] & ~covered
            if not gain:
                continue
            chosen.append(set_idx)
            branch(covered | masks[set_idx], chosen)
            chosen.pop()

    branch(0, [])
    return best_solution


def exact_min_window_cover(
    phases: np.ndarray,
    periods: np.ndarray,
    window_len: int,
    horizon_start: int,
    horizon_end: int,
) -> GroupingDecision:
    """A minimum number of TI-windows covering all devices.

    Returns the windows in time order, each device assigned to the
    earliest one holding one of its POs (every window of a *minimum*
    cover covers some device uniquely, so no group comes out empty).
    Candidate windows are those ending exactly at a PO (an optimal
    cover can always be normalised to this form, since sliding a window
    right until its end touches a PO never loses coverage).
    """
    phases = np.asarray(phases, dtype=np.int64)
    periods = np.asarray(periods, dtype=np.int64)
    n = phases.size
    starts, _, _ = coverage_intervals(
        phases, periods, window_len, horizon_start, horizon_end
    )
    if starts.size == 0:
        raise SetCoverError("no device has a PO inside the search horizon")
    candidate_starts = np.unique(starts)
    sets: List[FrozenSet[int]] = []
    for s in candidate_starts:
        covered = np.nonzero(v_has_in(phases, periods, int(s), int(s) + window_len))[0]
        sets.append(frozenset(int(i) for i in covered))
    chosen = sorted(exact_min_set_cover(set(range(n)), sets))  # time order
    remaining = set(range(n))
    groups = []
    for i in chosen:
        groups.append(np.array(sorted(sets[i] & remaining), dtype=np.int64))
        remaining -= sets[i]
    start = candidate_starts[chosen]
    return GroupingDecision.from_groups(start, start + window_len, groups)
