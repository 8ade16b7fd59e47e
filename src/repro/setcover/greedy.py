"""Greedy set cover (Chvátal), specialised to TI-windows.

The window-specialised :func:`greedy_window_cover` is the algorithm of
paper Sec. III-A / Fig. 4: repeatedly find the TI-window holding the
most not-yet-updated devices, schedule a transmission at its last frame,
mark the covered devices updated, repeat until none remain. It runs one
:class:`~repro.setcover.incremental.IncrementalSweep` for the whole
cover: periods with many POs in the horizon are folded onto residue
histograms, the rest keep explicit intervals built and sorted once, and
each selection removes the covered devices from both — memory
independent of the horizon for the folded periods. It is
property-tested against the per-round re-sweep kept in
``tests/cover_oracle.py``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import SetCoverError
from repro.setcover.decision import GroupingDecision
from repro.setcover.incremental import IncrementalSweep


def greedy_window_cover(
    phases: np.ndarray,
    periods: np.ndarray,
    window_len: int,
    horizon_start: int,
    horizon_end: int,
    rng: Optional[np.random.Generator] = None,
) -> GroupingDecision:
    """Cover every device with TI-windows, greedily largest-first.

    The search horizon should be ``2 * max(period)`` past the announce
    frame: "the PO occurrence patterns will start repeating after a
    period twice as long as the largest DRX, so we only need to search
    this length of time" (Sec. III-A). Every device has at least one PO
    in such a horizon, so termination is guaranteed.

    Ties between equally good windows are broken uniformly at random
    when ``rng`` is given, earliest first otherwise (see
    :mod:`repro.setcover.incremental`).

    Returns one group per selected window, in selection order.
    """
    phases = np.asarray(phases, dtype=np.int64)
    periods = np.asarray(periods, dtype=np.int64)
    if phases.size == 0:
        raise SetCoverError("cannot cover an empty fleet")
    if horizon_end - horizon_start < int(periods.max()) * 2:
        raise SetCoverError(
            "horizon shorter than twice the longest cycle: some devices "
            "may have no PO inside it"
        )

    starts: List[int] = []
    groups: List[np.ndarray] = []
    sweep = IncrementalSweep(
        phases, periods, window_len, horizon_start, horizon_end
    )
    while sweep.remaining:
        start, covered = sweep.select(rng)
        starts.append(start)
        groups.append(covered)
    start_frames = np.array(starts, dtype=np.int64)
    return GroupingDecision.from_groups(
        start_frames, start_frames + window_len, groups
    )
