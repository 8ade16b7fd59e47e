"""Incremental sweep for the iterated greedy window cover.

The reference greedy (``tests/cover_oracle.py::reference_window_cover``,
the oracle :func:`repro.setcover.greedy.greedy_window_cover` is tested
against) re-derives
:func:`~repro.setcover.windows.coverage_intervals` and re-sorts the
sweep events for the shrunken fleet on every round. The incremental
sweep keeps one state for the whole cover and consumes it selection by
selection. A device lives in one of two representations:

* **explicit** — its covering intervals, built and sorted once into one
  table (:class:`_Intervals`: an owner-indexed CSR and a start-ordered
  stab table) and one count kept per distinct event position in
  ``sqrt``-sized blocks that know their maximum
  (:class:`_BlockedCounts`): removing devices subtracts their intervals
  from the positions they span and refreshes only the blocks it
  touched, so it costs what it removes, not what survives;
* **folded** — for a DRX period with many POs in the horizon, one
  interval per PO is wasteful: every window start ``s`` in
  ``[hs, he - L]`` lies inside the horizon, so a device of period
  ``P`` and phase ``phi`` covers ``s`` iff ``(phi - s) mod P < L``
  (always, when ``P <= L``). Such a period is a histogram of its
  surviving devices' phase residues, and its per-start count is the
  circular window sum ``A_P[r] = sum_{k<L} hist_P[(r + k) mod P]``.
  Folded periods all divide ``Q``, the longest of them, so their counts
  add into one array ``S`` on residues mod ``Q``.

The count at a start is ``C(s) = S[s mod Q] + B(s)``, where ``B`` is the
explicit count, constant between explicit events. A range maximum of
``S`` over each ``B``-segment gives the round's best count without
touching the horizon. Only segments that can reach the best need one:
each segment's first start is a floor under the best, and a segment
whose ``B + max(S)`` falls below it is skipped. The rest take their
maxima from one ``np.maximum.reduceat`` over ``S`` doubled, or from a
sparse table on it when their spans add up to more than its entries
(see :func:`_segment_maxima`).

Tie-break candidates follow the reference exactly: the distinct
positions where a surviving interval starts or ends whose count equals
the maximum, in ascending order. ``hs`` is one iff ``C(hs)`` is maximal;
``q > hs`` is an event iff some surviving device has a PO at ``q - 1``
(an end) or at ``q + L - 1`` (a start). Devices with ``P == L`` cover
every start yet still add an event after every PO (their intervals
touch); devices with ``P < L`` add none inside the range. A position
where intervals only end has ``C(q) < C(q - 1)``, so it is never
maximal: the candidates are the maximal positions that are ``hs``, an
explicit start, or a folded start, ``hist_P[(q + L - 1) mod P] > 0``
for some folded ``P >= L``. Because maxima, candidate counts and
candidate order equal the reference's, every selection and every
``rng.integers`` draw is *identical*, not merely equivalent.

Once no folded period is left (most rounds: 6,794 of city-rollout's
6,873 at 5*10^4 devices), rounds that tie share one candidate list, as
a lazy max-heap greedy shares its gains. A refill lists the maximal
positions once; each round draws from the list exactly as the
reference does, stabs the pick, and deletes the candidates that lie
inside an interval of a device it covered. Counts
only fall, and a candidate keeps the maximum unless a covered device has
an interval over it, so what is left is exactly the positions still at
the maximum, in ascending order: the next round's candidates. The
explicit count drops the covered devices in one batch when the list runs
out, before the next refill. A round whose stab range holds at most
:data:`FEW_INTERVALS` intervals runs on Python ints read through
memoryviews: binary searches over the stab table's starts, the covered
devices as one sorted list, and their intervals sorted and merged before
binary searches delete the candidates inside them. Larger rounds use
numpy.

Which periods fold is decided from the fleet alone (see
:func:`_fold_periods`). State is ``O(n + Q)`` plus the explicit
intervals, so memory does not grow with ``n * horizon / period`` for the
folded periods.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import SetCoverError
from repro.setcover.windows import coverage_intervals

#: A period ``P`` folds once its devices hold at least this many POs in
#: the horizon per entry of a range-maximum table over its residues,
#: ``P * log2(P)``; past :data:`FOLD_CACHED_PERIOD` each entry counts
#: ``P / FOLD_CACHED_PERIOD`` times. Below it the explicit intervals are
#: cheaper to sweep. Forced fold against forced explicit (L 2048, a
#: 2^21-frame horizon, 200 explicit 2^20-frame devices beside the
#: period) broke even at about 0.06 POs per entry for P = 2^13, 0.1 for
#: 2^16, 0.11 for 2^17 and 0.13 for 2^18 once folded rounds skip the
#: segments that cannot reach the best count and rarely build the table;
#: the same bench put the earlier, table-every-round sweep at 0.12, 0.27,
#: over 0.4 and over 0.64. 2^19 was not re-measured (2.6M devices): on
#: metering-longsleep's mixture at 10^6 devices (L 4096), folding 2^18
#: took the cover from 2.7 to 2.1 s, but folding 2^19 beside it (0.14
#: POs per entry) to 3.6 s, so the factor past 2^16 stays.
FOLD_MIN_POS_PER_TABLE_ENTRY = 0.1

#: The longest period whose range-maximum table still costs its size.
FOLD_CACHED_PERIOD = 2**16

#: The fewest event positions in one block of the explicit count array.
BLOCK_FLOOR = 64

#: The most intervals a stab range may hold for a round of the
#: explicit-only phase to run in plain Python (see the module
#: docstring); a covered device with more intervals than this sends the
#: candidate deletion to numpy. Measured on captured cover inputs, CPU
#: time, median of 15 alternating runs (11 at 10^5), total cover time
#: at 8 / 16 / 32 / 48: city-rollout at 5*10^4 devices 212 / 206 / 209 /
#: 211 ms, paper-baseline at 5*10^4 69 / 69 / 69 / 72 ms and at 10^5
#: 77 / 76 / 77 / 77 ms; with numpy only (0) city-rollout took 368 ms.
FEW_INTERVALS = 16


def _fold_periods(
    periods: np.ndarray, horizon_start: int, horizon_end: int
) -> np.ndarray:
    """The periods worth folding, all dividing the longest of them.

    A period is worth folding when its devices x POs in the horizon
    reach :data:`FOLD_MIN_POS_PER_TABLE_ENTRY` per table entry. Of
    those, the ones that do not divide the longest stay explicit.
    """
    values, counts = np.unique(periods, return_counts=True)
    valid = values > 0
    values, counts = values[valid], counts[valid]
    pos = counts * ((horizon_end - horizon_start) // values)
    table = values * np.log2(values)
    table *= np.maximum(1, values / FOLD_CACHED_PERIOD)
    worthy = values[pos >= FOLD_MIN_POS_PER_TABLE_ENTRY * table]
    if worthy.size == 0:
        return worthy
    return worthy[int(worthy.max()) % worthy == 0]


class _FoldedPeriod:
    """One folded period: its surviving devices as a residue histogram."""

    def __init__(
        self,
        period: int,
        window_len: int,
        residues: np.ndarray,
        owners: np.ndarray,
    ) -> None:
        self.period = period
        self.window_len = window_len
        order = np.argsort(residues)
        self.residues = residues[order]
        self.owners = owners[order]
        self.alive = int(owners.size)
        self.hist = np.bincount(residues, minlength=period)
        self.counts = self._window_counts()

    def _window_counts(self) -> np.ndarray:
        """``A_P``: surviving devices covering each start residue."""
        period, window_len = self.period, self.window_len
        if period <= window_len:
            return np.full(period, self.alive, dtype=np.int64)
        cs = np.zeros(period + window_len + 1, dtype=np.int64)
        np.cumsum(self.hist, out=cs[1 : period + 1])
        cs[period + 1 :] = cs[period] + cs[1 : window_len + 1]
        return cs[window_len : window_len + period] - cs[:period]

    def starts(self) -> np.ndarray:
        """Residues ``r`` where a surviving interval starts: a PO at ``r + L - 1``."""
        return np.roll(self.hist > 0, 1 - self.window_len)

    def take(
        self, start: int, alive: np.ndarray, folded_counts: np.ndarray
    ) -> np.ndarray:
        """Remove and return the surviving devices covering ``start``.

        Marks them dead in ``alive`` and subtracts their window counts
        from ``folded_counts`` (the sum over periods, residues mod Q).
        """
        if self.period <= self.window_len:
            members, residues = self.owners, self.residues
        else:
            lo = start % self.period
            hi = lo + self.window_len
            first = np.searchsorted(self.residues, lo)
            last = np.searchsorted(self.residues, min(hi, self.period))
            members = self.owners[first:last]
            residues = self.residues[first:last]
            if hi > self.period:
                wrap = np.searchsorted(self.residues, hi - self.period)
                members = np.concatenate([members, self.owners[:wrap]])
                residues = np.concatenate([residues, self.residues[:wrap]])
        live = alive[members]
        members, residues = members[live], residues[live]
        if members.size:
            alive[members] = False
            self.alive -= members.size
            self.hist -= np.bincount(residues, minlength=self.period)
            old = self.counts
            self.counts = self._window_counts()
            folded_counts.reshape(-1, self.period)[:] -= old - self.counts
        return members


def _segment_maxima(
    counts: np.ndarray,
    seg_pos: np.ndarray,
    seg_count: np.ndarray,
    length: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The segments that may hold the best count, and their folded maxima.

    Segment ``i`` spans the ``length[i]`` starts from ``seg_pos[i]``
    where the explicit count is ``seg_count[i]``; ``counts`` is ``S`` on
    residues mod ``Q``. Each segment reaches ``seg_count + S`` at its
    first start, so the largest of those is a floor under the best
    count, and a segment whose ``seg_count + max(S)`` falls below it
    cannot tie the best. Returns the indices of the other segments,
    ascending, and the maximum of ``S`` over each of them.
    """
    q = counts.size
    top = counts.max()
    floor = (seg_count + counts[seg_pos % q]).max()
    keep = np.flatnonzero(seg_count >= floor - top)
    seg_max = np.full(keep.size, top, dtype=np.int64)
    short = np.flatnonzero(length[keep] < q)
    if short.size == 0:
        return keep, seg_max
    span = length[keep[short]]
    lo = seg_pos[keep[short]] % q
    n_rows = max(1, (q - 1).bit_length())
    if span.sum() > n_rows * 2 * q:
        table = _range_max_table(counts)
        row = np.frexp(span)[1].astype(np.int64) - 1  # floor(log2(span))
        hi = lo + span - (np.int64(1) << row)
        seg_max[short] = np.maximum(table[row, lo], table[row, hi])
    else:
        # One reduceat over S doubled on (lo, lo + span) pairs, by
        # descending lo: the slot between two pairs, [hi_i, lo_i+1),
        # then holds one entry, so the pass costs about the spans.
        order = np.argsort(-lo, kind="stable")
        bounds = np.empty(2 * order.size, dtype=np.int64)
        bounds[0::2] = lo[order]
        bounds[1::2] = bounds[0::2] + span[order]
        doubled = np.concatenate([counts, counts])
        seg_max[short[order]] = np.maximum.reduceat(doubled, bounds)[0::2]
    return keep, seg_max


def _range_max_table(values: np.ndarray) -> np.ndarray:
    """Sparse table over ``values`` doubled, for circular range maxima.

    Row ``j`` holds the maximum of each run of ``2**j`` entries; rows
    cover runs shorter than ``values.size``.
    """
    q = values.size
    n_rows = max(1, (q - 1).bit_length())
    table = np.empty((n_rows, 2 * q), dtype=values.dtype)
    table[0, :q] = table[0, q:] = values
    span = 1
    for row in range(1, n_rows):
        table[row, : 2 * q - span] = np.maximum(
            table[row - 1, : 2 * q - span], table[row - 1, span:]
        )
        span *= 2
    return table


class _Intervals:
    """The explicit devices' covering intervals, one table per cover.

    Built once from :func:`coverage_intervals`, which emits each
    device's intervals as one contiguous run: an owner-indexed CSR gives
    a device's intervals (what a removal subtracts from the count),
    and the intervals no longer than the window, in start order, answer
    a stab with two binary searches; longer ones (periods shorter than
    the window) are checked whole. Dead devices' intervals stay in the
    stab table and are filtered out by ``alive``, the sweep's array.

    A round whose stab range holds at most :data:`FEW_INTERVALS`
    intervals, with no long interval left, reads the table through
    memoryviews as Python ints (:meth:`stab_few`, :meth:`drop_few`);
    larger ones read it in numpy (:meth:`stab`, :meth:`drop`).
    """

    def __init__(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        owners: np.ndarray,
        by_start: np.ndarray,
        window_len: int,
        alive: np.ndarray,
    ) -> None:
        self.starts, self.ends = starts, ends
        self._window_len = window_len
        self._alive = alive
        # Indexed by fleet index up to the last explicit device: a
        # fleet that folds every period needs none.
        n_devices = int(owners.max()) + 1 if owners.size else 0
        run = np.flatnonzero(np.diff(owners, prepend=-1, append=-1))
        self._dev_first = np.zeros(n_devices, dtype=np.int64)
        self._dev_count = np.zeros(n_devices, dtype=np.int64)
        self._dev_first[owners[run[:-1]]] = run[:-1]
        self._dev_count[owners[run[:-1]]] = np.diff(run)
        self._many = bool(n_devices) and self._dev_count.max() > FEW_INTERVALS

        self._stab = [array[by_start] for array in (starts, ends, owners)]
        long = self._stab[1] - self._stab[0] > window_len
        self._long = [array[long] for array in self._stab]
        if self._long[0].size:
            self._stab = [array[~long] for array in self._stab]
        # Memoryviews read single entries as Python ints.
        self._py_bounds = memoryview(starts), memoryview(ends)
        self._py_csr = memoryview(self._dev_first), memoryview(self._dev_count)
        self._py_stab = [memoryview(array) for array in self._stab]
        self._py_alive = memoryview(alive)

    def of(self, devices: np.ndarray) -> np.ndarray:
        """The indices of the intervals of ``devices``."""
        return _ranges(self._dev_first[devices], self._dev_count[devices])

    def stab_range(self, start: int) -> Tuple[int, int]:
        """The stab table's slice that may cover ``start``: the
        intervals starting in ``(start - L, start]``."""
        starts = self._py_stab[0]
        lo = bisect_right(starts, start - self._window_len)
        return lo, bisect_right(starts, start, lo)

    def few(self, lo: int, hi: int) -> bool:
        """Whether a stab of the slice ``lo:hi`` runs in plain Python."""
        return hi - lo <= FEW_INTERVALS and not self._long[0].size

    def stab_few(self, start: int, lo: int, hi: int) -> List[int]:
        """:meth:`stab` of a slice that :meth:`few` accepts, as a list."""
        _, ends, owners = self._py_stab
        alive = self._py_alive
        covered = [
            device for k in range(lo, hi)
            if ends[k] > start and alive[device := owners[k]]
        ]
        covered.sort()
        return covered

    def stab(self, start: int, lo: int, hi: int) -> np.ndarray:
        """The surviving devices with an interval covering ``start``,
        ascending, from the slice :meth:`stab_range` gave."""
        ends, owners = self._stab[1][lo:hi], self._stab[2][lo:hi]
        covered = np.sort(owners[(ends > start) & self._alive[owners]])
        if self._long[0].size:
            starts, ends, owners = self._long
            hit = (starts <= start) & (start < ends) & self._alive[owners]
            covered = np.sort(np.concatenate([covered, owners[hit]]))
        return covered

    def drop_few(self, candidates: List[int], devices: List[int]) -> List[int]:
        """:meth:`drop` for the devices :meth:`stab_few` gave.

        Their intervals are sorted and merged first: the devices a
        window covers mostly have overlapping intervals there, and
        another run of them a period later.
        """
        if len(candidates) == 1:
            # The drawn candidate lies in the interval that covered it.
            return []
        (starts, ends), (first, count) = self._py_bounds, self._py_csr
        if self._many and any(count[d] > FEW_INTERVALS for d in devices):
            return self.drop(candidates, np.array(devices, dtype=np.int64))
        spans = [
            (starts[k], ends[k])
            for device in devices
            for k in range(first[device], first[device] + count[device])
        ]
        spans.sort()
        lo, hi = spans[0]
        for start, end in spans:
            if start > hi:
                i = bisect_left(candidates, lo)
                del candidates[i : bisect_left(candidates, hi, i)]
                lo = start
            if end > hi:
                hi = end
        i = bisect_left(candidates, lo)
        del candidates[i : bisect_left(candidates, hi, i)]
        return candidates

    def drop(self, candidates: List[int], devices: np.ndarray) -> List[int]:
        """The ascending ``candidates`` outside every interval of
        ``devices``."""
        if len(candidates) <= 2:
            # The drawn candidate lies in the interval that covered it,
            # so at most one survives: a refill costs less than this pass.
            return []
        index = self.of(devices)
        array = np.array(candidates)
        inside = np.bincount(
            array.searchsorted(self.starts[index]), minlength=array.size + 1
        )
        inside -= np.bincount(
            array.searchsorted(self.ends[index]), minlength=array.size + 1
        )
        return array[np.cumsum(inside[:-1]) == 0].tolist()

    def forget_dead(self) -> None:
        """Drop the dead devices' long intervals."""
        if self._long[0].size:
            keep = self._alive[self._long[2]]
            self._long = [array[keep] for array in self._long]


def _ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated index ranges ``[first[i], first[i] + counts[i])``."""
    ends = np.cumsum(counts)
    return np.repeat(first - ends + counts, counts) + np.arange(ends[-1])


class _BlockedCounts:
    """The explicit intervals as a count per distinct event position.

    Built once per cover: the positions where some interval starts or
    ends, sorted; ``counts[j]``, the surviving intervals covering every
    start in ``[positions[j], positions[j + 1])``; ``starts[j]``, the
    surviving intervals starting at ``positions[j]``; and the maximum
    count per block of ``block`` positions. Removing devices subtracts
    one from their intervals' position ranges and refreshes the blocks
    they touched, so a removal costs what it removes, not what survives.
    """

    def __init__(self, endpoints: np.ndarray, order: np.ndarray) -> None:
        first = np.empty(endpoints.size, dtype=bool)
        first[:1] = True
        np.not_equal(endpoints[1:], endpoints[:-1], out=first[1:])
        self.positions = endpoints[first]
        rank = np.cumsum(first)
        rank -= 1
        index = np.empty(rank.size, dtype=np.int64)
        index[order] = rank
        del rank
        n_int = index.size // 2
        self._start_at, self._end_at = index[:n_int], index[n_int:]

        n_pos = self.positions.size
        self.block = max(BLOCK_FLOOR, math.isqrt(n_pos))
        n_blocks = -(-n_pos // self.block)
        # Padding counts -1: never the maximum, never a candidate.
        self.counts = np.full(n_blocks * self.block, -1, dtype=np.int64)
        self.starts = np.zeros(n_blocks * self.block, dtype=np.int64)
        self.starts[:n_pos] = np.bincount(self._start_at, minlength=n_pos)
        np.cumsum(
            self.starts[:n_pos] - np.bincount(self._end_at, minlength=n_pos),
            out=self.counts[:n_pos],
        )
        self._block_max = self.counts.reshape(-1, self.block).max(axis=1)

    def segments(self) -> Tuple[np.ndarray, np.ndarray]:
        """Positions with a surviving event, and the count from each."""
        n_pos = self.positions.size
        counts = self.counts[:n_pos]
        # A surviving end changes the count, a start may not; nothing
        # ends at the first position.
        live = self.starts[:n_pos] > 0
        live[1:] |= counts[1:] != counts[:-1]
        return self.positions[live], counts[live]

    def candidates(self) -> Tuple[int, np.ndarray]:
        """The maximal count and the positions with a surviving event
        that reach it, ascending.

        A maximal position has a surviving start (where intervals only
        end the count drops), so the candidates are the maximal starts,
        all in the blocks whose maximum is the global one.
        """
        best = int(self._block_max.max()) if self._block_max.size else 0
        if best <= 0:
            raise SetCoverError("no device has a PO inside the search horizon")
        hot = np.flatnonzero(self._block_max == best)
        row, col = np.nonzero(
            (self.counts.reshape(-1, self.block)[hot] == best)
            & (self.starts.reshape(-1, self.block)[hot] > 0)
        )
        return best, self.positions[hot[row] * self.block + col]

    def remove(self, intervals: np.ndarray) -> None:
        """Subtract ``intervals``, whose devices are already marked dead."""
        start_at = self._start_at[intervals]
        end_at = self._end_at[intervals]
        np.subtract.at(self.starts, start_at, 1)
        spans = end_at - start_at
        n_pos = self.positions.size
        counts = self.counts.reshape(-1, self.block)
        if spans.sum() > n_pos:
            # Overlapping ranges that add up to more than the array:
            # one difference array over all of it is cheaper.
            delta = np.bincount(start_at, minlength=n_pos)
            delta -= np.bincount(end_at, minlength=n_pos)
            self.counts[:n_pos] -= np.cumsum(delta)
            self._block_max = counts.max(axis=1)
        else:
            touched = _ranges(start_at, spans)
            np.subtract.at(self.counts, touched, 1)
            blocks = np.zeros(self._block_max.size, dtype=bool)
            blocks[touched // self.block] = True
            blocks = np.flatnonzero(blocks)
            self._block_max[blocks] = counts[blocks].max(axis=1)


class IncrementalSweep:
    """One fleet's sweep state, consumed selection by selection.

    Build once, then call :meth:`select` repeatedly; each call returns
    the best window over the devices not yet covered. While a period is
    folded, a round takes the covered devices out of the explicit count
    and the folded residue histograms at once. After that, rounds draw
    from one shared candidate list and the explicit count drops the
    devices they covered in one batch per refill (see the module
    docstring).
    """

    def __init__(
        self,
        phases: np.ndarray,
        periods: np.ndarray,
        window_len: int,
        horizon_start: int,
        horizon_end: int,
    ) -> None:
        phases = np.asarray(phases, dtype=np.int64)
        periods = np.asarray(periods, dtype=np.int64)
        self._window_len = window_len
        self._horizon_start = horizon_start
        self._s_max = horizon_end - window_len
        self._alive = np.ones(phases.size, dtype=bool)
        self._remaining = int(phases.size)

        # A device folds only if every frame of its residue class inside
        # the horizon is a PO: a valid phase (``0 <= phase < period``)
        # and no frame of the horizon before frame 0. Invalid devices
        # stay explicit, where coverage_intervals rejects them.
        fold = _fold_periods(periods, horizon_start, horizon_end)
        folded = (
            np.isin(periods, fold)
            & (phases >= 0)
            & (phases < periods + min(horizon_start, 0))
        )
        self._folded = [
            _FoldedPeriod(period, window_len, phases[owners] % period, owners)
            for period in fold.tolist()
            for owners in [np.nonzero(folded & (periods == period))[0]]
            if owners.size
        ]
        # Folded counts summed on residues mod Q, the longest folded period.
        self._q = max([part.period for part in self._folded], default=0)
        self._folded_counts = np.zeros(self._q, dtype=np.int64)
        for part in self._folded:
            self._folded_counts.reshape(-1, part.period)[:] += part.counts

        explicit = np.nonzero(~folded)[0]
        starts, ends, owners = coverage_intervals(
            phases[explicit], periods[explicit],
            window_len, horizon_start, horizon_end,
        )
        # One sort of every endpoint serves the explicit count and the
        # stab table (the intervals in start order). The endpoints go
        # before the table is built: at 10^6 devices they would otherwise
        # set the cover's memory peak.
        endpoints = np.concatenate([starts, ends])
        order = np.argsort(endpoints)
        endpoints = endpoints[order]
        owners = explicit[owners]
        self._explicit = _BlockedCounts(endpoints, order)
        del endpoints
        self._intervals = _Intervals(
            starts, ends, owners, order[order < starts.size], window_len,
            self._alive,
        )
        self._py_alive = memoryview(self._alive)

        # The explicit-only phase: the shared candidates, ascending, their
        # count, and the devices covered since the explicit count was
        # last brought up to date.
        self._candidates: List[int] = []
        self._best = 0
        self._pending: List[np.ndarray] = []

    @property
    def remaining(self) -> int:
        """Devices not yet covered by any selection."""
        return self._remaining

    def select(
        self, rng: Optional[np.random.Generator] = None
    ) -> Tuple[int, np.ndarray]:
        """Pick the best window over the uncovered devices, remove it.

        Returns ``(start, covered)`` where ``covered`` holds the covered
        devices' *original* fleet indices in ascending order. Tie-breaks
        match the reference's per-round sweep exactly:
        uniformly at random over the maximal segments when ``rng`` is
        given, earliest segment otherwise.

        With no folded period left, the round draws from the list of
        maximal positions the last refill built, minus those inside an
        interval of a device covered since (counts only fall, so the
        rest still have the maximum, and nothing else reaches it). It
        deletes the positions inside the intervals of the devices it
        covers; the devices themselves leave the explicit count when
        the list is empty, before it is refilled.
        """
        if not self._folded:
            return self._select_tied(rng)
        best, s = self._select_folded(rng)
        explicit = self._intervals.stab(s, *self._intervals.stab_range(s))
        covered = np.concatenate([explicit] + [
            part.take(s, self._alive, self._folded_counts)
            for part in self._folded
        ])
        self._folded = [part for part in self._folded if part.alive]
        covered = np.sort(covered)
        self._check(best, s, covered.size)
        self._alive[covered] = False
        self._remaining -= covered.size
        if explicit.size:
            self._remove(explicit)
        return s, covered

    def _select_tied(
        self, rng: Optional[np.random.Generator]
    ) -> Tuple[int, np.ndarray]:
        """A round of the explicit-only phase, from the shared candidates."""
        if not self._candidates:
            self._refill()
        candidates, intervals = self._candidates, self._intervals
        pick = 0 if rng is None else int(rng.integers(len(candidates)))
        s = candidates[pick]
        lo, hi = intervals.stab_range(s)
        if intervals.few(lo, hi):
            few = intervals.stab_few(s, lo, hi)
            self._check(self._best, s, len(few))
            alive = self._py_alive
            for device in few:
                alive[device] = False
            self._candidates = intervals.drop_few(candidates, few)
            covered = np.array(few, dtype=np.int64)
        else:
            covered = intervals.stab(s, lo, hi)
            self._check(self._best, s, covered.size)
            self._alive[covered] = False
            self._candidates = intervals.drop(candidates, covered)
        self._remaining -= covered.size
        self._pending.append(covered)
        return s, covered

    def _refill(self) -> None:
        """Bring the explicit count up to date and list its maximal
        positions."""
        if self._pending:
            self._remove(np.concatenate(self._pending))
            self._pending = []
        best, positions = self._explicit.candidates()
        self._best, self._candidates = best, positions.tolist()

    def _remove(self, devices: np.ndarray) -> None:
        """Take the intervals of ``devices``, already dead, out of the
        count."""
        self._explicit.remove(self._intervals.of(devices))
        self._intervals.forget_dead()

    @staticmethod
    def _check(best: int, start: int, covered: int) -> None:
        if covered != best:
            raise SetCoverError(
                f"sweep inconsistency: counted {best} devices but window at "
                f"{start} covers {covered}"
            )

    def _select_folded(
        self, rng: Optional[np.random.Generator]
    ) -> Tuple[int, int]:
        """The round's best count and start when some period is folded."""
        hs, q, counts = self._horizon_start, self._q, self._folded_counts
        seg_pos, seg_count = self._explicit.segments()
        inside = int(seg_pos.searchsorted(self._s_max, side="right"))
        seg_pos, seg_count = seg_pos[:inside], seg_count[:inside]
        if seg_pos.size == 0 or seg_pos[0] != hs:
            seg_pos = np.concatenate([[hs], seg_pos])
            seg_count = np.concatenate([[0], seg_count])
        seg_end = np.empty_like(seg_pos)
        seg_end[:-1] = seg_pos[1:]
        seg_end[-1] = self._s_max + 1
        length = seg_end - seg_pos

        # Best folded count over each explicit segment that may hold the
        # best count.
        keep, seg_max = _segment_maxima(counts, seg_pos, seg_count, length)
        total = seg_max + seg_count[keep]
        best = int(total.max())

        # Candidates per maximal segment: its first position (an explicit
        # event, or hs) and the folded interval starts strictly inside it.
        # Other positions inside it are either no event or only ends,
        # where the count has just dropped, so never maximal.
        hit = keep[total == best]
        first, end = seg_pos[hit], seg_end[hit]
        target = best - seg_count[hit]
        at_first = (counts[first % q] == target).astype(np.int64)
        inside = np.zeros(hit.size, dtype=np.int64)
        wide = end - first > 1
        starts = None
        if wide.any():
            starts = self._folded_starts()
            for value in np.unique(target[wide]).tolist():
                good = np.zeros(q + 1, dtype=np.int64)
                np.cumsum((counts == value) & starts, out=good[1:])
                sel = wide & (target == value)
                lo, hi = first[sel] + 1, end[sel]
                inside[sel] = (
                    (hi // q - lo // q) * good[q] + good[hi % q] - good[lo % q]
                )
        cum = np.cumsum(at_first + inside)
        k = 0 if rng is None else int(rng.integers(int(cum[-1])))
        j = int(np.searchsorted(cum, k, side="right"))
        k -= int(cum[j - 1]) if j else 0
        if at_first[j] and k == 0:
            return best, int(first[j])
        k -= int(at_first[j])
        residues = np.nonzero((counts == target[j]) & starts)[0]
        lo = int(first[j]) + 1
        g = int(np.searchsorted(residues, lo % q)) + k
        base = lo - lo % q + (g // residues.size) * q
        return best, int(base + residues[g % residues.size])

    def _folded_starts(self) -> np.ndarray:
        """Residues mod ``Q`` where a folded interval starts.

        Periods shorter than the window have one interval spanning every
        start, so they add none.
        """
        starts = np.zeros(self._q, dtype=bool)
        for part in self._folded:
            if part.period >= self._window_len:
                starts.reshape(-1, part.period)[:] |= part.starts()
        return starts

