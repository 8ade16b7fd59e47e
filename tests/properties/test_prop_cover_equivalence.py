"""Cover-equivalence properties: incremental sweep == reference == set cover.

The incremental greedy (:mod:`repro.setcover.incremental`) must pick
*identical* windows to the per-round re-sweep of ``tests/cover_oracle.py``
— same starts, same assignments, same tie-break draws for any given RNG
stream — on randomized fleets up to 10^4 devices. The short-horizon fleets (at
most 16 POs per period) keep their periods explicit except at 10^4
devices; the ladder fleets always give the kernel a period to fold onto
residue histograms, next to explicit ones, with window lengths below,
equal to and above the folded period, a horizon that starts before,
at or after frame 0 and periods that are not powers of two. The
crossover fleets run the explicit count from no device (every period
folded) through small fleets to past 2,000 devices, where the count
array's blocks meet its edge cases. The
tied fleets (long periods, phases from a small pool) make many rounds in
a row tie, so they draw from one shared candidate list; with a generator,
both paths must also leave it in the same state. A city-rollout-shaped
cell (a few folded rounds, then hundreds of tied
rounds of a few devices) and clusters whose tied rounds read exactly
``FEW_INTERVALS`` or ``FEW_INTERVALS + 1`` overlapping intervals meet
the edge between the plain-Python and the numpy rounds. The pruned
range maxima of the folded rounds are checked against a brute-force
maximum over ``S`` doubled, on both of their branches. A
SHA-256 of one paper-default cover, computed with the all-intervals
sweep the fold replaced, pins the kernel's output. On small fleets the window greedy
is additionally cross-checked against the generic
:func:`cover_oracle.greedy_set_cover` over the explicit set
system of candidate window starts (both break ties earliest-first, so
their per-round covered sets must coincide exactly).
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from cover_oracle import greedy_set_cover, reference_window_cover

import repro.setcover.incremental as incremental
from repro.errors import TimebaseError
from repro.setcover.decision import GroupingDecision
from repro.setcover.greedy import greedy_window_cover
from repro.setcover.incremental import (
    FEW_INTERVALS,
    FOLD_MIN_POS_PER_TABLE_ENTRY,
    IncrementalSweep,
    _BlockedCounts,
    _fold_periods,
    _segment_maxima,
)
from repro.setcover.windows import coverage_intervals
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import PAPER_DEFAULT_MIXTURE

PERIOD_CHOICES = (2048, 4096, 8192, 16384)

#: The DRX/eDRX ladder in frames, 128 up to 1048576.
LADDER = tuple(2**k for k in range(7, 21))

#: SHA-256 over the window starts, then every group's int64 members in
#: selection order, of the paper-default cover in TestParentCoverDigest,
#: computed with the sweep that kept one interval per PO.
PARENT_COVER_SHA256 = (
    "2651f415ee73e9b36ec3f1417b3126981b57b5a36e2b251582d767b4cbca3699"
)


def _random_fleet(rng: np.random.Generator, n: int):
    periods = rng.choice(PERIOD_CHOICES, size=n)
    phases = rng.integers(0, periods)
    return phases.astype(np.int64), periods.astype(np.int64)


def _assert_identical_covers(a, b):
    for column in ("start", "end", "members", "bounds"):
        np.testing.assert_array_equal(getattr(a, column), getattr(b, column))


def _tie_rngs(seed):
    """Two generators seeded alike (or no generator) for the two paths."""
    if seed is None:
        return None, None
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _assert_same_end_state(ref_rng, inc_rng):
    if ref_rng is not None:
        assert ref_rng.bit_generator.state == inc_rng.bit_generator.state


@st.composite
def fleets(draw, max_devices=30):
    n = draw(st.integers(min_value=1, max_value=max_devices))
    periods = draw(
        st.lists(st.sampled_from(PERIOD_CHOICES), min_size=n, max_size=n)
    )
    phases = [draw(st.integers(min_value=0, max_value=p - 1)) for p in periods]
    return np.array(phases, dtype=np.int64), np.array(periods, dtype=np.int64)


@st.composite
def crossover_fleets(draw):
    """Fleets of none, a few or past 2,000 long-period devices.

    So the explicit count runs from empty (when 1,200 devices of a
    2048-frame period fold and nothing else is drawn) through small
    fleets to thousands of devices, with its edge cases: devices drawn
    from a small pool of
    phases, so that interval starts coincide across devices; pool
    phases below 64 frames, whose first interval starts clipped to the
    horizon start; a few devices of a short, non-folding period, with
    tens of intervals each whose removal touches many blocks (one
    interval spanning the range when the period is below the window);
    and optionally a folded period beside them.
    """
    n = draw(st.one_of(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=1_950, max_value=2_200),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    periods = rng.choice([16384, 32768], size=n)
    pool = np.concatenate([
        rng.integers(0, 64, size=draw(st.integers(1, 4))),
        rng.integers(0, 16384, size=draw(st.integers(1, 40))),
    ])
    phases = rng.choice(pool, size=n)
    short = draw(st.integers(min_value=500, max_value=3000))
    n_short = draw(st.integers(min_value=0, max_value=5))
    n_folded = draw(st.sampled_from([0, 300] if n else [300, 1_200]))
    periods = np.concatenate([periods, [short] * n_short, [2048] * n_folded])
    phases = np.concatenate([
        phases,
        rng.integers(0, short, size=n_short),
        rng.choice(pool % 2048, size=n_folded),
    ])
    return phases.astype(np.int64), periods.astype(np.int64)


@st.composite
def tied_fleets(draw):
    """Sparse long-period fleets whose windows tie, round after round.

    Most devices share one long period (2^17..2^20 frames, two POs each
    in the horizon) and draw their phases from a small pool, so many
    windows cover the same number of devices and rounds that tie share
    one candidate list. A few devices of a quarter or an eighth of that
    period have several intervals each; pool phases below 64 frames start
    their first interval clipped to the horizon start; optionally a
    folded 2048-frame period sits beside them. The device count runs
    from small fleets to past 2,000.
    """
    longest = draw(st.sampled_from([2**17, 2**18, 2**20]))
    n = draw(st.one_of(
        st.integers(min_value=20, max_value=600),
        st.integers(min_value=2_000, max_value=2_300),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.concatenate([
        rng.integers(0, 64, size=draw(st.integers(0, 3))),
        rng.integers(0, longest, size=draw(st.integers(2, 60))),
    ])
    several = longest // draw(st.sampled_from([4, 8]))
    n_several = draw(st.integers(min_value=0, max_value=20))
    n_folded = draw(st.sampled_from([0, 300]))
    periods = np.concatenate([
        np.full(n, longest),
        np.full(n_several, several),
        np.full(n_folded, 2048),
    ])
    phases = np.concatenate([
        rng.choice(pool, size=n),
        rng.choice(pool % several, size=n_several),
        rng.choice(pool % 2048, size=n_folded),
    ])
    return phases.astype(np.int64), periods.astype(np.int64)


def _cover_or_error(cover, *args):
    """The cover, or the message of the error that rejected a window
    starting before frame 0 (possible when the horizon does)."""
    try:
        return cover(*args)
    except TimebaseError as error:
        return str(error)


@st.composite
def ladder_fleets(draw):
    """A fleet with one period dense enough to fold, beside explicit ones.

    Returns ``(phases, periods, window_len, horizon_start, horizon_end)``.
    The longest period (2^18..2^20 frames) stretches the horizon so the
    dense period has many POs in it; its device count is the fewest that
    make it fold, plus a few.
    """
    longest = draw(st.sampled_from(LADDER[-3:]))
    dense = draw(
        st.one_of(
            st.sampled_from(LADDER[:6]), st.integers(min_value=100, max_value=3000)
        )
    )
    others = draw(
        st.lists(
            st.one_of(
                st.sampled_from([p for p in LADDER if p <= longest]),
                st.integers(min_value=50, max_value=longest),
            ),
            max_size=3,
        )
    )
    horizon_start = draw(
        st.one_of(
            st.just(0),
            st.integers(min_value=1, max_value=200_000),
            st.integers(min_value=-5_000, max_value=-1),
        )
    )
    horizon_len = 2 * longest + draw(st.integers(min_value=0, max_value=5000))
    fold_pos = FOLD_MIN_POS_PER_TABLE_ENTRY * dense * np.log2(dense)
    min_dense = int(np.ceil(fold_pos / (horizon_len // dense)))
    n_dense = min_dense + draw(st.integers(min_value=0, max_value=8))
    periods = [dense] * n_dense + [longest] + [
        period for period in others for _ in range(draw(st.integers(1, 12)))
    ]
    phases = [draw(st.integers(min_value=0, max_value=p - 1)) for p in periods]
    window_len = draw(
        st.one_of(
            st.integers(min_value=max(1, dense // 16), max_value=dense - 1),
            st.just(dense),
            st.integers(min_value=dense + 1, max_value=2 * dense),
            st.sampled_from(sorted(set(others)) or [dense]),
        )
    )
    return (
        np.array(phases, dtype=np.int64),
        np.array(periods, dtype=np.int64),
        window_len,
        horizon_start,
        horizon_start + horizon_len,
    )


class TestFoldedMatchesReference:
    """Fleets that reach the fold, against the per-round re-sweep."""

    @given(ladder_fleets(), st.one_of(st.none(), st.integers(0, 2**31)))
    @settings(max_examples=100, deadline=None)
    def test_ladder_fleets(self, fleet, seed):
        phases, periods, window_len, hs, he = fleet
        assert _fold_periods(periods, hs, he).size > 0
        ref_rng, inc_rng = _tie_rngs(seed)
        args = (phases, periods, window_len, hs, he)
        ref = _cover_or_error(reference_window_cover, *args, ref_rng)
        inc = _cover_or_error(greedy_window_cover, *args, inc_rng)
        if isinstance(ref, str):
            assert inc == ref
        else:
            _assert_identical_covers(ref, inc)
        _assert_same_end_state(ref_rng, inc_rng)

    @pytest.mark.parametrize("window_len", [1000, 2048, 3000])
    def test_paper_default_fleet_with_offset_horizon(self, window_len):
        """A paper-default fleet: 2048..8192 fold, 2^20 stays explicit."""
        fleet = generate_fleet(2_000, PAPER_DEFAULT_MIXTURE, np.random.default_rng(3))
        hs = 12_345
        he = hs + 2 * int(fleet.max_cycle)
        assert _fold_periods(fleet.periods, hs, he).tolist() == [2048, 4096, 8192]
        for seed in (None, 5):
            ref_rng, inc_rng = _tie_rngs(seed)
            args = (fleet.phases, fleet.periods, window_len, hs, he)
            ref = reference_window_cover(*args, ref_rng)
            inc = greedy_window_cover(*args, inc_rng)
            _assert_identical_covers(ref, inc)
            _assert_same_end_state(ref_rng, inc_rng)

    def test_every_period_folded(self):
        """1,200 devices of one 2048-frame period fold whole: the explicit
        count holds no position and every round is a folded one."""
        rng = np.random.default_rng(11)
        phases = rng.integers(0, 2048, size=1_200)
        periods = np.full(1_200, 2048, dtype=np.int64)
        args = (phases, periods, 500, 0, 4096)
        sweep = IncrementalSweep(*args)
        assert isinstance(sweep._explicit, _BlockedCounts)
        assert sweep._explicit.positions.size == 0
        for seed in (None, 5):
            ref_rng, inc_rng = _tie_rngs(seed)
            ref = reference_window_cover(*args, ref_rng)
            inc = greedy_window_cover(*args, inc_rng)
            _assert_identical_covers(ref, inc)
            _assert_same_end_state(ref_rng, inc_rng)


@st.composite
def folded_segments(draw, branch=None):
    """``(counts, seg_pos, seg_count, length)`` for :func:`_segment_maxima`.

    ``S`` on ``Q`` residues with small values, so maxima tie, and
    consecutive segments from a start that may be negative, with
    lengths of 1, below ``Q`` (wrapping past it or not) and at least
    ``Q``. For ``branch="table"`` the bulk of the segments share one
    explicit count and reach nearly ``Q`` each, so the survivors' spans
    outgrow the sparse table; for ``"reduceat"`` there are at most two
    segments per table row, so they cannot.
    """
    q = draw(st.integers(2 if branch == "table" else 1, 48))
    counts = np.array(
        draw(st.lists(st.integers(0, 5), min_size=q, max_size=q)),
        dtype=np.int64,
    )
    n_rows = max(1, (q - 1).bit_length())
    if branch == "table":
        n = 4 * n_rows + 1 + draw(st.integers(0, 8))
        lengths = draw(st.lists(
            st.integers(-(-q // 2), q - 1), min_size=n, max_size=n
        ))
        counts_per_segment = [3] * n
        extra = draw(st.integers(0, 6))
        lengths += draw(st.lists(
            st.integers(1, 2 * q), min_size=extra, max_size=extra
        ))
        counts_per_segment += draw(st.lists(
            st.integers(0, 2), min_size=extra, max_size=extra
        ))
    else:
        n = draw(st.integers(1, 2 * n_rows if branch == "reduceat" else 40))
        lengths = draw(st.lists(
            st.one_of(st.just(1), st.integers(1, 2 * q + 1)),
            min_size=n, max_size=n,
        ))
        counts_per_segment = draw(st.lists(
            st.integers(0, 6), min_size=n, max_size=n
        ))
    length = np.array(lengths, dtype=np.int64)
    start = draw(st.integers(-3 * q, 5 * q))
    seg_pos = start + np.concatenate([[0], np.cumsum(length[:-1])])
    return counts, seg_pos, np.array(counts_per_segment, np.int64), length


def _brute_segment_maxima(counts, seg_pos, length):
    """The maximum of ``counts`` doubled over each segment's residues."""
    q = counts.size
    doubled = np.concatenate([counts, counts])
    return np.array([
        doubled[pos % q : pos % q + min(span, q)].max()
        for pos, span in zip(seg_pos.tolist(), length.tolist())
    ])


def _check_segment_maxima(counts, seg_pos, seg_count, length):
    """Run :func:`_segment_maxima` against the brute force; return
    whether it built the sparse table."""
    real = incremental._range_max_table
    with mock.patch.object(
        incremental, "_range_max_table", side_effect=real
    ) as spy:
        keep, seg_max = _segment_maxima(counts, seg_pos, seg_count, length)
    brute = _brute_segment_maxima(counts, seg_pos, length)
    best = (seg_count + brute).max()
    assert keep.tolist() == sorted(set(keep.tolist()))
    np.testing.assert_array_equal(seg_max, brute[keep])
    # Every segment that ties the best is kept; every other one could not.
    reach = seg_count + brute == best
    assert set(np.flatnonzero(reach).tolist()) <= set(keep.tolist())
    dropped = np.setdiff1d(np.arange(seg_pos.size), keep)
    assert (seg_count[dropped] + counts.max() < best).all()
    return spy.called


class TestFoldedSegmentMaxima:
    """The folded rounds' pruned range maxima against a brute force."""

    @given(folded_segments())
    @settings(max_examples=150, deadline=None)
    def test_any_segments(self, case):
        _check_segment_maxima(*case)

    @given(folded_segments("reduceat"))
    @settings(max_examples=60, deadline=None)
    def test_reduceat_branch(self, case):
        assert not _check_segment_maxima(*case)

    @given(folded_segments("table"))
    @settings(max_examples=60, deadline=None)
    def test_table_branch(self, case):
        assert _check_segment_maxima(*case)

    def test_segment_at_the_floor_is_kept(self):
        """S = [5, 0, ..., 0] on 8 residues. Segment 0 reaches the floor,
        10, at its first start; segment 1 wraps past Q onto the 5 and
        its bound, 5 + 5, equals the floor exactly, so it is kept and
        ties; segment 2, one start long, has bound 9 and is pruned."""
        counts = np.array([5, 0, 0, 0, 0, 0, 0, 0], dtype=np.int64)
        seg_pos = np.array([1, 6, 10], dtype=np.int64)
        seg_count = np.array([10, 5, 4], dtype=np.int64)
        length = np.array([5, 4, 1], dtype=np.int64)
        assert not _check_segment_maxima(counts, seg_pos, seg_count, length)
        keep, seg_max = _segment_maxima(counts, seg_pos, seg_count, length)
        assert keep.tolist() == [0, 1]
        assert seg_max.tolist() == [0, 5]


def _city_cell_shape(fleet, seed):
    """Drive the sweep over a 3k-device paper-default cell and compare it
    with the reference; return (folded rounds, tied group sizes)."""
    args = (fleet.phases, fleet.periods, 2048, 0, 2**21)
    ref_rng, inc_rng = _tie_rngs(seed)
    ref = reference_window_cover(*args, ref_rng)
    sweep = IncrementalSweep(*args)
    assert isinstance(sweep._explicit, _BlockedCounts)
    starts, groups, n_folded = [], [], 0
    while sweep.remaining:
        n_folded += bool(sweep._folded)
        start, covered = sweep.select(inc_rng)
        starts.append(start)
        groups.append(covered)
    starts = np.array(starts, dtype=np.int64)
    _assert_identical_covers(
        ref, GroupingDecision.from_groups(starts, starts + 2048, groups)
    )
    _assert_same_end_state(ref_rng, inc_rng)
    return n_folded, [group.size for group in groups[n_folded:]]


def _clustered_fleet(size, seed):
    """Five clusters of ``size`` 2^20-frame devices, phases 3 frames
    apart, so their intervals overlap; plus 30 scattered devices."""
    rng = np.random.default_rng(seed)
    grid = np.arange(5_000, 2**20 - 5_000, 5_000)
    bases = rng.choice(grid, 5, replace=False)
    phases = np.concatenate([
        (bases[:, None] + 3 * np.arange(size)).ravel(),
        rng.integers(0, 2**20, size=30),
    ])
    return phases, np.full(phases.size, 2**20, dtype=np.int64)


class TestTiedRoundShapes:
    """The shapes where tied rounds switch between plain Python and numpy."""

    @pytest.mark.parametrize("seed", [None, 4, 5])
    def test_city_rollout_cell(self, seed):
        """About 3k paper-default devices, as in one city-rollout cell
        (about 1.7k of them explicit): about five rounds fold, then
        hundreds of tied rounds cover 1-12 devices each."""
        fleet = generate_fleet(
            3_000, PAPER_DEFAULT_MIXTURE, np.random.default_rng(2018)
        )
        n_folded, tied = _city_cell_shape(fleet, seed)
        assert 3 <= n_folded <= 8
        assert len(tied) >= 300
        assert 1 <= min(tied) and max(tied) <= 12

    @pytest.mark.parametrize("size", [FEW_INTERVALS, FEW_INTERVALS + 1])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stab_range_at_few_intervals(self, monkeypatch, size, seed):
        """Tied rounds whose stab range holds exactly ``FEW_INTERVALS``
        (plain Python) or one more (numpy) overlapping intervals."""
        phases, periods = _clustered_fleet(size, seed)
        ranges = []
        real = incremental._Intervals.stab_range

        def stab_range(intervals, start):
            lo, hi = real(intervals, start)
            ranges.append(hi - lo)
            return lo, hi

        monkeypatch.setattr(incremental._Intervals, "stab_range", stab_range)
        for tie_seed in (None, seed + 10):
            ref_rng, inc_rng = _tie_rngs(tie_seed)
            args = (phases, periods, 2048, 0, 2**21)
            ref = reference_window_cover(*args, ref_rng)
            inc = greedy_window_cover(*args, inc_rng)
            _assert_identical_covers(ref, inc)
            _assert_same_end_state(ref_rng, inc_rng)
        assert size in ranges


class TestParentCoverDigest:
    def test_paper_default_cover_unchanged(self):
        """20k paper-default devices, TI 2048, horizon [0, 2^21)."""
        fleet = generate_fleet(20_000, PAPER_DEFAULT_MIXTURE, np.random.default_rng(7))
        cover = greedy_window_cover(
            fleet.phases, fleet.periods, 2048, 0, 2**21, np.random.default_rng(13)
        )
        digest = hashlib.sha256(cover.start.tobytes())
        digest.update(cover.members.tobytes())
        assert digest.hexdigest() == PARENT_COVER_SHA256


class TestIncrementalMatchesReference:
    @given(
        st.one_of(fleets(), crossover_fleets()),
        st.integers(min_value=10, max_value=2048),
    )
    @settings(max_examples=60, deadline=None)
    def test_small_fleets_no_rng(self, fleet, window_len):
        phases, periods = fleet
        horizon = 2 * int(periods.max())
        ref = reference_window_cover(phases, periods, window_len, 0, horizon)
        inc = greedy_window_cover(phases, periods, window_len, 0, horizon)
        _assert_identical_covers(ref, inc)

    @given(
        st.one_of(fleets(), crossover_fleets(), tied_fleets()),
        st.integers(min_value=10, max_value=2048),
        st.integers(0, 2**31),
    )
    @settings(max_examples=80, deadline=None)
    def test_small_fleets_with_rng(self, fleet, window_len, seed):
        """Identical tie-break *draws*: both paths consume one RNG stream
        the same way, so seeding two generators alike must yield the
        same (possibly random) selections and leave both generators in
        the same state."""
        phases, periods = fleet
        horizon = 2 * int(periods.max())
        ref_rng, inc_rng = _tie_rngs(seed)
        args = (phases, periods, window_len, 0, horizon)
        ref = reference_window_cover(*args, ref_rng)
        inc = greedy_window_cover(*args, inc_rng)
        _assert_identical_covers(ref, inc)
        _assert_same_end_state(ref_rng, inc_rng)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_devices", [1_000, 10_000])
    def test_large_fleets(self, seed, n_devices):
        """Randomized fleets up to 10^4 devices, with and without rng."""
        rng = np.random.default_rng(seed)
        phases, periods = _random_fleet(rng, n_devices)
        window_len = int(rng.integers(16, 2048))
        horizon = 2 * int(periods.max())
        for tie_rng in (None, seed + 100):
            ref_rng, inc_rng = _tie_rngs(tie_rng)
            args = (phases, periods, window_len, 0, horizon)
            ref = reference_window_cover(*args, ref_rng)
            inc = greedy_window_cover(*args, inc_rng)
            _assert_identical_covers(ref, inc)
            _assert_same_end_state(ref_rng, inc_rng)


class TestWindowCoverMatchesSetCover:
    @pytest.mark.parametrize("seed", range(6))
    def test_same_greedy_partition(self, seed):
        """Deterministic window greedy == generic greedy over the
        explicit set system of candidate window starts.

        Candidate starts are the covering-interval start positions in
        ascending order; both algorithms break ties earliest/lowest
        first, so every round must cover the same device set.
        """
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 50))
        phases, periods = _random_fleet(rng, n)
        window_len = int(rng.integers(16, 1024))
        horizon = 2 * int(periods.max())

        starts, ends, owners = coverage_intervals(
            phases, periods, window_len, 0, horizon
        )
        candidates = np.unique(starts)
        sets = [
            frozenset(owners[(starts <= s) & (s < ends)].tolist())
            for s in candidates
        ]
        universe = set(range(n))
        chosen = greedy_set_cover(universe, sets)

        cover = greedy_window_cover(phases, periods, window_len, 0, horizon)
        assert len(chosen) == cover.n_groups
        uncovered = set(universe)
        groups = np.split(cover.members, cover.bounds[1:-1])
        for set_index, members in zip(chosen, groups):
            newly = sets[set_index] & uncovered
            assert newly == set(members.tolist())
            uncovered -= newly
        assert not uncovered
