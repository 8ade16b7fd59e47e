"""Unit tests for TS 36.304-style PF/PO computation.

The spec vectors run against the package's column kernels,
``v_paging_frame_offset`` and ``v_paging_subframe``; the per-device
formula they were vectorised from is the oracle in
``tests/paging_oracle.py``, whose own checks close this file.
"""

import numpy as np
import pytest
from paging_oracle import (
    PagingOccasionPattern,
    default_hashed_id,
    paging_frame_offset,
    pattern_for,
)

from repro.drx.cycles import DrxCycle
from repro.drx.paging import (
    HASHED_ID_SPACE,
    NB,
    UE_ID_SPACE,
    v_default_hashed_id,
    v_paging_frame_offset,
    v_paging_subframe,
)
from repro.drx.schedule import v_count_in
from repro.errors import PagingError
from repro.timebase import FRAMES_PER_HYPERFRAME


def _offsets(ue_ids, cycle, nb=NB.ONE_T):
    """Frame offsets of the UE_IDs ``ue_ids`` on one cycle, as a list."""
    ue_ids = np.asarray(ue_ids, dtype=np.int64)
    cycles = np.full(ue_ids.shape, int(cycle), dtype=np.int64)
    return v_paging_frame_offset(ue_ids, cycles, nb).tolist()


def _subframes(ue_ids, cycle, nb=NB.ONE_T):
    """PO subframes of the UE_IDs ``ue_ids`` on one cycle, as a list."""
    ue_ids = np.asarray(ue_ids, dtype=np.int64)
    cycles = np.full(ue_ids.shape, int(cycle), dtype=np.int64)
    return v_paging_subframe(ue_ids, cycles, nb).tolist()


class TestRegularCycles:
    def test_offset_formula_nb_one_t(self):
        """For nB = T: N = T and offset = UE_ID mod T."""
        ue_ids = [0, 1, 255, 256, 4095]
        assert _offsets(ue_ids, DrxCycle(256)) == [u % 256 for u in ue_ids]

    def test_offset_formula_quarter_t(self):
        """For nB = T/4: N = T/4 and offset = 4 * (UE_ID mod N)."""
        assert _offsets([5, 64], DrxCycle(256), NB.QUARTER_T) == [20, 0]

    def test_offset_within_cycle(self):
        for nb in NB:
            offsets = _offsets([0, 17, 1023, 4095], DrxCycle(1024), nb)
            assert all(0 <= offset < 1024 for offset in offsets)

    def test_subframe_single_po_per_frame(self):
        """Ns = 1 (nB <= T): the PO is subframe 9."""
        assert _subframes([123], DrxCycle(256), NB.ONE_T) == [9]
        assert _subframes([123], DrxCycle(256), NB.HALF_T) == [9]

    def test_subframe_ns_two(self):
        """Ns = 2 (nB = 2T): subframes alternate between 4 and 9."""
        assert set(_subframes(range(512), DrxCycle(256), NB.TWO_T)) == {4, 9}

    def test_subframe_ns_four(self):
        values = set(_subframes(range(1024), DrxCycle(256), NB.FOUR_T))
        assert values == {0, 4, 5, 9}

    def test_invalid_ue_id(self):
        with pytest.raises(PagingError):
            _offsets([UE_ID_SPACE], DrxCycle(256))
        with pytest.raises(PagingError):
            _offsets([-1], DrxCycle(256))
        with pytest.raises(PagingError):
            _subframes([0, UE_ID_SPACE], DrxCycle(256))


class TestEdrxCycles:
    def test_edrx_phase_spreads_over_full_cycle(self):
        """The paging hyperframe must distribute eDRX devices across the
        whole cycle, not just the first SFN period — this was the paper
        model's key realism requirement."""
        offsets = set(_offsets(range(1024), DrxCycle.from_seconds(10485.76)))
        beyond_first_hyperframe = {
            o for o in offsets if o >= FRAMES_PER_HYPERFRAME
        }
        assert len(beyond_first_hyperframe) > len(offsets) // 2

    def test_edrx_offset_combines_ph_and_pf(self):
        cycle = DrxCycle.from_seconds(20.48)  # 2 hyperframes
        ue_id = 77
        ph = int(v_default_hashed_id(np.array([ue_id]))[0]) % 2
        pf = ue_id % FRAMES_PER_HYPERFRAME
        assert _offsets([ue_id], cycle) == [ph * FRAMES_PER_HYPERFRAME + pf]

    def test_default_hashed_id_range_and_spread(self):
        values = set(v_default_hashed_id(np.arange(UE_ID_SPACE)).tolist())
        assert all(0 <= v < HASHED_ID_SPACE for v in values)
        # The multiplicative mix should hit most of the 10-bit space.
        assert len(values) > HASHED_ID_SPACE // 2


class TestNesting:
    """Shortening a cycle must preserve existing POs (DA-SC's invariant)."""

    @pytest.mark.parametrize("ue_id", [0, 1, 511, 1702, 4095])
    @pytest.mark.parametrize("nb", [NB.ONE_T, NB.QUARTER_T])
    def test_po_grids_nest_downward(self, ue_id, nb):
        long = DrxCycle.from_seconds(163.84)
        (long_phase,) = _offsets([ue_id], long, nb)
        long_pos = long_phase + int(long) * np.arange(3)
        for shorter_seconds in (81.92, 40.96, 20.48, 10.24, 2.56):
            short = DrxCycle.from_seconds(shorter_seconds)
            (short_phase,) = _offsets([ue_id], short, nb)
            # Every long-cycle PO frame is also a short-cycle PO frame.
            on_short_grid = v_count_in(
                np.full(3, short_phase), np.full(3, int(short)), long_pos, long_pos + 1
            )
            assert on_short_grid.tolist() == [1, 1, 1], (
                f"a PO of T={long.seconds}s lost at T'={short.seconds}s"
            )


class TestPattern:
    def test_pattern_fields(self):
        assert _offsets([100], DrxCycle(256)) == [100]
        assert _subframes([100], DrxCycle(256)) == [9]


class TestScalarOracle:
    """The per-device formula of ``tests/paging_oracle.py`` itself."""

    def test_explicit_hashed_id_respected(self):
        cycle = DrxCycle.from_seconds(40.96)  # 4 hyperframes
        offset = paging_frame_offset(9, cycle, NB.ONE_T, hashed_id=3)
        assert offset == 3 * FRAMES_PER_HYPERFRAME + 9

    def test_invalid_hashed_id(self):
        cycle = DrxCycle.from_seconds(40.96)
        with pytest.raises(PagingError):
            paging_frame_offset(9, cycle, NB.ONE_T, hashed_id=HASHED_ID_SPACE)

    def test_default_hashed_id_is_the_kernel_mix(self):
        ue_ids = np.arange(UE_ID_SPACE)
        assert v_default_hashed_id(ue_ids).tolist() == [
            default_hashed_id(int(u)) for u in ue_ids
        ]

    def test_pattern_rejects_bad_phase(self):
        with pytest.raises(PagingError):
            PagingOccasionPattern(phase=300, cycle=DrxCycle(256), subframe=9)
        with pytest.raises(PagingError):
            PagingOccasionPattern(phase=0, cycle=DrxCycle(256), subframe=10)

    def test_pattern_fields(self):
        pattern = pattern_for(100, DrxCycle(256), NB.ONE_T)
        assert (pattern.phase, int(pattern.cycle), pattern.subframe) == (100, 256, 9)
