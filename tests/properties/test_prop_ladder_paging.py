"""Property-based tests: ladder algebra and PO-grid nesting.

The paging properties hold of the package's column kernels, and the
kernels equal the per-device oracle of ``tests/paging_oracle.py``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from paging_oracle import pattern_for

from repro.drx.cycles import FULL_LADDER
from repro.drx.paging import NB, v_paging_frame_offset, v_paging_subframe

ladder_cycles = st.sampled_from(list(FULL_LADDER))
ue_ids = st.integers(min_value=0, max_value=4095)
nbs = st.sampled_from([NB.ONE_T, NB.HALF_T, NB.QUARTER_T, NB.TWO_T])


class TestLadderProperties:
    @given(ladder_cycles, ladder_cycles)
    def test_divides_iff_not_longer(self, a, b):
        assert a.divides(b) == (int(a) <= int(b))


def _kernels(ue_id, cycles, nb):
    """(phase, subframe) of UE_ID ``ue_id`` on each of ``cycles``."""
    ue_ids = np.full(len(cycles), ue_id, dtype=np.int64)
    frames = np.array([int(c) for c in cycles], dtype=np.int64)
    phases = v_paging_frame_offset(ue_ids, frames, nb).tolist()
    subframes = v_paging_subframe(ue_ids, frames, nb).tolist()
    return list(zip(phases, subframes))


class TestNestingProperty:
    """The DA-SC invariant: shortening a cycle never loses POs."""

    @given(ue_ids, ladder_cycles, ladder_cycles, nbs)
    @settings(max_examples=200)
    def test_grids_nest(self, ue_id, long, short, nb):
        if int(short) > int(long):
            long, short = short, long
        (long_phase, _), (short_phase, _) = _kernels(ue_id, (long, short), nb)
        # The first few long-cycle POs are on the short grid.
        for k in range(3):
            po = long_phase + k * int(long)
            assert po >= short_phase and (po - short_phase) % int(short) == 0

    @given(ue_ids, ladder_cycles, nbs)
    @settings(max_examples=100)
    def test_phase_in_range(self, ue_id, cycle, nb):
        ((phase, subframe),) = _kernels(ue_id, (cycle,), nb)
        assert 0 <= phase < int(cycle)
        assert 0 <= subframe <= 9

    @given(ue_ids, ladder_cycles, nbs)
    @settings(max_examples=50)
    def test_kernels_match_the_scalar_oracle(self, ue_id, cycle, nb):
        pattern = pattern_for(ue_id, cycle, nb)
        assert _kernels(ue_id, (cycle,), nb) == [(pattern.phase, pattern.subframe)]
