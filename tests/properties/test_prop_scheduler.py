"""Property: the array overlap count matches its pairwise oracle.

``repro.enb.scheduler._count_overlaps`` counts overlapping pairs with one
``searchsorted`` over the sorted ends;
``plan_oracle.count_overlaps_reference`` is the O(n^2) definition
(count pairs of half-open intervals that intersect). They must agree on
every interval multiset, including heavy ties and nested intervals.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from plan_oracle import count_overlaps_reference

from repro.enb.scheduler import _count_overlaps

transmissions = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=1, max_value=50),
    ),
    max_size=40,
)


def _columns(txs):
    frame = np.array([start for start, _ in txs], dtype=np.int64)
    duration = np.array([length for _, length in txs], dtype=np.int64)
    return frame, duration


@settings(max_examples=200, deadline=None)
@given(transmissions)
def test_array_count_matches_pairwise_reference(txs):
    assert _count_overlaps(*_columns(txs)) == count_overlaps_reference(*_columns(txs))


@settings(max_examples=100, deadline=None)
@given(transmissions)
def test_order_invariance(txs):
    assert _count_overlaps(*_columns(txs)) == _count_overlaps(
        *_columns(list(reversed(txs)))
    )
