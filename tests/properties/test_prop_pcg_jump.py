"""Property: the repair kernel's jump-ahead doubles equal the generator's.

Kernel repair rounds read a PCG64 or PCG64DXSM stream at arbitrary
offsets through :func:`~repro.multicast.reliability._doubles` instead
of drawing whole spans. For random 128-bit states and increments, its
double at offset k must be the one ``advance(k)`` then ``random()``
gives, bit for bit. The offsets always include 0, both sides of every
low-table block boundary the high table resolves (k·2^_LOW_BITS - 1
and k·2^_LOW_BITS, for each power-of-two k and the last block), and
the batch span limit ``_SPAN - 1``, plus random offsets below it. A
full batch of ``_BATCH`` offsets touching every one of the
2^_HIGH_BITS high blocks, the most per-block entries the kernel's
scratch holds, is checked too, given relative to a non-zero origin.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multicast.reliability import (
    _BATCH,
    _HIGH_BITS,
    _LOW_BITS,
    _SCRATCH_ROWS,
    _SPAN,
    _Jumps,
    _doubles,
    _scratch,
)

KINDS = (np.random.PCG64, np.random.PCG64DXSM)


def _boundaries():
    """Offset 0, both sides of each table boundary, the span limit."""
    blocks = {1 << e for e in range(_HIGH_BITS)} | {(1 << _HIGH_BITS) - 1}
    sides = {b * (1 << _LOW_BITS) + d for b in blocks for d in (-1, 0)}
    return {0, 1, _SPAN - 1} | sides


_STATE = st.integers(min_value=0, max_value=(1 << 128) - 1)
_OFFSETS = st.lists(
    st.integers(min_value=0, max_value=_SPAN - 1), max_size=40
)


def _reference(kind, state, k):
    generator = kind(0)
    generator.state = state
    generator.advance(k)
    return np.random.Generator(generator).random()


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
@settings(max_examples=30, deadline=None)
@given(state=_STATE, inc=_STATE, extra=_OFFSETS)
def test_kernel_doubles_equal_advance_then_random(kind, state, inc, extra):
    offsets = np.array(sorted(_boundaries() | set(extra)), dtype=np.int64)
    assert offsets.size <= _BATCH
    bit_state = kind(0).state
    bit_state["state"] = {"state": state, "inc": inc | 1}
    scratch = _scratch(np.empty(_SCRATCH_ROWS * _BATCH), _BATCH)
    doubles = _doubles(_Jumps(kind, inc | 1), state, offsets, scratch)
    expected = [_reference(kind, bit_state, int(k)) for k in offsets]
    np.testing.assert_array_equal(doubles, expected)


def _full_batch():
    """``_BATCH`` sorted offsets, an equal share in every high block.

    Each block holds its first and last offset and one random offset in
    each of ``share - 2`` equal strata between them.
    """
    blocks = 1 << _HIGH_BITS
    share = _BATCH // blocks
    width, strata = (1 << _LOW_BITS) - 2, share - 2
    rng = np.random.default_rng(2018)
    inner = 1 + np.arange(strata) * width // strata + rng.integers(
        0, width // strata, size=(blocks, strata)
    )
    lows = np.column_stack(
        [np.zeros(blocks, int), inner, np.full(blocks, width + 1)]
    )
    return ((np.arange(blocks)[:, None] << _LOW_BITS) + lows).ravel()


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
def test_full_batch_over_every_high_block(kind):
    offsets = _full_batch()
    assert offsets.size == _BATCH
    assert np.unique(offsets >> _LOW_BITS).size == 1 << _HIGH_BITS
    assert np.all(np.diff(offsets) > 0) and offsets[-1] == _SPAN - 1
    state, inc = (1 << 127) + 12345, (0x5851F42D4C957F2D << 64) | 1
    origin = 987_654_321
    scratch = _scratch(np.empty(_SCRATCH_ROWS * _BATCH), _BATCH)
    doubles = _doubles(
        _Jumps(kind, inc), state, offsets + origin, scratch, origin
    )
    bit_state = kind(0).state
    bit_state["state"] = {"state": state, "inc": inc}
    expected = [_reference(kind, bit_state, int(k)) for k in offsets]
    np.testing.assert_array_equal(doubles, expected)
