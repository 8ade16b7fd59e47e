"""Property: the IMSI sampler draws without replacement, in range, exact.

The fleet constructors *trust* :func:`~repro.traffic.generator.
sample_imsis` instead of rescanning the column for duplicates (the
validate-once half of the trust-the-creator contract), so the sampler's
guarantees — exactly ``n`` IMSIs, all distinct, all inside the operator
range — are load-bearing for every downstream fleet. Hypothesis drives
both draws (the historical direct draw ``sample_imsis`` takes up to
``_DIRECT_DRAW_MAX`` devices, and the O(n) batched rejection sampler
``_rejection_sample`` it takes beyond) across sizes up to 10^5 and
asserts the guarantees plus the threshold and determinism contracts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.traffic.generator import (
    _DIRECT_DRAW_MAX,
    _IMSI_BASE,
    _IMSI_RANGE,
    _rejection_sample,
    sample_imsis,
)

#: Log-ish size spread: plenty of tiny draws (where off-by-ones hide)
#: plus sizes up to 10^5 (the direct/rejection threshold).
_SIZES = st.one_of(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=65, max_value=4_096),
    st.integers(min_value=4_097, max_value=100_000),
)


@settings(max_examples=30, deadline=None)
@given(n=_SIZES, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_direct_draw_unique_in_range_exact(n, seed):
    imsis = sample_imsis(n, np.random.default_rng(seed))
    assert imsis.shape == (n,) and imsis.dtype == np.int64
    assert np.unique(imsis).size == n
    assert imsis.min() >= _IMSI_BASE
    assert imsis.max() < _IMSI_BASE + _IMSI_RANGE


@settings(max_examples=30, deadline=None)
@given(n=_SIZES, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_rejection_draw_unique_in_range_exact(n, seed):
    imsis = _rejection_sample(n, np.random.default_rng(seed)) + _IMSI_BASE
    assert imsis.shape == (n,) and imsis.dtype == np.int64
    assert np.unique(imsis).size == n
    assert imsis.min() >= _IMSI_BASE
    assert imsis.max() < _IMSI_BASE + _IMSI_RANGE


@settings(max_examples=20, deadline=None)
@given(n=_SIZES, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_rejection_is_deterministic_per_stream(n, seed):
    first = _rejection_sample(n, np.random.default_rng(seed))
    second = _rejection_sample(n, np.random.default_rng(seed))
    assert np.array_equal(first, second)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=_DIRECT_DRAW_MAX),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_auto_is_direct_below_threshold(n, seed):
    """Every golden-pinned fleet size keeps the historical stream."""
    auto = sample_imsis(n, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    direct = rng.choice(_IMSI_RANGE, size=n, replace=False) + _IMSI_BASE
    assert np.array_equal(auto, direct)


def test_auto_is_rejection_above_threshold():
    n = _DIRECT_DRAW_MAX + 1
    auto = sample_imsis(n, np.random.default_rng(11))
    rejection = _rejection_sample(n, np.random.default_rng(11)) + _IMSI_BASE
    assert np.array_equal(auto, rejection)
    assert np.unique(auto).size == n


def test_sampler_rejects_bad_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        sample_imsis(0, rng)
    with pytest.raises(ConfigurationError):
        sample_imsis(_IMSI_RANGE + 1, rng)
