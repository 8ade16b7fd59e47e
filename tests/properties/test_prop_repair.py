"""Property: chunk-major repair rounds equal the dense matrix oracle.

:func:`~repro.multicast.reliability.simulate_repair_rounds` runs each
device-row chunk through all of its rounds and jumps the generator to
the draws it needs; ``repair_oracle`` keeps the dense loop that draws
``rng.random((n, S))`` every round. For fleets of 1 to ~600 devices,
images with fewer and with more segments than a chunk holds (so chunks
are many rows, a partial last chunk, or single rows), loss rates from
1 % to 95 % and round caps that fire with a residual, every
:class:`RepairOutcome` field and the generator's end state must match —
over two consecutive calls on one generator, the multi-cell order.

The chunks run on 1, 2 or 3 threads (forced through the kernel's
private thread count, whatever the host's cores), and fleets of more
than three full chunks' pairs give the threads several chunks to share.
One such fleet, 2,400 devices x 1,024 segments at 15 % loss, is always
run: its round 3 fills whole kernel batches of the default size on
every thread.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repair_oracle import matrix_repair_rounds
from repro.multicast import reliability
from repro.multicast.payload import FirmwareImage
from repro.multicast.reliability import (
    _CHUNK_PAIRS,
    ReliabilityConfig,
    simulate_repair_rounds,
)

#: Thread counts forced on the kernel.
THREADS = (1, 2, 3)
#: Largest n x S the oracle's dense matrix is drawn for.
_ORACLE_PAIRS = 2_500_000

SEGMENT_BYTES = 512

#: Segment counts well below a chunk (many rows per chunk), just under
#: and over the chunk size, and above it (one row per chunk).
_SEGMENTS = st.one_of(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=_CHUNK_PAIRS // 3, max_value=_CHUNK_PAIRS // 2 + 7),
    st.integers(min_value=_CHUNK_PAIRS - 3, max_value=_CHUNK_PAIRS + 5_000),
)


@st.composite
def _cases(draw):
    n_segments = draw(_SEGMENTS)
    max_devices = max(1, min(600, _ORACLE_PAIRS // n_segments))
    n_devices = draw(st.integers(min_value=1, max_value=max_devices))
    return n_segments, n_devices


@st.composite
def _multi_chunk_cases(draw):
    """More than three full chunks' pairs, within the oracle's budget."""
    n_segments = draw(_SEGMENTS)
    min_devices = 3 * _CHUNK_PAIRS // n_segments + 1
    n_devices = draw(
        st.integers(
            min_value=min_devices,
            max_value=max(min_devices, _ORACLE_PAIRS // n_segments),
        )
    )
    return n_segments, n_devices


_LOSS = st.sampled_from([0.01, 0.15, 0.6, 0.95])
_MAX_ROUNDS = st.sampled_from([1, 2, 20])
_SEED = st.integers(min_value=0, max_value=2**32 - 1)


@pytest.mark.parametrize("threads", THREADS)
@settings(max_examples=40, deadline=None)
@given(
    case=_cases(),
    loss=_LOSS,
    max_rounds=_MAX_ROUNDS,
    seed=_SEED,
    buffered_half=st.booleans(),
)
def test_chunked_rounds_equal_matrix_oracle(
    threads, case, loss, max_rounds, seed, buffered_half
):
    _check_against_oracle(threads, case, loss, max_rounds, seed, buffered_half)


@pytest.mark.parametrize("threads", THREADS)
@settings(max_examples=8, deadline=None)
@given(
    case=_multi_chunk_cases(),
    loss=_LOSS,
    max_rounds=_MAX_ROUNDS,
    seed=_SEED,
    buffered_half=st.booleans(),
)
@example(
    case=(1024, 2400), loss=0.15, max_rounds=20, seed=2018,
    buffered_half=False,
)
def test_many_chunks_per_thread_equal_matrix_oracle(
    threads, case, loss, max_rounds, seed, buffered_half
):
    n_segments, n_devices = case
    with _forced(threads):
        used, row_starts = reliability._layout(n_devices, n_segments)
    assert used == threads and len(row_starts) >= 3
    _check_against_oracle(threads, case, loss, max_rounds, seed, buffered_half)


def _forced(threads):
    return mock.patch.object(
        reliability, "_thread_count", lambda n_chunks: threads
    )


def _check_against_oracle(threads, case, loss, max_rounds, seed, buffered_half):
    n_segments, n_devices = case
    image = FirmwareImage(
        name="fw", version="1", size_bytes=n_segments * SEGMENT_BYTES
    )
    config = ReliabilityConfig(
        segment_bytes=SEGMENT_BYTES,
        segment_loss_probability=loss,
        max_rounds=max_rounds,
    )
    oracle_rng = np.random.default_rng(seed)
    rng = np.random.default_rng(seed)
    if buffered_half:
        # A 32-bit draw leaves half a 64-bit draw buffered in the state.
        oracle_rng.integers(1 << 16, dtype=np.uint32)
        rng.integers(1 << 16, dtype=np.uint32)
    for _ in range(2):
        expected = matrix_repair_rounds(image, n_devices, config, oracle_rng)
        with _forced(threads):
            outcome = simulate_repair_rounds(image, n_devices, config, rng)
        assert outcome == expected
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

