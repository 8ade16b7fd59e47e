"""Reliability model: segment loss and repair rounds.

The paper (and ref. [3]) assume the multicast transmission is received
whole; real radio links lose segments. This module models the standard
remedy — NACK-driven repair rounds — so campaigns can be costed at a
target delivery reliability:

* each device independently loses each link-layer segment with its
  coverage-dependent probability;
* after the multicast, devices with missing segments report them; the
  eNB re-multicasts the union of missing segments; repeat.

The key qualitative result (pinned by tests): because the repair
transmission is itself multicast, the extra airtime is bounded by the
number of *rounds* (≈ ``log(devices x segments) / -log(loss)``, a small
constant) times the union-miss fraction — independent of fleet size.
Unicast repair would instead grow linearly with the number of lossy
devices, so reliability does not dent the grouping win.

The rounds are simulated chunk-major, without an n x segments matrix.
Round r's draw for (device d, segment j) is the 64-bit draw at stream
offset ``(r-1)·n·S + d·S + j`` of the caller's generator — the order a
dense ``rng.random((n, S))`` per round consumes it — and a pair still
missing always has its segment re-sent, so it stays missing after
round r exactly when all its draws in rounds 1..r are losses. Only the
global stop rule couples the rounds. Each chunk of device rows
therefore runs through all of its rounds on a private copy of the bit
generator, jumped (``advance``) to the draws it needs; later rounds
draw only the spans covering the chunk's still-missing pairs.

Chunks are independent, so in the main process they run on a thread
pool, one thread per available core (NumPy releases the GIL while it
draws and compares), each thread taking every T-th chunk on its own
generator copy. Inside a pool worker they run inline: that pool
already owns the cores. Threads return per-round segment masks and
missing counts, merged by OR and sum, so nothing depends on which
thread ran what. T threads hold chunks of 1/T the pairs, so memory is
O(chunk + T x rounds x S) at any fleet size, and the outcome and the
generator's end state are bit-identical to the dense loop at any T.
"""

from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.multicast.payload import DEFAULT_SEGMENT_BYTES, FirmwareImage
from repro.sim.dispatch import available_cores

#: Device/segment pairs per row chunk (rounded down to whole device
#: rows, at least one row).
_CHUNK_PAIRS = 1 << 17
#: Still-missing pairs further apart than this are not drawn as one
#: span; the generator is advanced over the gap instead.
_MAX_GAP = 4096
#: Bit generators whose ``advance(k)`` skips exactly k 64-bit draws.
_ADVANCEABLE = (np.random.PCG64, np.random.PCG64DXSM)


@dataclass(frozen=True)
class ReliabilityConfig:
    """Loss-and-repair parameters.

    Attributes:
        segment_bytes: link-layer segment size.
        segment_loss_probability: per-device, per-segment loss rate.
        max_rounds: give-up bound on repair rounds.
    """

    segment_bytes: int = DEFAULT_SEGMENT_BYTES
    segment_loss_probability: float = 0.01
    max_rounds: int = 10

    def __post_init__(self) -> None:
        if self.segment_bytes < 1:
            raise ConfigurationError(
                f"segment size must be >= 1, got {self.segment_bytes}"
            )
        if not 0.0 <= self.segment_loss_probability < 1.0:
            raise ConfigurationError(
                "loss probability must be in [0, 1), got "
                f"{self.segment_loss_probability}"
            )
        if self.max_rounds < 1:
            raise ConfigurationError(
                f"max_rounds must be >= 1, got {self.max_rounds}"
            )


@dataclass(frozen=True)
class RepairOutcome:
    """Result of a loss-and-repair simulation.

    Attributes:
        rounds: transmissions performed (1 initial + repairs).
        segments_sent: total segments transmitted across all rounds.
        devices_complete: devices holding the full image at the end.
        residual_missing: device/segment pairs still missing (0 unless
            ``max_rounds`` was hit).
        base_segments: segments in a loss-free single pass (the image's
            segment count) — the denominator of the overhead fraction.
        segments_per_round: segments transmitted in each round, in
            order (sums to ``segments_sent``; recorded into event logs
            as REPAIR_ROUND rows).
        missing_per_round: (device, segment) pairs still missing
            *after* each round, in order — the per-segment losses that
            drive the next round (recorded into event logs as
            SEGMENT_LOSS rows; the last entry equals
            ``residual_missing``).
    """

    rounds: int
    segments_sent: int
    devices_complete: int
    residual_missing: int
    base_segments: int = 1
    segments_per_round: Tuple[int, ...] = ()
    missing_per_round: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.base_segments < 1:
            raise ConfigurationError(
                f"base_segments must be >= 1, got {self.base_segments}"
            )

    @property
    def airtime_overhead_fraction(self) -> float:
        """Extra segments sent relative to a loss-free single pass."""
        return self.segments_sent / self.base_segments - 1.0


def simulate_repair_rounds(
    image: FirmwareImage,
    n_devices: int,
    config: ReliabilityConfig,
    rng: np.random.Generator,
) -> RepairOutcome:
    """Simulate multicast delivery with NACK-driven repair rounds.

    A lossless link (``segment_loss_probability == 0``) delivers every
    segment in the first round, so the one-round outcome is returned
    without drawing from ``rng``: its state is left untouched. That is
    bit-identical to drawing round 1's (all-delivered) losses only
    because the scenario runner's repair draws are the last consumer of
    each run's generator, on every backend; a caller that reads ``rng``
    afterwards must not rely on it having advanced.

    A lossy link leaves ``rng`` past ``rounds`` x n x S draws (n
    devices, S segments), where one dense ``rng.random((n, S))`` per
    round would have left it. Jumping to the draws takes a PCG64 or
    PCG64DXSM bit generator; any other raises
    :class:`~repro.errors.ConfigurationError`.
    """
    if n_devices < 1:
        raise ConfigurationError(f"need at least one device, got {n_devices}")
    n_segments = image.segment_count(config.segment_bytes)
    if config.segment_loss_probability == 0:
        return RepairOutcome(
            rounds=1,
            segments_sent=n_segments,
            devices_complete=n_devices,
            residual_missing=0,
            base_segments=n_segments,
            segments_per_round=(n_segments,),
            missing_per_round=(0,),
        )

    bit_generator = rng.bit_generator
    if not isinstance(bit_generator, _ADVANCEABLE):
        raise ConfigurationError(
            "repair rounds jump the generator to the draws they need, "
            "which takes a PCG64 or PCG64DXSM bit generator (one 64-bit "
            f"draw per advance step); got {type(bit_generator).__name__}"
        )
    base = bit_generator.state
    threads, row_starts = _layout(n_devices, n_segments)
    run = partial(
        _run_chunks,
        generator_type=type(bit_generator),
        base=base,
        n_devices=n_devices,
        n_segments=n_segments,
        chunk_rows=row_starts.step,
        p=config.segment_loss_probability,
        max_rounds=config.max_rounds,
    )
    shares = [row_starts[k::threads] for k in range(threads)]
    if threads == 1:
        parts = [run(shares[0])]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, shares))
    # OR and sum are order-free, so the merge cannot depend on which
    # thread ran which chunks.
    lacking: List[np.ndarray] = []
    missing_per_round: List[int] = []
    incomplete = 0
    for part_lacking, part_missing, part_incomplete in parts:
        for done, (mask, count) in enumerate(zip(part_lacking, part_missing)):
            if done == len(lacking):
                lacking.append(mask)
                missing_per_round.append(count)
            else:
                lacking[done] |= mask
                missing_per_round[done] += count
        incomplete += part_incomplete

    rounds = len(missing_per_round)
    per_round = [n_segments] + [
        int(np.count_nonzero(mask)) for mask in lacking[: rounds - 1]
    ]
    # The caller's generator ends past ``rounds`` full n x S draws, as
    # the model's per-round draws leave it; ``advance`` drops a buffered
    # 32-bit half, which random doubles never touch, so restore it.
    private = type(bit_generator)(0)
    private.state = base
    private.advance(rounds * n_devices * n_segments)
    end = private.state
    end["has_uint32"] = base["has_uint32"]
    end["uinteger"] = base["uinteger"]
    bit_generator.state = end
    return RepairOutcome(
        rounds=rounds,
        segments_sent=sum(per_round),
        devices_complete=n_devices - incomplete,
        residual_missing=missing_per_round[-1],
        base_segments=n_segments,
        segments_per_round=tuple(per_round),
        missing_per_round=tuple(missing_per_round),
    )


def _thread_count(n_chunks: int) -> int:
    """Threads to run ``n_chunks`` full-size row chunks on.

    One inside a pool worker, whose pool already owns the cores; else
    one per available core, at most one per chunk.
    """
    if multiprocessing.parent_process() is not None:
        return 1
    return min(available_cores(), n_chunks)


def _layout(n_devices: int, n_segments: int) -> Tuple[int, range]:
    """The thread count and the first rows of the row chunks.

    Each of T threads holds one chunk of ``_CHUNK_PAIRS // T`` pairs
    (whole rows, at least one) at a time, so the pairs in flight stay
    at ``_CHUNK_PAIRS`` whatever T is.
    """
    full_rows = max(1, _CHUNK_PAIRS // n_segments)
    threads = _thread_count(-(-n_devices // full_rows))
    chunk_rows = max(1, _CHUNK_PAIRS // threads // n_segments)
    return threads, range(0, n_devices, chunk_rows)


def _run_chunks(
    row_starts: Sequence[int],
    *,
    generator_type: type,
    base: dict,
    n_devices: int,
    n_segments: int,
    chunk_rows: int,
    p: float,
    max_rounds: int,
) -> Tuple[List[np.ndarray], List[int], int]:
    """Run the row chunks starting at ``row_starts`` through their rounds.

    The draws come from a private bit generator set to ``base`` and
    jumped to each chunk's offsets, so any thread can run any chunks.
    Returns, per round reached by any of these chunks, the segments
    some device still lacks afterwards (re-sent next round) and the
    pairs still missing; and the devices left incomplete.
    """
    per_round_draws = n_devices * n_segments
    private = generator_type(0)
    draws = np.random.Generator(private)
    buf = np.empty(min(chunk_rows, n_devices) * n_segments)
    lacking: List[np.ndarray] = []
    missing_per_round: List[int] = []
    incomplete = 0
    for row0 in row_starts:
        size = min(chunk_rows, n_devices - row0) * n_segments
        origin = row0 * n_segments
        private.state = base
        private.advance(origin)
        draws.random(out=buf[:size])
        missing = np.flatnonzero(buf[:size] < p)
        at = origin + size
        done = 0  # rounds this chunk has run
        while True:
            if done == len(lacking):
                lacking.append(np.zeros(n_segments, dtype=bool))
                missing_per_round.append(0)
            lacking[done][missing % n_segments] = True
            missing_per_round[done] += missing.size
            done += 1
            if not missing.size or done == max_rounds:
                break
            # A still-missing pair's segment is always re-sent, so it
            # stays missing iff this round's draw is a loss too.
            values, at = _redraw(
                draws, buf, missing, done * per_round_draws + origin, at
            )
            missing = missing[values < p]
        if missing.size:
            rows = missing // n_segments
            incomplete += 1 + int(np.count_nonzero(np.diff(rows)))
    return lacking, missing_per_round, incomplete


def _redraw(
    draws: np.random.Generator,
    buf: np.ndarray,
    positions: np.ndarray,
    origin: int,
    at: int,
) -> Tuple[np.ndarray, int]:
    """The draws at stream offsets ``origin + positions``.

    ``positions`` is sorted and ``draws`` sits at offset ``at``
    (<= ``origin``). Positions closer than ``_MAX_GAP`` share one span
    drawn into ``buf``; the generator is advanced over longer gaps.
    Returns the draws and the generator's new offset.
    """
    cuts = np.flatnonzero(np.diff(positions) > _MAX_GAP) + 1
    bounds = [0, *cuts.tolist(), positions.size]
    values = np.empty(positions.size)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        first = int(positions[lo])
        span = buf[: int(positions[hi - 1]) - first + 1]
        draws.bit_generator.advance(origin + first - at)
        draws.random(out=span)
        values[lo:hi] = span[positions[lo:hi] - first]
        at = origin + first + span.size
    return values, at


def expected_rounds(
    n_devices: int, n_segments: int, loss: float
) -> float:
    """Analytic estimate of the rounds needed for full delivery.

    A segment survives a round for all devices with probability
    ``(1-loss)^n``; the union-NACK process ends once every (device,
    segment) pair has succeeded at least once. The expected maximum of
    geometric trials gives roughly ``1 + log(n_devices * n_segments) /
    -log(loss)`` rounds — used by tests as an order-of-magnitude check.
    """
    if loss <= 0.0:
        return 1.0
    if not 0.0 < loss < 1.0:
        raise ConfigurationError(f"loss must be in (0, 1), got {loss}")
    pairs = max(2, n_devices * n_segments)
    return 1.0 + math.log(pairs) / (-math.log(loss))
