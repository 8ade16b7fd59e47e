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
global stop rule couples the rounds, so each chunk of device rows runs
through its rounds on a private copy of the bit generator. Round r
redraws an expected fraction p^(r-1) of the pairs (p the loss
probability), and is drawn one of two ways:

* **dense rounds** — round 1, and each later round while p^(r-1) is at
  least ``_SPARSE_DENSITY`` — jump (``advance``) the copy to the
  chunk's first still-missing pair and draw one contiguous span up to
  its last, reading the pairs' doubles out of it;
* **kernel rounds** — every round after those. A chunk's still-missing
  pairs join a per-round pool, drained in batches of at most B pairs
  (``_BATCH`` = 2^14, or ``_CALL_BATCH_PAIRS / T`` on T threads if
  less) spanning fewer than ``_SPAN`` draws. A batch computes only its
  own doubles, with a jump-ahead kernel: k steps of the PCG LCG take
  state s to ``A^k·s + (1 + A + … + A^(k-1))·inc``. The high
  ``_HIGH_BITS`` of k pick the state at the start of k's block of
  2^_LOW_BITS draws (one multiply-add per block the batch touches),
  the low ``_LOW_BITS`` the jump within it (one per pair), each from a
  seed-free lookup table, in 128-bit arithmetic on uint64 limbs. The
  state then goes through the generator's own output function and
  ``(x >> 11)·2^-53``. The tables are built once per process, on the
  first call that reaches a kernel round. PCG64 (128-bit multiplier,
  XSL-RR output of the stepped state) and PCG64DXSM (64-bit
  multiplier, DXSM output of the state before the step) are both
  covered; any other bit generator is refused.

Chunks are independent, so in the main process they run on a thread
pool, one thread per available core (NumPy releases the GIL while it
draws and compares), each thread taking every T-th chunk on its own
generator copy and pools. Inside a pool worker they run inline: that
pool already owns the cores. Threads return per-round segment masks
and missing counts, merged by OR and sum, so nothing depends on which
thread ran what. A thread holds one chunk buffer of 1/T the pairs,
which doubles as the kernel's scratch between chunks (at least
``_SCRATCH_ROWS`` x B words, so 2 MiB over all threads at T >= 2,
beside a row of block indices of at most 32 KiB), and pools of under a
batch plus one chunk's survivors per round. With T x B at most
``_CALL_BATCH_PAIRS``, memory is therefore O(rounds x
(``_CHUNK_PAIRS`` + ``_CALL_BATCH_PAIRS``) + T x rounds x S) at any
fleet size and core count, plus 256 KiB of seed-free tables per
generator type and 128 KiB per call; the outcome and the generator's
end state are bit-identical to the dense loop at any T and B.
"""

from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.multicast.payload import DEFAULT_SEGMENT_BYTES, FirmwareImage
from repro.sim.dispatch import available_cores

#: Device/segment pairs per row chunk (rounded down to whole device
#: rows, at least one row).
_CHUNK_PAIRS = 1 << 17
#: A round after the first is drawn through the jump-ahead kernel once
#: the expected density of the pairs it redraws is below this. Both
#: ways are exact, so it moves only time: the kernel costs about 35 ns
#: per pair it draws, and its numpy calls serialise on the GIL, while a
#: span costs about 4 ns per pair and runs on every core. Whole calls
#: on 2 vCPUs (2 threads, 1954 segments, 2^14-pair batches, medians of
#: 7; 2x10^4 / 10^5 devices): at 15 % loss, round 3 (density 0.0225)
#: took 0.41 / 2.04 s through the kernel and 0.51 / 2.48 s as a span;
#: at 1 %, round 2 (0.01) 0.17 / 1.08 s against 0.29 / 1.55 s; at 5 %,
#: round 2 (0.05) 0.35 / 1.60 s as a span against 0.35 / 1.54 s
#: through the kernel (medians of 15), too close to move the line.
_SPARSE_DENSITY = 1 / 32
#: Still-missing pairs per kernel batch; a small batch pays more per
#: pair for its numpy calls. Best-of-300 batches at round 3's density
#: took 0.19-0.28 ms at 2^12 pairs (47-67 ns per pair) and 0.56-0.58 ms
#: at 2^14 (about 35 ns per pair). Whole dense-urban and
#: lossy-link-repair calls at 2x10^4 and 10^5 devices took 18-24 % less
#: at 2^14 than at 2^12, and between 1 % more and 14 % less again at
#: 2^15 (medians of 3-5), which would double the scratch
#: (``_SCRATCH_ROWS`` words per batch pair) to 2 MiB per thread.
_BATCH = 1 << 14
#: Batch pairs a call's T threads share: each draws batches of
#: ``_CALL_BATCH_PAIRS // T`` pairs, at most ``_BATCH``, so the kernel's
#: scratch stays at 2 MiB however many cores the host has (2^14 pairs
#: on 2 threads, 2^12 on 8).
_CALL_BATCH_PAIRS = 1 << 15
#: Bits of a kernel offset resolved by the low and by the high lookup
#: table; a batch spans fewer than ``_SPAN`` draws.
_LOW_BITS = 12
_HIGH_BITS = 12
_SPAN = 1 << (_LOW_BITS + _HIGH_BITS)
#: uint64 words of kernel scratch per batch pair: the per-pair rows of
#: :func:`_doubles`, reused as their values are spent (the per-block
#: values fit in the first 2^_HIGH_BITS columns).
_SCRATCH_ROWS = 8
#: The LCG step multiplier of each bit generator the rounds can jump,
#: and whether its output function reads the state after the step
#: (PCG64) or before it (PCG64DXSM, whose multiplier is 64-bit).
_LCG = {
    np.random.PCG64: ((2549297995355413924 << 64) + 4865540595714422341, True),
    np.random.PCG64DXSM: (0xDA942042E4DD58B5, False),
}
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
#: Seed-free jump tables per bit generator type, built on first use by
#: :func:`_jump_tables`.
_TABLES: Dict[type, Tuple[np.ndarray, np.ndarray]] = {}


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
    if not isinstance(bit_generator, tuple(_LCG)):
        raise ConfigurationError(
            "repair rounds jump the generator to the draws they need, "
            "which takes a PCG64 or PCG64DXSM bit generator (one 64-bit "
            f"draw per advance step); got {type(bit_generator).__name__}"
        )
    base = bit_generator.state
    p = config.segment_loss_probability
    dense_rounds = _dense_rounds(config)
    jumps = None
    if dense_rounds < config.max_rounds:
        jumps = _Jumps(type(bit_generator), base["state"]["inc"])
    threads, row_starts = _layout(n_devices, n_segments)
    run = partial(
        _run_chunks,
        generator_type=type(bit_generator),
        base=base,
        jumps=jumps,
        n_devices=n_devices,
        n_segments=n_segments,
        chunk_rows=row_starts.step,
        p=p,
        dense_rounds=dense_rounds,
        max_rounds=config.max_rounds,
        batch=_batch_size(threads),
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
    for part in parts:
        for done, (mask, count) in enumerate(zip(part.lacking, part.missing)):
            if done == len(lacking):
                lacking.append(mask)
                missing_per_round.append(count)
            else:
                lacking[done] |= mask
                missing_per_round[done] += count
        incomplete += part.incomplete

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


def _batch_size(threads: int) -> int:
    """Pairs per kernel batch on each of ``threads`` threads."""
    return max(1, min(_BATCH, _CALL_BATCH_PAIRS // threads))


def _dense_rounds(config: ReliabilityConfig) -> int:
    """Rounds drawn as spans under ``config``, at most its cap.

    Round 1 draws every pair; round r > 1 redraws the pairs missing
    after round r-1, an expected fraction p^(r-1) (p the loss
    probability), and is dense while that is at least
    ``_SPARSE_DENSITY``.
    """
    p = config.segment_loss_probability
    rounds, density = 1, p
    while density >= _SPARSE_DENSITY and rounds < config.max_rounds:
        rounds += 1
        density *= p
    return rounds


class _Tally:
    """One thread's per-round results.

    ``lacking[r-1]`` marks the segments some device still lacks after
    round r (re-sent in round r+1), ``missing[r-1]`` counts the pairs
    still missing then, and ``incomplete`` the devices left incomplete.
    """

    def __init__(self, n_segments: int) -> None:
        self.n_segments = n_segments
        self.lacking: List[np.ndarray] = []
        self.missing: List[int] = []
        self.incomplete = 0
        self._last_row = -1

    def record(self, round_: int, pairs: np.ndarray) -> None:
        """Pairs (``device·S + segment``) still missing after a round."""
        if round_ > len(self.lacking):
            self.lacking.append(np.zeros(self.n_segments, dtype=bool))
            self.missing.append(0)
        mask = self.lacking[round_ - 1]
        if not mask.all():  # a full mask cannot change
            mask[pairs % self.n_segments] = True
        self.missing[round_ - 1] += pairs.size

    def count_incomplete(self, pairs: np.ndarray) -> None:
        """Count the devices of ``pairs``, still missing at the cap.

        Calls come in pair order, and one device's pairs may be split
        over two calls (two kernel batches), so the last device
        counted is carried from call to call.
        """
        rows = pairs // self.n_segments
        self.incomplete += int(np.count_nonzero(np.diff(rows)))
        self.incomplete += int(rows[0] != self._last_row)
        self._last_row = int(rows[-1])


class _Pools:
    """One thread's still-missing pairs awaiting their kernel rounds.

    ``push(r, pairs)`` queues pairs missing after round r - 1 for round
    r's draws; ``drain`` draws them through the kernel a batch at a
    time, lowest round first, so each pool stays in pair order and a
    batch's survivors join the next round's pool. A batch is at most
    the scratch's width.
    """

    def __init__(
        self,
        jumps: "_Jumps",
        base: dict,
        tally: _Tally,
        scratch: Tuple[np.ndarray, np.ndarray],
        *,
        per_round_draws: int,
        p: float,
        first_round: int,
        max_rounds: int,
    ) -> None:
        self.jumps = jumps
        self.base = base
        self.tally = tally
        self.per_round_draws = per_round_draws
        self.p = p
        self.max_rounds = max_rounds
        self.pending: Dict[int, List[np.ndarray]] = {
            r: [] for r in range(first_round, max_rounds + 1)
        }
        #: Pairs queued per round, kept as they are pushed and drawn.
        self.sizes = dict.fromkeys(self.pending, 0)
        self.scratch = scratch
        self.batch = scratch[0].shape[1]
        self.generator = jumps.kind(0)

    def push(self, round_: int, pairs: np.ndarray) -> None:
        self.pending[round_].append(pairs)
        self.sizes[round_] += pairs.size

    def drain(self, flush: bool) -> None:
        """Draw every full batch, or with ``flush`` every queued pair."""
        least = 1 if flush else self.batch
        for round_, parts in self.pending.items():
            if self.sizes[round_] < least:
                continue
            pairs = np.concatenate(parts) if len(parts) > 1 else parts[0]
            parts.clear()  # the parts are in ``pairs`` now; free them
            start = 0
            while pairs.size - start >= least:
                batch = pairs[start : start + self.batch]
                batch = batch[: np.searchsorted(batch, batch[0] + _SPAN)]
                self._draw(round_, batch)
                start += batch.size
            # A copy, so the rest does not hold the whole pool.
            parts.append(pairs[start:].copy())
            self.sizes[round_] = pairs.size - start

    def _draw(self, round_: int, batch: np.ndarray) -> None:
        """Run round ``round_`` for one batch of pairs."""
        first = int(batch[0])
        self.generator.state = self.base
        self.generator.advance((round_ - 1) * self.per_round_draws + first)
        state = self.generator.state["state"]["state"]
        values = _doubles(self.jumps, state, batch, self.scratch, first)
        survivors = batch[values < self.p]
        self.tally.record(round_, survivors)
        if not survivors.size:
            return
        if round_ == self.max_rounds:
            self.tally.count_incomplete(survivors)
        else:
            self.push(round_ + 1, survivors)


def _run_chunks(
    row_starts: Sequence[int],
    *,
    generator_type: type,
    base: dict,
    jumps: Optional["_Jumps"],
    n_devices: int,
    n_segments: int,
    chunk_rows: int,
    p: float,
    dense_rounds: int,
    max_rounds: int,
    batch: int,
) -> _Tally:
    """Run the row chunks starting at ``row_starts`` through their rounds.

    The draws come from a private bit generator set to ``base`` and
    jumped to each chunk's offsets, and from the kernel, so any thread
    can run any chunks. Rounds up to ``dense_rounds`` are drawn as
    spans; a chunk still missing pairs after them queues those for
    the kernel rounds (``jumps`` is set when there are any), drawn in
    batches of at most ``batch`` pairs.
    """
    per_round_draws = n_devices * n_segments
    private = generator_type(0)
    draws = np.random.Generator(private)
    chunk_pairs = min(chunk_rows, n_devices) * n_segments
    tally = _Tally(n_segments)
    pools = None
    if jumps is None:
        buf = np.empty(chunk_pairs)
    else:
        # Kernel batches draw in this buffer too, between chunks.
        buf = np.empty(max(chunk_pairs, _SCRATCH_ROWS * batch))
        pools = _Pools(
            jumps,
            base,
            tally,
            _scratch(buf, batch),
            per_round_draws=per_round_draws,
            p=p,
            first_round=dense_rounds + 1,
            max_rounds=max_rounds,
        )
    for row0 in row_starts:
        size = min(chunk_rows, n_devices - row0) * n_segments
        origin = row0 * n_segments
        private.state = base
        private.advance(origin)
        draws.random(out=buf[:size])
        missing = np.flatnonzero(buf[:size] < p) + origin
        at = origin + size  # the private generator's offset
        done = 1  # rounds this chunk has run
        tally.record(done, missing)
        while missing.size and done < dense_rounds:
            # One span from the first still-missing pair to the last. A
            # still-missing pair's segment is always re-sent, so it
            # stays missing iff this round's draw is a loss too.
            first = int(missing[0])
            span = buf[: int(missing[-1]) - first + 1]
            private.advance(done * per_round_draws + first - at)
            draws.random(out=span)
            at = done * per_round_draws + first + span.size
            missing = missing[span[missing - first] < p]
            done += 1
            tally.record(done, missing)
        if not missing.size:
            continue
        if pools is None:
            tally.count_incomplete(missing)
        else:
            pools.push(done + 1, missing)
            pools.drain(flush=False)
    if pools is not None:
        pools.drain(flush=True)
    return tally


class _Jumps:
    """One stream's jump tables: the seed-free ones with its ``inc``.

    ``low`` and ``high`` are the (hi, lo) limbs of A^k and of G_k·inc,
    with G_k = 1 + A + … + A^(k-1), over k < 2^_LOW_BITS and over
    k = h·2^_LOW_BITS (h < 2^_HIGH_BITS); the A^k rows are the
    seed-free tables' own.
    """

    def __init__(self, kind: type, inc: int) -> None:
        self.kind = kind
        self.mult, self.post_step = _LCG[kind]
        self.inc = inc
        inc_hi, inc_lo = _limbs(inc)
        self.low, self.high = [], []
        for rows, table in zip((self.low, self.high), _jump_tables(kind)):
            times_inc = np.empty((2, table.shape[1]), dtype=np.uint64)
            tmp = np.empty((4, table.shape[1]), dtype=np.uint64)
            _mul_add(
                table[2], table[3], inc_hi, inc_lo, 0, 0, *times_inc, tmp
            )
            rows.extend((table[0], table[1], *times_inc))


def _scratch(
    buf: np.ndarray, width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The kernel's scratch for batches of up to ``width`` pairs.

    ``buf`` is a thread's float64 chunk buffer, idle while pools drain,
    of at least ``_SCRATCH_ROWS·width`` doubles; its view holds the
    ``_SCRATCH_ROWS`` x ``width`` uint64 per-pair rows. The blocks a
    batch touches are listed in a side row of at most
    ``2^_HIGH_BITS`` words, the most there can be whatever the width.
    """
    rows = buf[: _SCRATCH_ROWS * width].view(np.uint64)
    blocks = np.empty(min(width, 1 << _HIGH_BITS), dtype=np.intp)
    return rows.reshape(_SCRATCH_ROWS, width), blocks


def _doubles(
    jumps: _Jumps,
    state: int,
    offsets: np.ndarray,
    scratch: Tuple[np.ndarray, np.ndarray],
    origin: int = 0,
) -> np.ndarray:
    """The doubles ``random()`` gives ``offsets - origin`` draws past
    ``state``.

    ``state`` is the 128-bit LCG state of ``jumps``' stream; ``offsets``
    are sorted, at most the scratch's width, and ``offsets - origin`` is
    in [0, ``_SPAN``). Equal to ``advance(k)`` then ``random()`` for
    each such k, bit for bit. ``scratch`` comes from :func:`_scratch`;
    the result is a view into it.
    """
    m = offsets.size
    if jumps.post_step:  # PCG64 outputs the state after the step
        state = (state * jumps.mult + jumps.inc) & _M128
    rows, blocks = scratch
    # Rows, reused once their values are spent: 0-1 each offset's high
    # and low bits; 2 the new-block flags; the first k columns of 4-7
    # the high table's columns, then (6-7) the blocks' states; 2-3 each
    # offset's state; 4-7 the low table's columns, then (6-7) the
    # result. Each multiply-add's tmp is rows idle by then, and the
    # rows of its factors' high limbs.
    high, low = rows[:2].view(np.intp)[:, :m]
    s_hi, s_lo = rows[2:4, :m]
    gathered = rows[4:8, :m]
    np.subtract(offsets, origin, out=high)
    np.bitwise_and(high, (1 << _LOW_BITS) - 1, out=low)
    np.right_shift(high, _LOW_BITS, out=high)
    # The state at each distinct multiple of 2^_LOW_BITS, from the high
    # table; offsets are sorted, so those are where ``high`` changes.
    new_block = s_hi.view(bool)[:m]
    new_block[0] = True
    np.not_equal(high[1:], high[:-1], out=new_block[1:])
    k = int(np.count_nonzero(new_block))
    np.compress(new_block, high, out=blocks[:k])
    block = high  # each offset's index into ``blocks``, from here on
    np.cumsum(new_block, out=block)
    np.subtract(block, 1, out=block)
    for row, column in zip(gathered[:, :k], jumps.high):
        np.take(column, blocks[:k], out=row, mode="clip")
    g_hi, g_lo, u_hi, u_lo = gathered[:, :k]
    _mul_add(
        g_hi, g_lo, *_limbs(state), u_hi, u_lo, u_hi, u_lo,
        (g_hi, blocks[:k].view(np.uint64), s_hi[:k], s_lo[:k]),
    )
    # Then each offset's state, from its block's and the low table.
    np.take(u_hi, block, out=s_hi, mode="clip")
    np.take(u_lo, block, out=s_lo, mode="clip")
    for row, column in zip(gathered, jumps.low):
        np.take(column, low, out=row, mode="clip")
    a_hi, a_lo, x_hi, x_lo = gathered
    mid, shift = rows[:2, :m]
    _mul_add(
        a_hi, a_lo, s_hi, s_lo, x_hi, x_lo, x_hi, x_lo,
        (a_hi, s_hi, mid, shift),
    )
    if jumps.post_step:
        # XSL-RR: hi ^ lo, rotated right by hi's top six bits.
        np.right_shift(x_hi, 58, out=shift)
        np.bitwise_xor(x_hi, x_lo, out=x_hi)
        np.right_shift(x_hi, shift, out=x_lo)
        np.subtract(64, shift, out=shift)
        np.bitwise_and(shift, 63, out=shift)
        np.left_shift(x_hi, shift, out=x_hi)
        np.bitwise_or(x_hi, x_lo, out=x_hi)
    else:
        # DXSM: hi xorshifted, multiplied, xorshifted, times (lo | 1).
        np.bitwise_or(x_lo, 1, out=x_lo)
        np.right_shift(x_hi, 32, out=shift)
        np.bitwise_xor(x_hi, shift, out=x_hi)
        np.multiply(x_hi, jumps.mult, out=x_hi)
        np.right_shift(x_hi, 48, out=shift)
        np.bitwise_xor(x_hi, shift, out=x_hi)
        np.multiply(x_hi, x_lo, out=x_hi)
    np.right_shift(x_hi, 11, out=x_hi)
    return np.multiply(x_hi, 2.0**-53, out=x_lo.view(np.float64))


def _limbs(value: int) -> Tuple[np.uint64, np.uint64]:
    """The high and low 64-bit limbs of a 128-bit integer."""
    return np.uint64(value >> 64), np.uint64(value & _M64)


def _mul_add(a_hi, a_lo, b_hi, b_lo, c_hi, c_lo, out_hi, out_lo, tmp):
    """``out = a·b + c`` mod 2^128, on uint64 (hi, lo) limbs.

    The operands are arrays or ``np.uint64`` scalars; ``out`` may be
    ``c`` itself but must not alias ``a`` or ``b``, and ``tmp`` is four
    scratch arrays shaped like it. ``a_hi`` and ``b_hi`` are read only
    by the first products, so the first two of ``tmp`` may be their
    arrays. The high limb of ``a_lo·b_lo`` is summed from the four
    products of their 32-bit halves.
    """
    a0, b0, mid, t = tmp
    # The cross products reach only the high limb; c is read first.
    np.multiply(a_lo, b_hi, out=t)
    np.add(c_hi, t, out=out_hi)
    np.multiply(a_hi, b_lo, out=t)
    np.add(out_hi, t, out=out_hi)
    np.multiply(a_lo, b_lo, out=t)
    np.add(c_lo, t, out=out_lo)
    np.less(out_lo, t, out=t)  # carry out of the low limb
    np.add(out_hi, t, out=out_hi)
    # Each partial sum below fits in 64 bits.
    np.bitwise_and(a_lo, _LOW32, out=a0)
    np.bitwise_and(b_lo, _LOW32, out=b0)
    np.multiply(a0, b0, out=mid)
    np.right_shift(mid, 32, out=mid)  # carry-in of the low halves
    np.right_shift(a_lo, 32, out=t)
    np.multiply(t, b0, out=b0)  # a1·b0
    np.add(mid, b0, out=mid)
    np.right_shift(b_lo, 32, out=b0)
    np.multiply(t, b0, out=t)  # a1·b1
    np.add(out_hi, t, out=out_hi)
    np.multiply(a0, b0, out=a0)  # a0·b1
    np.right_shift(mid, 32, out=t)
    np.add(out_hi, t, out=out_hi)
    np.bitwise_and(mid, _LOW32, out=mid)
    np.add(mid, a0, out=mid)
    np.right_shift(mid, 32, out=mid)
    np.add(out_hi, mid, out=out_hi)


def _jump_tables(kind: type) -> Tuple[np.ndarray, np.ndarray]:
    """``kind``'s seed-free low and high jump tables, built once.

    Column k of a table holds the (hi, lo) limbs of A^k and of
    G_k = 1 + A + … + A^(k-1), A the LCG multiplier, so that k steps
    take state s to ``A^k·s + G_k·inc``: k < 2^_LOW_BITS in the low
    table, k = h·2^_LOW_BITS (h < 2^_HIGH_BITS) in the high one.
    """
    tables = _TABLES.get(kind)
    if tables is None:
        low, block_step = _doubled(_LCG[kind][0], 1, _LOW_BITS)
        high, _ = _doubled(*block_step, _HIGH_BITS)
        tables = _TABLES[kind] = (low, high)
    return tables


def _doubled(
    mult: int, add: int, bits: int
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """The k-fold maps of ``s -> mult·s + add·inc``, k < 2^bits.

    Column k holds the limbs of mult^k and of add·(1 + … + mult^(k-1));
    also returned is the 2^bits-fold map's (multiplier, addend). Each
    doubling is one vectorised multiply-add per column pair: k + m
    steps are m steps then k more, so column k + m is
    (mult^k·mult^m, mult^k·add_m + add_k).
    """
    table = np.array([[0], [1], [0], [0]], dtype=np.uint64)
    for _ in range(bits):
        upper = np.empty_like(table)
        tmp = np.empty((4, table.shape[1]), dtype=np.uint64)
        _mul_add(
            table[0], table[1], *_limbs(mult), 0, 0, upper[0], upper[1], tmp
        )
        _mul_add(
            table[0], table[1], *_limbs(add), table[2], table[3],
            upper[2], upper[3], tmp,
        )
        table = np.concatenate([table, upper], axis=1)
        mult, add = mult * mult & _M128, (mult * add + add) & _M128
    return table, (mult, add)


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
