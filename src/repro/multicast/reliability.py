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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.multicast.payload import DEFAULT_SEGMENT_BYTES, FirmwareImage


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
    bit-identical to drawing the (all-delivered) loss matrix only
    because the scenario runner's repair draws are the last consumer of
    each run's generator, on every backend; a caller that reads ``rng``
    afterwards must not rely on it having advanced.
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

    # missing[d] = set of segment indices device d still lacks.
    missing = np.ones((n_devices, n_segments), dtype=bool)
    to_send = np.ones(n_segments, dtype=bool)
    segments_sent = 0
    per_round: List[int] = []
    missing_per_round: List[int] = []
    rounds = 0
    while to_send.any() and rounds < config.max_rounds:
        rounds += 1
        per_round.append(int(to_send.sum()))
        segments_sent += int(to_send.sum())
        # Every device listening loses each sent segment independently.
        receive = rng.random((n_devices, n_segments)) >= (
            config.segment_loss_probability
        )
        delivered = to_send[None, :] & receive
        missing &= ~delivered
        missing_per_round.append(int(missing.sum()))
        # Union of NACKs drives the next round.
        to_send = missing.any(axis=0)

    return RepairOutcome(
        rounds=rounds,
        segments_sent=segments_sent,
        devices_complete=int((~missing.any(axis=1)).sum()),
        residual_missing=int(missing.sum()),
        base_segments=n_segments,
        segments_per_round=tuple(per_round),
        missing_per_round=tuple(missing_per_round),
    )


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
    import math

    pairs = max(2, n_devices * n_segments)
    return 1.0 + math.log(pairs) / (-math.log(loss))
