"""Dense reference for the repair rounds — the oracle.

This is the loop :func:`~repro.multicast.reliability.simulate_repair_rounds`
ran before it went chunk-major: a boolean ``missing[n, S]`` matrix, and
one fresh ``rng.random((n, S))`` draw per round over every (device,
segment) pair, delivered or not. Memory is O(n x S) per round, so it
is only usable at test sizes. The chunked implementation is
property-tested against it field for field, generator end state
included (``tests/properties/test_prop_repair.py``).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import ConfigurationError
from repro.multicast.payload import FirmwareImage
from repro.multicast.reliability import ReliabilityConfig, RepairOutcome


def matrix_repair_rounds(
    image: FirmwareImage,
    n_devices: int,
    config: ReliabilityConfig,
    rng: np.random.Generator,
) -> RepairOutcome:
    """Repair rounds over the dense loss matrix, drawn round by round."""
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
