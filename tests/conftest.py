"""Shared fixtures: small deterministic fleets and planning contexts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import PlanningContext
from repro.devices.device import NbIotDevice
from repro.devices.fleet import Fleet
from repro.drx.cycles import DrxCycle
from repro.enb.cell import CellConfig
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import MODERATE_EDRX_MIXTURE, PAPER_DEFAULT_MIXTURE


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(20180702)  # ICDCS'18 presentation date


@pytest.fixture
def tiny_fleet() -> Fleet:
    """Five hand-built devices with mixed cycles (fully deterministic)."""
    cycles = [20.48, 40.96, 163.84, 1310.72, 10485.76]
    return Fleet.from_devices(
        [
            NbIotDevice.build(
                imsi=234_150_000_000_100 + 37 * i,
                cycle=DrxCycle.from_seconds(seconds),
            )
            for i, seconds in enumerate(cycles)
        ]
    )


@pytest.fixture
def small_fleet(rng: np.random.Generator) -> Fleet:
    """Thirty devices sampled from the paper-default mixture."""
    return generate_fleet(30, PAPER_DEFAULT_MIXTURE, rng)


@pytest.fixture
def moderate_fleet(rng: np.random.Generator) -> Fleet:
    """Twenty devices on minutes-scale cycles (fast horizons)."""
    return generate_fleet(20, MODERATE_EDRX_MIXTURE, rng)


@pytest.fixture
def context() -> PlanningContext:
    """Default planning context: 100 KB payload, TI = 20.48 s."""
    return PlanningContext(payload_bytes=100_000, cell=CellConfig())
