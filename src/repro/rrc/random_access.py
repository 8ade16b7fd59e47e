"""Random access (RACH) timing model.

Every connection in NB-IoT begins with the contention-based random
access procedure (TS 36.321): NPRACH preamble, random access response
(RAR) window, Msg3 (RRCConnectionRequest) and Msg4 (contention
resolution). Its duration scales with the coverage class because every
step is repeated at higher CE levels.

The model optionally injects *contention failures*: with probability
``collision_probability`` an attempt collides and is retried after a
backoff, exactly the kind of massive-IoT effect the related work
(ACB/EAB schemes, paper Sec. V) worries about. Experiments default to
no collisions — the paper's evaluation does not model RACH overload —
but the failure-injection tests exercise the retry path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.phy.coverage import PROFILES, CoverageClass


@dataclass(frozen=True)
class RandomAccessOutcome:
    """Result of one random access procedure.

    Attributes:
        attempts: number of preamble attempts (1 = no collision).
        duration_s: total time from first preamble to Msg4 completion,
            including backoff gaps between retries.
    """

    attempts: int
    duration_s: float

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ConfigurationError(f"attempts must be >= 1, got {self.attempts}")
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"duration must be positive, got {self.duration_s}"
            )


@dataclass(frozen=True)
class RandomAccessModel:
    """Timing (and optional contention) model of the RA procedure.

    Attributes:
        collision_probability: per-attempt collision probability.
        backoff_s: mean backoff between retries (exponential).
        max_attempts: give-up threshold; exceeding it raises
            :class:`~repro.errors.SimulationError` so silent delivery
            failures cannot creep into campaign results.
    """

    collision_probability: float = 0.0
    backoff_s: float = 0.25
    max_attempts: int = 10

    def __post_init__(self) -> None:
        if not 0.0 <= self.collision_probability < 1.0:
            raise ConfigurationError(
                "collision_probability must be in [0, 1), got "
                f"{self.collision_probability}"
            )
        if self.backoff_s < 0:
            raise ConfigurationError(
                f"backoff must be non-negative, got {self.backoff_s}"
            )
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def base_duration_s(self, coverage: CoverageClass) -> float:
        """Collision-free RA duration for ``coverage``."""
        return PROFILES[coverage].random_access_seconds

    def perform(
        self,
        coverage: CoverageClass,
        rng: Optional[np.random.Generator] = None,
    ) -> RandomAccessOutcome:
        """Run one RA procedure, injecting collisions if configured.

        A deterministic (collision-free) outcome is returned when the
        collision probability is zero, so experiment code needs no RNG
        plumbing in the default configuration.
        """
        base = self.base_duration_s(coverage)
        if self.collision_probability == 0.0:
            return RandomAccessOutcome(attempts=1, duration_s=base)
        if rng is None:
            raise ConfigurationError(
                "an RNG is required when collision_probability > 0"
            )
        duration = 0.0
        for attempt in range(1, self.max_attempts + 1):
            duration += base
            if rng.random() >= self.collision_probability:
                return RandomAccessOutcome(attempts=attempt, duration_s=duration)
            duration += float(rng.exponential(self.backoff_s))
        raise SimulationError(
            f"random access failed after {self.max_attempts} attempts "
            f"(collision_probability={self.collision_probability})"
        )
