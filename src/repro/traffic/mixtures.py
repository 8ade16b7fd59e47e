"""Device-category mixtures and their DRX-cycle distributions.

A mixture assigns each :class:`~repro.devices.DeviceCategory` a weight
(share of the fleet) and a distribution over eDRX cycles. The defaults
encode the qualitative structure of Ericsson's *Massive IoT in the City*
deployment: the fleet is dominated by utility meters that sleep for
hours, with smaller populations of trackers and sensors on shorter
cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.devices.profiles import DeviceCategory
from repro.drx.cycles import DrxCycle
from repro.errors import ConfigurationError
from repro.traffic.validation import validate_unit_sum


@dataclass(frozen=True)
class CategoryProfile:
    """One category's share of the fleet and its DRX-cycle distribution.

    Attributes:
        weight: relative share of the fleet (normalised across the
            mixture).
        cycle_distribution: probability of each DRX cycle within the
            category (must sum to 1).
    """

    weight: float
    cycle_distribution: Mapping[DrxCycle, float]

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigurationError(f"weight must be positive, got {self.weight}")
        if not self.cycle_distribution:
            raise ConfigurationError("cycle distribution must not be empty")
        validate_unit_sum(
            self.cycle_distribution.values(), what="cycle distribution"
        )


class TrafficMixture:
    """A named mixture of device categories."""

    def __init__(
        self, name: str, profiles: Mapping[DeviceCategory, CategoryProfile]
    ) -> None:
        if not profiles:
            raise ConfigurationError("a mixture needs at least one category")
        self._name = name
        self._profiles = dict(profiles)
        total = sum(p.weight for p in self._profiles.values())
        self._normalised: Dict[DeviceCategory, float] = {
            c: p.weight / total for c, p in self._profiles.items()
        }

    @property
    def name(self) -> str:
        """Mixture label (used in reports)."""
        return self._name

    @property
    def categories(self) -> Tuple[DeviceCategory, ...]:
        """Categories present in the mixture."""
        return tuple(self._profiles)

    def category_share(self, category: DeviceCategory) -> float:
        """Normalised fleet share of ``category``."""
        return self._normalised[category]

    def cycle_distribution(self, category: DeviceCategory) -> Mapping[DrxCycle, float]:
        """DRX-cycle distribution of ``category``."""
        return dict(self._profiles[category].cycle_distribution)

    def sample_columns(
        self, n: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` devices as columns: (category index, cycle frames).

        Consumes the *identical* RNG stream as the per-device reference
        loop (``tests/fleet_oracle.py``) — the cycle draw mirrors
        ``Generator.choice(k, p=...)``'s internals (one uniform double
        per device, searchsorted on the normalised CDF) — but runs
        vectorised, which is what makes 10^6-device fleet generation
        columnar end to end. Category indices index :attr:`categories`.
        """
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        categories = list(self._normalised)
        weights = np.array([self._normalised[c] for c in categories])
        cat_idx = np.asarray(
            rng.choice(len(categories), size=n, p=weights), dtype=np.int64
        )
        uniforms = rng.random(n)
        periods = np.empty(n, dtype=np.int64)
        for k, category in enumerate(categories):
            dist = self._profiles[category].cycle_distribution
            frames = np.array([int(c) for c in dist], dtype=np.int64)
            probs = np.array([dist[c] for c in dist], dtype=np.float64)
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            mask = cat_idx == k
            periods[mask] = frames[
                np.searchsorted(cdf, uniforms[mask], side="right")
            ]
        return cat_idx, periods

    @property
    def max_cycle(self) -> DrxCycle:
        """Longest cycle any category can draw."""
        longest = max(
            max(profile.cycle_distribution)
            for profile in self._profiles.values()
        )
        return longest

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TrafficMixture({self._name!r}, categories={len(self._profiles)})"


def _c(seconds: float) -> DrxCycle:
    return DrxCycle.from_seconds(seconds)


#: Calibrated default: the two-tier city deployment of Ericsson's
#: *Massive IoT in the City* — a battery-maximising metering tier at the
#: top of the eDRX ladder (55 %) plus a reachability-constrained tier of
#: trackers/actuators on short eDRX (45 %). Calibrated so DR-SC's Fig. 7
#: curve starts at ~50 % of N for small fleets and passes ~40 % in the
#: mid hundreds (see EXPERIMENTS.md for the full measured curve and the
#: N=1000 discussion).
PAPER_DEFAULT_MIXTURE = TrafficMixture(
    "paper-default",
    {
        DeviceCategory.SMART_METER: CategoryProfile(
            weight=0.40,
            cycle_distribution={_c(10485.76): 1.0},
        ),
        DeviceCategory.ENVIRONMENT_SENSOR: CategoryProfile(
            weight=0.15,
            cycle_distribution={_c(10485.76): 1.0},
        ),
        DeviceCategory.ASSET_TRACKER: CategoryProfile(
            weight=0.20,
            cycle_distribution={_c(20.48): 0.50, _c(40.96): 0.50},
        ),
        DeviceCategory.PARKING_SENSOR: CategoryProfile(
            weight=0.15,
            cycle_distribution={_c(40.96): 0.50, _c(81.92): 0.50},
        ),
        DeviceCategory.SMOKE_DETECTOR: CategoryProfile(
            weight=0.10,
            cycle_distribution={_c(20.48): 1.0},
        ),
    },
)

#: Responsive fleet: every device on the shortest eDRX values.
SHORT_EDRX_MIXTURE = TrafficMixture(
    "short-edrx",
    {
        DeviceCategory.GENERIC: CategoryProfile(
            weight=1.0,
            cycle_distribution={
                _c(20.48): 0.25,
                _c(40.96): 0.25,
                _c(81.92): 0.25,
                _c(163.84): 0.25,
            },
        ),
    },
)

#: Middle-of-the-road fleet (minutes-scale cycles).
MODERATE_EDRX_MIXTURE = TrafficMixture(
    "moderate-edrx",
    {
        DeviceCategory.GENERIC: CategoryProfile(
            weight=1.0,
            cycle_distribution={
                _c(163.84): 0.25,
                _c(327.68): 0.25,
                _c(655.36): 0.25,
                _c(1310.72): 0.25,
            },
        ),
    },
)

#: Battery-maximising fleet: everything at the top of the eDRX ladder.
LONG_EDRX_MIXTURE = TrafficMixture(
    "long-edrx",
    {
        DeviceCategory.GENERIC: CategoryProfile(
            weight=1.0,
            cycle_distribution={
                _c(2621.44): 0.25,
                _c(5242.88): 0.35,
                _c(10485.76): 0.40,
            },
        ),
    },
)

#: Every built-in mixture, keyed by its name. Scenario specs reference
#: mixtures by name (a string survives pickling to process-pool workers
#: and fingerprints stably), resolved through :func:`mixture_by_name`.
MIXTURES: Dict[str, TrafficMixture] = {
    mixture.name: mixture
    for mixture in (
        PAPER_DEFAULT_MIXTURE,
        SHORT_EDRX_MIXTURE,
        MODERATE_EDRX_MIXTURE,
        LONG_EDRX_MIXTURE,
    )
}


def mixture_by_name(name: str) -> TrafficMixture:
    """Look up a built-in mixture by its registry name."""
    try:
        return MIXTURES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown mixture {name!r}; available: {sorted(MIXTURES)}"
        ) from None
