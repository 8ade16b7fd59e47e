"""Fleet generation from a traffic mixture.

Sampling is fully driven by a caller-supplied :class:`numpy.random.Generator`
so Monte-Carlo runs are reproducible and independent (the harness spawns
one child generator per run via :mod:`repro.sim.rng`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from repro.devices.fleet import CATEGORY_CODE, Fleet
from repro.drx.paging import NB
from repro.errors import ConfigurationError
from repro.phy.coverage import CoverageClass
from repro.traffic.mixtures import TrafficMixture
from repro.traffic.validation import validate_unit_sum

#: IMSIs are drawn from this many distinct values (a national operator range).
_IMSI_BASE = 234_150_000_000_000
_IMSI_RANGE = 10_000_000

#: Fleet sizes up to this keep the historical ``Generator.choice``
#: draw — the stream every golden pin (scenario metrics, event-log
#: pins, equivalence benches) was recorded under. Larger fleets switch
#: to the O(n) rejection sampler: no pinned artifact covers them, and
#: ``Generator.choice(replace=False)`` materialises a permutation of
#: the whole operator-sized pool on NumPy < 1.25 (tens of seconds at
#: 10^6 devices).
_DIRECT_DRAW_MAX = 100_000

def _rejection_sample(n: int, rng: np.random.Generator) -> np.ndarray:
    """O(n) without-replacement draw of ``n`` values from the IMSI pool.

    Batched rejection: draw candidates uniformly, keep each batch's
    first occurrences in draw order, drop values already taken, repeat
    until ``n`` are collected. The batch size oversamples by the
    remaining pool's collision rate, so the expected total work is
    O(n) even for draws that consume most of the pool. The output
    order is the first-draw order — a pure function of the generator
    stream, independent of batch boundaries' timing.
    """
    taken = np.zeros(_IMSI_RANGE, dtype=bool)
    out = np.empty(n, dtype=np.int64)
    filled = 0
    while filled < n:
        need = n - filled
        fresh_fraction = (_IMSI_RANGE - filled) / _IMSI_RANGE
        batch = int(need / fresh_fraction * 1.1) + 16
        candidates = rng.integers(0, _IMSI_RANGE, size=batch, dtype=np.int64)
        # np.unique(return_index) gives one index per distinct value;
        # sorting those indices restores first-occurrence draw order.
        first_seen = np.sort(np.unique(candidates, return_index=True)[1])
        candidates = candidates[first_seen]
        fresh = candidates[~taken[candidates]][:need]
        taken[fresh] = True
        out[filled : filled + fresh.size] = fresh
        filled += fresh.size
    return out


def sample_imsis(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` distinct IMSIs without replacement from the pool.

    Fleets up to :data:`_DIRECT_DRAW_MAX` devices take the historical
    ``Generator.choice`` draw (the stream the golden pins were recorded
    under), so every golden-covered size keeps its exact stream; larger
    fleets take the O(n) batched rejection sampler. Either way the
    returned IMSIs are unique, in range, and exactly ``n`` strong — the
    fleet constructors trust this instead of rescanning the column.
    """
    if n < 1:
        raise ConfigurationError(f"fleet size must be >= 1, got {n}")
    if n > _IMSI_RANGE:
        raise ConfigurationError(
            f"fleet size {n} exceeds the IMSI pool ({_IMSI_RANGE})"
        )
    if n <= _DIRECT_DRAW_MAX:
        drawn = np.asarray(
            rng.choice(_IMSI_RANGE, size=n, replace=False), dtype=np.int64
        )
    else:
        drawn = _rejection_sample(n, rng)
    return drawn + _IMSI_BASE


@dataclass(frozen=True)
class CoverageMix:
    """Shares of devices per coverage class (must sum to 1)."""

    normal: float = 1.0
    robust: float = 0.0
    extreme: float = 0.0

    def __post_init__(self) -> None:
        validate_unit_sum(
            (self.normal, self.robust, self.extreme), what="coverage shares"
        )

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` coverage classes."""
        classes = np.array(
            [CoverageClass.NORMAL, CoverageClass.ROBUST, CoverageClass.EXTREME]
        )
        probs = np.array([self.normal, self.robust, self.extreme])
        return rng.choice(classes, size=n, p=probs)

    def sample_codes(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` coverage codes (indices into ``COVERAGE_ORDER``).

        Identical RNG stream to :meth:`sample` — drawing indices instead
        of enum members skips the object array entirely. The index order
        matches the ``CoverageClass`` declaration order, which is the
        canonical code order of :data:`repro.devices.fleet.COVERAGE_ORDER`.
        """
        probs = np.array([self.normal, self.robust, self.extreme])
        return np.asarray(
            rng.choice(len(probs), size=n, p=probs), dtype=np.int64
        )


#: The paper's single-cell evaluation does not model deep-coverage
#: devices, so the default places everyone in normal coverage.
UNIFORM_NORMAL_COVERAGE = CoverageMix()

#: A more physical urban split used by the coverage ablation.
URBAN_COVERAGE = CoverageMix(normal=0.80, robust=0.15, extreme=0.05)


def generate_fleet(
    n: int,
    mixture: TrafficMixture,
    rng: np.random.Generator,
    *,
    coverage_mix: CoverageMix = UNIFORM_NORMAL_COVERAGE,
    nb: NB = NB.ONE_T,
    out: Optional[Mapping[str, np.ndarray]] = None,
) -> Fleet:
    """Sample a fleet of ``n`` devices from ``mixture``.

    IMSIs are drawn without replacement from an operator-sized range, so
    UE_ID collisions (devices sharing paging occasions) occur at their
    natural rate rather than never. The draw is :func:`sample_imsis`:
    stream-identical to the historical ``Generator.choice`` draw up to
    the golden-pinned sizes, O(n) rejection sampling beyond them.

    The fleet is built columnar-first: the sampled draws land directly
    in the :class:`Fleet` columns (paging phases derived vectorised) and no
    device object is ever instantiated, so generating 10^6 devices costs
    flat arrays rather than a million frozen dataclasses. When ``out``
    supplies writable destination buffers (one per schema column — e.g.
    a staged :class:`~repro.devices.sharedmem.SharedFleet`'s views) the
    columns are built directly inside them, so publishing the fleet to
    shared memory needs no second column-by-column copy.

    The sampler guarantees unique IMSIs by construction, so the
    returned fleet skips the duplicate-IMSI rescan entirely — the
    validate-once half of the trust-the-creator contract.
    """
    imsis = sample_imsis(n, rng)
    cat_idx, periods = mixture.sample_columns(n, rng)
    coverage_codes = coverage_mix.sample_codes(n, rng)
    mixture_code = np.array(
        [CATEGORY_CODE[category] for category in mixture.categories],
        dtype=np.int64,
    )
    return Fleet.from_columns(
        imsis=imsis,
        periods=periods,
        coverage_codes=coverage_codes,
        category_codes=mixture_code[cat_idx],
        nb=nb,
        out=out,
    )
