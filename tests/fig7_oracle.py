"""An analytical approximation of the DR-SC transmission count (Fig. 7).

The greedy window cover on a random fleet is hard to characterise
exactly, but a round-based mean-field model tracks it well:

* a device with cycle ``T`` is covered by a uniformly placed TI-window
  with probability ``p = min(1, TI/T)``;
* the greedy's best window does better than a random one — over a
  horizon containing ``P`` candidate positions, its coverage is
  approximated by the maximum of Poisson-binomial draws, which we bound
  with a simple inflation factor fitted to the extreme-value growth
  ``ln P`` of the maximum of Poissons;
* rounds repeat on the surviving (mostly long-cycle) population.

The model is *not* used by any experiment — it exists so a test can
confirm the simulation's Fig. 7 curve sits where independent analysis
says it must (within a factor-level tolerance), which guards against
silent regressions in the sweep-line or the mixture.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ConfigurationError
from repro.traffic.mixtures import TrafficMixture


def expected_greedy_transmissions(
    n_devices: int,
    mixture: TrafficMixture,
    inactivity_timer_s: float,
    *,
    best_window_inflation: float = 2.0,
) -> float:
    """Mean-field estimate of DR-SC's transmission count.

    Args:
        n_devices: fleet size.
        mixture: DRX-cycle mixture.
        inactivity_timer_s: the TI window length.
        best_window_inflation: how much better than a *random* window the
            greedy's best pick is assumed to be each round (extreme-value
            effects; 2.0 is a good fit across mixtures — see the
            calibration test).

    Returns:
        Expected number of transmissions to cover everyone.
    """
    if n_devices < 1:
        raise ConfigurationError(f"n_devices must be >= 1, got {n_devices}")
    if inactivity_timer_s <= 0:
        raise ConfigurationError("TI must be positive")

    # Survivor counts per cycle class.
    survivors: Dict[float, float] = {}
    for category in mixture.categories:
        share = mixture.category_share(category)
        for cycle, prob in mixture.cycle_distribution(category).items():
            survivors[cycle.seconds] = (
                survivors.get(cycle.seconds, 0.0) + n_devices * share * prob
            )

    transmissions = 0.0
    guard = 0
    while sum(survivors.values()) > 0.5:
        guard += 1
        if guard > 10 * n_devices + 100:  # pragma: no cover - defensive
            raise ConfigurationError("mean-field model did not converge")
        # Expected coverage of one (greedy-picked) window this round.
        per_class_hit = {
            t: min(1.0, inactivity_timer_s / t) for t in survivors
        }
        base_coverage = sum(
            count * per_class_hit[t] for t, count in survivors.items()
        )
        coverage = max(1.0, min(
            sum(survivors.values()), best_window_inflation * base_coverage
        ))
        transmissions += 1.0
        # Remove covered devices proportionally to their hit rates.
        scale = coverage / base_coverage if base_coverage > 0 else 0.0
        for t in list(survivors):
            removed = min(
                survivors[t], survivors[t] * per_class_hit[t] * scale
            )
            survivors[t] -= removed
        # A pure-singleton tail: if the window catches nobody beyond one
        # device, the greedy is serving devices one by one.
        if base_coverage < 1e-9:
            remaining = sum(survivors.values())
            transmissions += remaining
            break
    return transmissions


def transmissions_curve(
    device_counts: List[int],
    mixture: TrafficMixture,
    inactivity_timer_s: float,
) -> Dict[int, float]:
    """The analytical Fig. 7 series for a list of fleet sizes."""
    return {
        n: expected_greedy_transmissions(n, mixture, inactivity_timer_s)
        for n in device_counts
    }
