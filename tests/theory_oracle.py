"""Closed-form expectations used to sanity-check the simulator.

None of these are needed to *run* the system — they encode the back-of-
envelope analysis the paper sketches in Sec. IV (expected TI/2 waiting,
the connected-uptime ratio per payload size, the H_n greedy bound) so
tests can assert the Monte-Carlo results land where theory says they
must.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.phy.coverage import PROFILES, CoverageClass
from repro.traffic.mixtures import TrafficMixture


def expected_wait_s(inactivity_timer_s: float) -> float:
    """Mean connected wait before the multicast starts.

    Devices are paged (or self-wake) roughly uniformly inside the TI
    window and the transmission starts at its end, so the expected wait
    is TI/2 — the paper uses exactly this argument for Fig. 6(b):
    "they will wait for TI/2 on average".
    """
    if inactivity_timer_s <= 0:
        raise ConfigurationError(
            f"TI must be positive, got {inactivity_timer_s}"
        )
    return inactivity_timer_s / 2.0


def expected_window_coverage(
    n_devices: int, inactivity_timer_s: float, mixture: TrafficMixture
) -> float:
    """Expected number of devices a *fixed* TI-window covers.

    A device with cycle T has a PO in a fixed window of length TI with
    probability min(1, TI/T); summing over the mixture gives the fixed-
    window expectation — a lower bound on what the greedy's *best*
    window achieves in each round.
    """
    if n_devices < 1:
        raise ConfigurationError(f"n_devices must be >= 1, got {n_devices}")
    p = 0.0
    for category in mixture.categories:
        share = mixture.category_share(category)
        for cycle, prob in mixture.cycle_distribution(category).items():
            p += share * prob * min(1.0, inactivity_timer_s / cycle.seconds)
    return n_devices * p


def greedy_approximation_bound(universe_size: int) -> float:
    """Chvátal's H_n factor: greedy uses at most H_n times the optimum."""
    if universe_size < 1:
        raise ConfigurationError(
            f"universe size must be >= 1, got {universe_size}"
        )
    return sum(1.0 / k for k in range(1, universe_size + 1))


def unicast_connected_s(
    payload_bytes: int,
    coverage: CoverageClass = CoverageClass.NORMAL,
    *,
    random_access_s: float = None,
    rrc_setup_s: float = 0.12,
    rrc_release_s: float = 0.04,
) -> float:
    """Connected-mode uptime of one unicast delivery (no waiting)."""
    profile = PROFILES[coverage]
    ra = profile.random_access_seconds if random_access_s is None else random_access_s
    return ra + rrc_setup_s + payload_bytes * 8.0 / profile.downlink_bps + rrc_release_s


def expected_connected_increase(
    payload_bytes: int,
    inactivity_timer_s: float,
    coverage: CoverageClass = CoverageClass.NORMAL,
    extra_signalling_s: float = 0.0,
) -> float:
    """Predicted Fig. 6(b) ratio for a windowed mechanism.

    Windowed mechanisms add an expected TI/2 wait (plus, for DA-SC, the
    adaptation episode passed as ``extra_signalling_s``) on top of the
    unicast connected time; the relative increase therefore shrinks as
    the payload grows — the paper's "practically negligible as the
    multicast data size gets above 1MB".
    """
    base = unicast_connected_s(payload_bytes, coverage)
    extra = expected_wait_s(inactivity_timer_s) + extra_signalling_s
    return extra / base
