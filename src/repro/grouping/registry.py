"""Grouping-policy registry.

Maps policy names to factories so scenarios, sweeps, benchmarks and the
CLI can select grouping policies by name — mirroring (and shaped like)
the mechanism registry in :mod:`repro.core.registry`.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.errors import ConfigurationError
from repro.grouping.policies import (
    CollisionAwarePolicy,
    CoverageStratifiedPolicy,
    ExactCoverPolicy,
    GreedyCoverPolicy,
    RandomWindowPolicy,
    SingleGroupPolicy,
)
from repro.grouping.policy import GroupingPolicy

#: Factories for every built-in grouping policy.
GROUPING_POLICIES: Dict[str, Callable[[], GroupingPolicy]] = {
    "greedy-cover": GreedyCoverPolicy,
    "exact-cover": ExactCoverPolicy,
    "collision-aware": CollisionAwarePolicy,
    "coverage-stratified": CoverageStratifiedPolicy,
    "random": RandomWindowPolicy,
    "single-group": SingleGroupPolicy,
}


def register_grouping_policy(
    name: str, factory: Callable[[], GroupingPolicy]
) -> Callable[[], GroupingPolicy]:
    """Register ``factory`` under ``name`` (duplicate names raise).

    Returns the factory so the call can be used as a decorator-style
    one-liner. Registered policies are immediately selectable by name
    in scenarios, sweeps and the CLI.

    Registration is **per process**. ``backend="fused"`` workers fork
    from the process that starts the pool, so they inherit every name
    registered before the run starts; a name registered after that (or
    on a platform whose pools spawn rather than fork) must be
    registered at import time of a module the workers import (the
    module defining your policy), or the workers' registry will
    not contain it.
    """
    if name in GROUPING_POLICIES:
        raise ConfigurationError(
            f"grouping policy {name!r} is already registered"
        )
    GROUPING_POLICIES[name] = factory
    return factory


def grouping_policy_factory(name: str) -> Callable[[], GroupingPolicy]:
    """The registered factory for ``name`` (no instantiation)."""
    try:
        return GROUPING_POLICIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown grouping policy {name!r}; "
            f"available: {sorted(GROUPING_POLICIES)}"
        ) from None


def grouping_policy_by_name(name: str) -> GroupingPolicy:
    """Instantiate a grouping policy by its registry name."""
    return grouping_policy_factory(name)()
