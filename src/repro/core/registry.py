"""Mechanism registry.

Maps mechanism names to factories so experiments, benchmarks and the
CLI can select mechanisms by name. External code adds its own with
:func:`register_mechanism`; scenario validation resolves names through
:func:`mechanism_factory`, so dynamically registered mechanisms are
immediately usable in :class:`~repro.scenarios.spec.ScenarioSpec`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, TYPE_CHECKING

from repro.core.base import GroupingMechanism
from repro.core.da_sc import DaScMechanism
from repro.core.dr_sc import DrScMechanism
from repro.core.dr_si import DrSiMechanism
from repro.core.unicast import UnicastBaseline
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.grouping.policy import GroupingPolicy

#: Factories for every built-in mechanism and baseline.
MECHANISMS: Dict[str, Callable[..., GroupingMechanism]] = {
    "dr-sc": DrScMechanism,
    "da-sc": DaScMechanism,
    "dr-si": DrSiMechanism,
    "unicast": UnicastBaseline,
}


def register_mechanism(
    name: str, factory: Callable[..., GroupingMechanism]
) -> Callable[..., GroupingMechanism]:
    """Register ``factory`` under ``name`` (duplicate names raise).

    Returns the factory so the call can be used as a decorator-style
    one-liner. Registered mechanisms are immediately selectable by name
    in scenarios, experiments and the CLI.

    Registration is **per process**. ``backend="fused"`` workers fork
    from the process that starts the pool, so they inherit every name
    registered before the run starts; a name registered after that (or
    on a platform whose pools spawn rather than fork) must be
    registered at import time of a module the workers import (the
    module defining your mechanism), or the workers' registry will
    not contain it.
    """
    if name in MECHANISMS:
        raise ConfigurationError(f"mechanism {name!r} is already registered")
    MECHANISMS[name] = factory
    return factory


def mechanism_factory(name: str) -> Callable[..., GroupingMechanism]:
    """The registered factory for ``name`` (no instantiation).

    This is the lookup scenario validation routes through, so a name is
    valid iff it resolves here — built-in or dynamically registered.
    """
    try:
        return MECHANISMS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown mechanism {name!r}; available: {sorted(MECHANISMS)}"
        ) from None


def mechanism_by_name(
    name: str, policy: Optional["GroupingPolicy"] = None
) -> GroupingMechanism:
    """Instantiate a mechanism by its registry name.

    ``policy`` overrides the mechanism's default grouping policy; None
    keeps the default (the paper semantics), so third-party factories
    that predate the policy axis keep working unchanged.
    """
    factory = mechanism_factory(name)
    if policy is None:
        return factory()
    return factory(policy=policy)
