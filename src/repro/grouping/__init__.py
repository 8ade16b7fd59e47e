"""Pluggable grouping policies: *who goes in which group* as its own axis.

The mechanisms in :mod:`repro.core` decide *how* devices are woken for
a multicast; the policies here decide *which devices share one*. See
:mod:`repro.grouping.policy` for the contract, and ``docs/grouping.md``
for semantics, the registry and how to add a policy.
"""

from repro.grouping.policy import (
    GroupingDecision,
    GroupingPolicy,
)
from repro.grouping.policies import (
    CollisionAwarePolicy,
    CoverageStratifiedPolicy,
    ExactCoverPolicy,
    GreedyCoverPolicy,
    RandomWindowPolicy,
    SingleGroupPolicy,
)
from repro.grouping.registry import (
    GROUPING_POLICIES,
    grouping_policy_by_name,
    grouping_policy_factory,
    register_grouping_policy,
)

__all__ = [
    "GroupingPolicy",
    "GroupingDecision",
    "GreedyCoverPolicy",
    "ExactCoverPolicy",
    "CollisionAwarePolicy",
    "CoverageStratifiedPolicy",
    "RandomWindowPolicy",
    "SingleGroupPolicy",
    "GROUPING_POLICIES",
    "grouping_policy_by_name",
    "grouping_policy_factory",
    "register_grouping_policy",
]
