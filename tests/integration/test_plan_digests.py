"""Plan-digest pins for every (mechanism, grouping policy) pairing.

The golden metric pins cover the default policies only, on fleets of at
most 120 devices. These pins hash the whole plan of every pairing the
mechanisms accept — DR-SC under the five policies that guarantee a
window PO, DA-SC and DR-SI under all six, and the unicast baseline — on
one fixed 2,000-device fleet of the paper-default traffic mixture (12
devices for the exponential exact cover). The fleet mixes coverage
classes, so coverage stratification and the per-group bearer rates
differ from the greedy cover's. The digest covers every
:class:`~repro.core.plan.PlanArrays` column plus the transmission
table's frame, rate and duration, so any change to a grouping decision,
its ordering or a mechanism's wake directives moves it.
"""

import hashlib

import numpy as np
import pytest

from repro.core.base import PlanningContext
from repro.core.registry import mechanism_by_name
from repro.grouping.registry import grouping_policy_by_name
from repro.traffic.generator import CoverageMix, generate_fleet
from repro.traffic.mixtures import PAPER_DEFAULT_MIXTURE

FLEET_SEED = 2018
PLAN_SEED = 11
N_DEVICES = 2_000
N_EXACT_DEVICES = 12
COVERAGE_MIX = CoverageMix(normal=0.6, robust=0.3, extreme=0.1)

#: SHA-256 of each pairing's plan; see :func:`plan_digest`.
PLAN_SHA256 = {
    "dr-sc/greedy-cover": (
        "0c22d1d50bb151cc41aa4ac86544315c96e4baf7220dac1bc3b1d4fe1f8e3851"
    ),
    "dr-sc/exact-cover": (
        "b97ebbe283b2fc9f0d7969584350fe773d6a8ba89db62ef3a34b31b9e78a9b1c"
    ),
    "dr-sc/collision-aware": (
        "46460b910619412f651a4e482b1a77d2709e77f37887f13b1a6c4c1e32be1ad9"
    ),
    "dr-sc/coverage-stratified": (
        "1ed8bec5b16c9cbbb35660d48cfef4f4b6c45d272d778320c2f38fa3e427159c"
    ),
    "dr-sc/random": (
        "1ba8ad65fb6a8d15669ec40a87384a5664b18f3321c6e65df8ffc4ded06ac288"
    ),
    "da-sc/greedy-cover": (
        "d3d14ed3f806cfae401827d1e9d43055e12fa9a22b68d1ff69cc4e0e57b8328a"
    ),
    "da-sc/exact-cover": (
        "ea5a48ef326066c70579a7c426d0e69ed3386568dfe03fb99e20d795f6c20c20"
    ),
    "da-sc/collision-aware": (
        "3783e3c94ab393a9086e4f1e574be6af5a95b122e3523ff6d39e641b63baafd9"
    ),
    "da-sc/coverage-stratified": (
        "57dc1464cd04fe56567558c7a8bb2f6e9d64d41da33deb1f808e52f19e7978b7"
    ),
    "da-sc/random": (
        "3ce3260c64da35cf50f0cbb9dcfdb5b6e78518b6f49e94f649268570b9f8b4c0"
    ),
    "da-sc/single-group": (
        "64eb3fb5ddbf4e5a7d6ec929322600e4c8b3be3805ea85739102cdd6840f97a7"
    ),
    "dr-si/greedy-cover": (
        "d3d14ed3f806cfae401827d1e9d43055e12fa9a22b68d1ff69cc4e0e57b8328a"
    ),
    "dr-si/exact-cover": (
        "ea5a48ef326066c70579a7c426d0e69ed3386568dfe03fb99e20d795f6c20c20"
    ),
    "dr-si/collision-aware": (
        "3783e3c94ab393a9086e4f1e574be6af5a95b122e3523ff6d39e641b63baafd9"
    ),
    "dr-si/coverage-stratified": (
        "57dc1464cd04fe56567558c7a8bb2f6e9d64d41da33deb1f808e52f19e7978b7"
    ),
    "dr-si/random": (
        "3ce3260c64da35cf50f0cbb9dcfdb5b6e78518b6f49e94f649268570b9f8b4c0"
    ),
    "dr-si/single-group": (
        "a469c8b0f741c65926d2e2e3327f3b1d52a1a3ea72a51f5cb8fb290a155651a3"
    ),
    "unicast": (
        "066b2f93469975f428dfc2009345101f7be2e8bba13056a77cd995eb2d5b07e3"
    ),
}

INT_COLUMNS = (
    "device",
    "transmission",
    "method",
    "page_frame",
    "connect_frame",
    "adaptation_page_frame",
    "adapted_cycle",
)


def plan_digest(plan) -> str:
    """SHA-256 over the plan's directive columns, then its transmission
    frames, rates and durations (fixed dtypes, so the bytes do not
    depend on how a column was built)."""
    digest = hashlib.sha256()
    columns = plan.columns
    for name in INT_COLUMNS:
        digest.update(np.ascontiguousarray(getattr(columns, name), np.int64))
    table = plan.transmissions
    digest.update(np.ascontiguousarray(table.frame, np.int64))
    digest.update(np.ascontiguousarray(table.rate_bps, np.float64))
    digest.update(np.ascontiguousarray(table.duration_frames, np.int64))
    return digest.hexdigest()


@pytest.fixture(scope="module")
def fleets():
    return {
        n: generate_fleet(
            n,
            PAPER_DEFAULT_MIXTURE,
            np.random.default_rng(FLEET_SEED),
            coverage_mix=COVERAGE_MIX,
        )
        for n in (N_DEVICES, N_EXACT_DEVICES)
    }


@pytest.mark.parametrize("pairing", sorted(PLAN_SHA256))
def test_plan_digest_unchanged(pairing, fleets):
    mechanism_name, _, policy_name = pairing.partition("/")
    policy = grouping_policy_by_name(policy_name) if policy_name else None
    mechanism = mechanism_by_name(mechanism_name, policy)
    fleet = fleets[N_EXACT_DEVICES if policy_name == "exact-cover" else N_DEVICES]
    context = PlanningContext(payload_bytes=1_000_000)
    plan = mechanism.plan(fleet, context, np.random.default_rng(PLAN_SEED))
    plan.validate(fleet)
    assert plan_digest(plan) == PLAN_SHA256[pairing]
