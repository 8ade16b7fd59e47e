"""Unit tests for traffic mixtures and fleet generation."""

import numpy as np
import pytest

from repro.devices.profiles import DeviceCategory
from repro.drx.cycles import DrxCycle
from repro.errors import ConfigurationError
from repro.traffic.validation import validate_unit_sum
from repro.phy.coverage import CoverageClass
from repro.traffic.generator import (
    URBAN_COVERAGE,
    CoverageMix,
    generate_fleet,
)
from repro.traffic.mixtures import (
    LONG_EDRX_MIXTURE,
    MIXTURES,
    MODERATE_EDRX_MIXTURE,
    PAPER_DEFAULT_MIXTURE,
    SHORT_EDRX_MIXTURE,
    CategoryProfile,
    mixture_by_name,
    TrafficMixture,
)


class TestCategoryProfile:
    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            CategoryProfile(
                weight=1.0,
                cycle_distribution={DrxCycle(2048): 0.5, DrxCycle(4096): 0.4},
            )

    def test_weight_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            CategoryProfile(weight=0, cycle_distribution={DrxCycle(2048): 1.0})


class TestMixture:
    def test_shares_normalised(self):
        total = sum(
            PAPER_DEFAULT_MIXTURE.category_share(c)
            for c in PAPER_DEFAULT_MIXTURE.categories
        )
        assert total == pytest.approx(1.0)

    def test_paper_default_is_two_tier(self):
        """Metering tier at the eDRX max; responsive tier at short eDRX."""
        meters = PAPER_DEFAULT_MIXTURE.cycle_distribution(
            DeviceCategory.SMART_METER
        )
        assert all(cycle.seconds >= 2621.0 for cycle in meters)
        trackers = PAPER_DEFAULT_MIXTURE.cycle_distribution(
            DeviceCategory.ASSET_TRACKER
        )
        assert all(cycle.seconds <= 82.0 for cycle in trackers)

    def test_sampling_respects_categories(self, rng):
        cat_idx, periods = PAPER_DEFAULT_MIXTURE.sample_columns(500, rng)
        categories = [PAPER_DEFAULT_MIXTURE.categories[i] for i in cat_idx]
        assert DeviceCategory.SMART_METER in categories
        for category, frames in zip(categories, periods):
            allowed = PAPER_DEFAULT_MIXTURE.cycle_distribution(category)
            assert int(frames) in {int(cycle) for cycle in allowed}

    def test_max_cycle(self):
        assert PAPER_DEFAULT_MIXTURE.max_cycle.seconds == pytest.approx(10485.76)
        assert SHORT_EDRX_MIXTURE.max_cycle.seconds == pytest.approx(163.84)

    def test_empty_mixture_rejected(self):
        with pytest.raises(ConfigurationError):
            TrafficMixture("empty", {})

    def test_sample_rejects_bad_n(self, rng):
        with pytest.raises(ConfigurationError):
            PAPER_DEFAULT_MIXTURE.sample_columns(0, rng)


class TestCoverageMix:
    def test_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            CoverageMix(normal=0.5, robust=0.1, extreme=0.1)

    def test_sampling(self, rng):
        classes = list(URBAN_COVERAGE.sample(1000, rng))
        share = classes.count(CoverageClass.NORMAL) / 1000
        assert share == pytest.approx(0.8, abs=0.08)


class TestGenerateFleet:
    def test_size_and_uniqueness(self, rng):
        fleet = generate_fleet(100, PAPER_DEFAULT_MIXTURE, rng)
        assert len(fleet) == 100
        imsis = [d.identity.imsi for d in fleet]
        assert len(set(imsis)) == 100

    def test_reproducible_with_same_seed(self):
        a = generate_fleet(50, PAPER_DEFAULT_MIXTURE, np.random.default_rng(9))
        b = generate_fleet(50, PAPER_DEFAULT_MIXTURE, np.random.default_rng(9))
        assert [d.identity.imsi for d in a] == [d.identity.imsi for d in b]
        assert [int(d.cycle) for d in a] == [int(d.cycle) for b, d in zip(b, b)]

    def test_different_seeds_differ(self):
        a = generate_fleet(50, PAPER_DEFAULT_MIXTURE, np.random.default_rng(1))
        b = generate_fleet(50, PAPER_DEFAULT_MIXTURE, np.random.default_rng(2))
        assert [d.identity.imsi for d in a] != [d.identity.imsi for d in b]

    def test_default_coverage_all_normal(self, rng):
        fleet = generate_fleet(30, PAPER_DEFAULT_MIXTURE, rng)
        assert all(d.coverage is CoverageClass.NORMAL for d in fleet)

    def test_urban_coverage_mix(self, rng):
        fleet = generate_fleet(
            200, PAPER_DEFAULT_MIXTURE, rng, coverage_mix=URBAN_COVERAGE
        )
        covered = {d.coverage for d in fleet}
        assert CoverageClass.ROBUST in covered or CoverageClass.EXTREME in covered

    def test_rejects_bad_sizes(self, rng):
        with pytest.raises(ConfigurationError):
            generate_fleet(0, PAPER_DEFAULT_MIXTURE, rng)

    def test_ablation_mixtures_cover_scales(self, rng):
        assert SHORT_EDRX_MIXTURE.max_cycle < MODERATE_EDRX_MIXTURE.max_cycle
        assert MODERATE_EDRX_MIXTURE.max_cycle < LONG_EDRX_MIXTURE.max_cycle


class TestUnifiedWeightValidation:
    """CoverageMix and CategoryProfile share one sum-to-1 arbiter.

    The two layers used to disagree (raw ``abs(total - 1) > 1e-9`` vs
    ``math.isclose`` with a relative tolerance), so a distribution valid
    in one could be rejected in the other.
    """

    # Just inside / just outside the shared tolerance at a total of 1.
    INSIDE = 5e-10
    OUTSIDE = 5e-9

    def test_boundary_agreement_inside(self):
        shares = (0.5 + self.INSIDE, 0.3, 0.2)
        CoverageMix(*shares)
        CategoryProfile(
            weight=1.0,
            cycle_distribution={
                DrxCycle.from_seconds(20.48): shares[0],
                DrxCycle.from_seconds(40.96): shares[1],
                DrxCycle.from_seconds(81.92): shares[2],
            },
        )

    def test_boundary_agreement_outside(self):
        shares = (0.5 + self.OUTSIDE, 0.3, 0.2)
        with pytest.raises(ConfigurationError):
            CoverageMix(*shares)
        with pytest.raises(ConfigurationError):
            CategoryProfile(
                weight=1.0,
                cycle_distribution={
                    DrxCycle.from_seconds(20.48): shares[0],
                    DrxCycle.from_seconds(40.96): shares[1],
                    DrxCycle.from_seconds(81.92): shares[2],
                },
            )

    def test_helper_rejects_negative_and_empty(self):
        with pytest.raises(ConfigurationError):
            validate_unit_sum((1.5, -0.5), what="shares")
        with pytest.raises(ConfigurationError):
            validate_unit_sum((), what="shares")
        assert validate_unit_sum((0.25,) * 4, what="shares") == 1.0

    def test_mixture_registry_lookup(self):
        assert mixture_by_name("paper-default") is PAPER_DEFAULT_MIXTURE
        assert set(MIXTURES) >= {
            "paper-default", "short-edrx", "moderate-edrx", "long-edrx",
        }
        with pytest.raises(ConfigurationError):
            mixture_by_name("no-such-mixture")
