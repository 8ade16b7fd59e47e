"""The columnar fleet representation and its device-view contract.

``FleetArrays`` is the canonical fleet; ``Fleet`` is a lazy view layer
over it. These tests pin the invariants the inversion rests on: exact
round-trips between objects and columns, vectorised derivations
bit-identical to their scalar references, and the cheap-pickle /
index-slice behaviours the shared-memory path builds on.
"""

import pickle

import numpy as np
import pytest

from repro.devices import Battery, Fleet, FleetArrays, NbIotDevice
from repro.devices.arrays import (
    BYTES_PER_DEVICE,
    CATEGORY_CODE,
    CATEGORY_ORDER,
    COLUMN_NAMES,
    COVERAGE_CODE,
    COVERAGE_ORDER,
    fleet_nbytes,
)
from repro.devices.identity import DeviceIdentity
from repro.devices.profiles import DeviceCategory
from repro.drx.config import DrxConfig
from repro.drx.cycles import FULL_LADDER, DrxCycle
from repro.drx.paging import (
    NB,
    paging_frame_offset,
    pattern_for,
    v_paging_frame_offset,
    v_paging_subframe,
)
from repro.errors import FleetError
from repro.phy.coverage import CoverageClass
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import MIXTURES, MODERATE_EDRX_MIXTURE


def _fleet(n=40, seed=7):
    rng = np.random.default_rng(seed)
    return generate_fleet(n, MODERATE_EDRX_MIXTURE, rng)


def _device(imsi, frames=256, coverage=CoverageClass.NORMAL, battery=None):
    cycle = DrxCycle(frames)
    return NbIotDevice(
        identity=DeviceIdentity(imsi),
        drx=DrxConfig(
            ue_id=imsi % 4096,
            preferred_cycle=cycle,
            active_cycle=cycle,
            nb=NB.ONE_T,
        ),
        coverage=coverage,
        category=DeviceCategory.SMART_METER,
        battery=battery,
    )


class TestRoundTrips:
    def test_devices_to_arrays_to_devices_is_identity(self):
        devices = tuple(_fleet(25).devices)
        arrays = FleetArrays.from_devices(devices)
        rebuilt = tuple(arrays.device_at(i) for i in range(arrays.n))
        assert rebuilt == devices

    def test_arrays_to_fleet_to_arrays_is_identity(self):
        arrays = _fleet(30).arrays
        fleet = Fleet.from_arrays(arrays)
        # Materialising the device views and re-capturing their columns
        # lands back on the exact same arrays.
        recaptured = FleetArrays.from_devices(tuple(fleet.devices))
        assert recaptured.equals(arrays)

    def test_battery_sentinel_round_trips(self):
        battery = Battery(capacity_mah=1200.0, voltage_v=3.6)
        devices = (
            _device(1111, battery=battery),
            _device(2222, battery=None),
        )
        arrays = FleetArrays.from_devices(devices)
        assert arrays.battery_at(0) == battery
        assert arrays.battery_at(1) is None
        assert np.isnan(arrays.battery_capacity_mah[1])

    def test_fleet_pickle_round_trips_via_arrays(self):
        fleet = _fleet(50)
        clone = pickle.loads(pickle.dumps(fleet))
        assert clone.arrays.equals(fleet.arrays)
        assert tuple(clone.devices) == tuple(fleet.devices)

    def test_fleet_pickle_is_columnar_sized(self):
        # The pickle carries the arrays, never the device objects: it
        # must stay within a small constant of the raw column bytes.
        fleet = _fleet(400)
        payload = len(pickle.dumps(fleet))
        assert payload < 2 * fleet_nbytes(len(fleet)) + 4096


class TestFromColumns:
    def test_matches_per_device_construction(self):
        imsis = np.array([1001, 2002, 3003, 4004], dtype=np.int64)
        periods = np.array([256, 512, 256, 1024], dtype=np.int64)
        coverage_codes = np.array([0, 1, 2, 0], dtype=np.int64)
        category_codes = np.full(4, CATEGORY_CODE[DeviceCategory.SMART_METER])
        arrays = FleetArrays.from_columns(
            imsis=imsis,
            periods=periods,
            coverage_codes=coverage_codes,
            category_codes=category_codes,
        )
        for i in range(4):
            expected = _device(
                int(imsis[i]),
                frames=int(periods[i]),
                coverage=COVERAGE_ORDER[int(coverage_codes[i])],
            )
            assert arrays.device_at(i) == expected

    def test_rejects_bad_imsi(self):
        with pytest.raises(FleetError, match="IMSI"):
            FleetArrays.from_columns(
                imsis=np.array([0], dtype=np.int64),
                periods=np.array([256], dtype=np.int64),
                coverage_codes=np.zeros(1, dtype=np.int64),
                category_codes=np.zeros(1, dtype=np.int64),
            )

    def test_rejects_bad_coverage_code(self):
        with pytest.raises(FleetError, match="coverage code"):
            FleetArrays.from_columns(
                imsis=np.array([1001], dtype=np.int64),
                periods=np.array([256], dtype=np.int64),
                coverage_codes=np.array([len(COVERAGE_ORDER)], np.int64),
                category_codes=np.zeros(1, dtype=np.int64),
            )

    def test_rejects_off_ladder_period(self):
        with pytest.raises(Exception):
            FleetArrays.from_columns(
                imsis=np.array([1001], dtype=np.int64),
                periods=np.array([257], dtype=np.int64),
                coverage_codes=np.zeros(1, dtype=np.int64),
                category_codes=np.zeros(1, dtype=np.int64),
            )

    def test_rejects_empty(self):
        with pytest.raises(FleetError, match="at least one device"):
            FleetArrays.from_columns(
                imsis=np.array([], dtype=np.int64),
                periods=np.array([], dtype=np.int64),
                coverage_codes=np.array([], dtype=np.int64),
                category_codes=np.array([], dtype=np.int64),
            )


class TestShapeAndSlicing:
    def test_take_then_concatenate_restores_rows(self):
        arrays = _fleet(20).arrays
        left = arrays.take(np.arange(0, 8))
        right = arrays.take(np.arange(8, 20))
        assert FleetArrays.concatenate([left, right]).equals(arrays)

    def test_take_empty_raises(self):
        with pytest.raises(FleetError, match="at least one device"):
            _fleet(5).arrays.take(np.array([], dtype=np.int64))

    def test_mismatched_column_lengths_raise(self):
        arrays = _fleet(4).arrays
        columns = {name: getattr(arrays, name) for name in COLUMN_NAMES}
        columns["periods"] = columns["periods"][:2]
        with pytest.raises(FleetError, match="rows"):
            FleetArrays(**columns)

    def test_nbytes_is_schema_sized(self):
        arrays = _fleet(12).arrays
        assert arrays.nbytes == 12 * BYTES_PER_DEVICE == fleet_nbytes(12)

    def test_duplicate_imsis_detected_columnar(self):
        arrays = FleetArrays.from_devices((_device(5005), _device(5005)))
        with pytest.raises(FleetError, match="duplicate IMSIs"):
            arrays.validate_unique_imsis()

    def test_fleet_init_rejects_duplicate_imsis(self):
        with pytest.raises(FleetError, match="duplicate IMSIs"):
            Fleet((_device(5005), _device(5005)))

    def test_columns_are_read_only(self):
        arrays = _fleet(3).arrays
        with pytest.raises(ValueError):
            arrays.imsis[0] = 1


class TestVectorisedDerivations:
    def test_v_paging_frame_offset_matches_scalar(self):
        rng = np.random.default_rng(11)
        ue_ids = rng.integers(0, 4096, size=200)
        ladder = np.array([128, 256, 512, 1024, 2048, 4096], np.int64)
        cycles = ladder[rng.integers(0, ladder.size, size=200)]
        for nb in NB:
            vector = v_paging_frame_offset(ue_ids, cycles, nb)
            scalar = [
                paging_frame_offset(int(u), DrxCycle(int(c)), nb)
                for u, c in zip(ue_ids, cycles)
            ]
            assert vector.tolist() == scalar

    def test_v_paging_frame_offset_per_device_nb_every_ladder_cycle(self):
        # Per-device nB columns (the fleet's nb_* schema) at every
        # ladder cycle, eDRX up to 2^20 frames included.
        members = list(NB)
        combos = [(c, nb) for c in FULL_LADDER for nb in members]
        rng = np.random.default_rng(12)
        ue_ids = rng.integers(0, 4096, size=len(combos))
        cycles = np.array([int(c) for c, _nb in combos], np.int64)
        nb_columns = (
            np.array([nb.fraction.numerator for _c, nb in combos], np.int64),
            np.array([nb.fraction.denominator for _c, nb in combos], np.int64),
        )
        phases = v_paging_frame_offset(ue_ids, cycles, nb_columns)
        subframes = v_paging_subframe(ue_ids, cycles, nb_columns)
        for ue, (cycle, nb), phase, subframe in zip(
            ue_ids.tolist(), combos, phases.tolist(), subframes.tolist()
        ):
            pattern = pattern_for(ue, cycle, nb)
            assert (phase, subframe) == (pattern.phase, pattern.subframe)

    @pytest.mark.parametrize("name", sorted(MIXTURES))
    def test_sample_columns_matches_reference_stream(self, name):
        mixture = MIXTURES[name]
        cat_idx, periods = mixture.sample_columns(
            64, np.random.default_rng(3)
        )
        ref = mixture.sample_reference(64, np.random.default_rng(3))
        assert [
            (mixture.categories[i], int(p))
            for i, p in zip(cat_idx, periods)
        ] == ref

    def test_generate_fleet_never_builds_devices(self):
        fleet = generate_fleet(
            64, MODERATE_EDRX_MIXTURE, np.random.default_rng(5)
        )
        assert fleet._devices_cache is None

    def test_coverage_and_category_orders_cover_enums(self):
        assert set(COVERAGE_ORDER) == set(CoverageClass)
        assert set(CATEGORY_ORDER) == set(DeviceCategory)
        assert all(
            COVERAGE_ORDER[COVERAGE_CODE[c]] is c for c in CoverageClass
        )
