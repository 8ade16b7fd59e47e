"""The columnar fleet and its device-view contract.

A ``Fleet`` is one frozen struct-of-arrays whose rows read as device
views built on access. These tests pin the invariants the columnar form
rests on: exact round-trips between objects and columns, vectorised
derivations bit-identical to their scalar references, and the
cheap-pickle / index-slice behaviours the shared-memory path builds on.
"""

import pickle

import numpy as np
import pytest
from fleet_oracle import sample_reference
from paging_oracle import paging_frame_offset, pattern_for

from repro.devices import Battery, Fleet, NbIotDevice
from repro.devices.fleet import (
    BYTES_PER_DEVICE,
    CATEGORY_CODE,
    CATEGORY_ORDER,
    COLUMN_NAMES,
    COLUMN_SCHEMA,
    COVERAGE_CODE,
    COVERAGE_ORDER,
    fleet_nbytes,
)
from repro.devices.identity import DeviceIdentity
from repro.devices.profiles import DeviceCategory
from repro.drx.cycles import FULL_LADDER, DrxCycle
from repro.drx.paging import NB, v_paging_frame_offset, v_paging_subframe
from repro.errors import FleetError, LadderError
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
        cycle=cycle,
        nb=NB.ONE_T,
        coverage=coverage,
        category=DeviceCategory.SMART_METER,
        battery=battery,
    )


class TestRoundTrips:
    def test_devices_to_arrays_to_devices_is_identity(self):
        devices = tuple(_fleet(25))
        rebuilt = tuple(Fleet.from_devices(devices))
        assert rebuilt == devices

    def test_arrays_to_fleet_to_arrays_is_identity(self):
        fleet = _fleet(30)
        # Materialising the device views and re-capturing their columns
        # lands back on the exact same columns.
        assert Fleet.from_devices(tuple(fleet)) == fleet

    def test_batteries_are_not_stored(self):
        battery = Battery(capacity_mah=1200.0, voltage_v=3.6)
        devices = (
            _device(1111, battery=battery),
            _device(2222, battery=None),
        )
        fleet = Fleet.from_devices(devices)
        assert fleet[0].battery is None
        assert fleet[1].battery is None
        assert fleet == Fleet.from_devices(devices)

    def test_fleet_pickle_round_trips_via_arrays(self):
        fleet = _fleet(50)
        clone = pickle.loads(pickle.dumps(fleet))
        assert clone == fleet
        assert tuple(clone) == tuple(fleet)

    def test_unpickled_columns_are_read_only(self):
        clone = pickle.loads(pickle.dumps(_fleet(20)))
        for name in COLUMN_NAMES:
            assert not getattr(clone, name).flags.writeable, name
        with pytest.raises(ValueError):
            clone.phases[0] = 1

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
        fleet = Fleet.from_columns(
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
            assert fleet[i] == expected

    def test_rejects_bad_imsi(self):
        with pytest.raises(FleetError, match="IMSI"):
            Fleet.from_columns(
                imsis=np.array([0], dtype=np.int64),
                periods=np.array([256], dtype=np.int64),
                coverage_codes=np.zeros(1, dtype=np.int64),
                category_codes=np.zeros(1, dtype=np.int64),
            )

    def test_rejects_bad_coverage_code(self):
        with pytest.raises(FleetError, match="coverage code"):
            Fleet.from_columns(
                imsis=np.array([1001], dtype=np.int64),
                periods=np.array([256], dtype=np.int64),
                coverage_codes=np.array([len(COVERAGE_ORDER)], np.int64),
                category_codes=np.zeros(1, dtype=np.int64),
            )

    def test_rejects_off_ladder_period(self):
        with pytest.raises(Exception):
            Fleet.from_columns(
                imsis=np.array([1001], dtype=np.int64),
                periods=np.array([257], dtype=np.int64),
                coverage_codes=np.zeros(1, dtype=np.int64),
                category_codes=np.zeros(1, dtype=np.int64),
            )
        # The first off-ladder row names the error, wherever it sits and
        # whichever way it is off (not a power of two, beyond the ladder).
        for periods, bad in (([256, 512, 257, 96], "257"), ([32, 2**21], "2097152")):
            with pytest.raises(LadderError, match=f"cycle of {bad} frames"):
                Fleet.from_columns(
                    imsis=np.arange(1001, 1001 + len(periods), dtype=np.int64),
                    periods=np.array(periods, dtype=np.int64),
                    coverage_codes=np.zeros(len(periods), dtype=np.int64),
                    category_codes=np.zeros(len(periods), dtype=np.int64),
                )

    def test_fleet_wide_nb_reaches_every_row(self):
        imsis = np.array([1001, 2002, 3003], dtype=np.int64)
        periods = np.array([256, 512, 1024], dtype=np.int64)
        fleet = Fleet.from_columns(
            imsis=imsis,
            periods=periods,
            coverage_codes=np.zeros(3, dtype=np.int64),
            category_codes=np.full(3, CATEGORY_CODE[DeviceCategory.SMART_METER]),
            nb=NB.QUARTER_T,
        )
        expected = tuple(
            NbIotDevice(
                identity=DeviceIdentity(int(imsi)),
                cycle=DrxCycle(int(frames)),
                nb=NB.QUARTER_T,
                coverage=CoverageClass.NORMAL,
                category=DeviceCategory.SMART_METER,
            )
            for imsi, frames in zip(imsis, periods)
        )
        assert tuple(fleet) == expected
        assert fleet == Fleet.from_devices(expected)
        assert fleet.nb is NB.QUARTER_T

    def test_out_buffers_back_the_returned_fleet(self):
        columns = dict(
            imsis=np.array([1001, 2002, 3003], dtype=np.int64),
            periods=np.array([256, 512, 1024], dtype=np.int64),
            coverage_codes=np.array([0, 1, 2], dtype=np.int64),
            category_codes=np.zeros(3, dtype=np.int64),
        )
        out = {name: np.empty(3, dtype) for name, dtype in COLUMN_SCHEMA}
        staged = Fleet.from_columns(**columns, out=out)
        assert staged == Fleet.from_columns(**columns)
        for name, column in staged.columns():
            assert np.shares_memory(column, out[name]), name

    def test_rejects_empty(self):
        with pytest.raises(FleetError, match="at least one device"):
            Fleet.from_columns(
                imsis=np.array([], dtype=np.int64),
                periods=np.array([], dtype=np.int64),
                coverage_codes=np.array([], dtype=np.int64),
                category_codes=np.array([], dtype=np.int64),
            )


class TestShapeAndSlicing:
    def test_take_then_concatenate_restores_rows(self):
        fleet = _fleet(20)
        left = fleet.subset(np.arange(0, 8))
        right = fleet.subset(np.arange(8, 20))
        assert Fleet.concatenate([left, right]) == fleet

    def test_take_empty_raises(self):
        with pytest.raises(FleetError, match="at least one device"):
            _fleet(5).subset(np.array([], dtype=np.int64))

    def test_mismatched_column_lengths_raise(self):
        columns = dict(_fleet(4).columns())
        columns["periods"] = columns["periods"][:2]
        with pytest.raises(FleetError, match="rows"):
            Fleet(**columns, nb=NB.ONE_T)

    def test_nbytes_is_schema_sized(self):
        fleet = _fleet(12)
        assert fleet.nbytes == 12 * BYTES_PER_DEVICE == fleet_nbytes(12)

    def test_the_five_drawn_columns_are_stored(self):
        assert COLUMN_NAMES == (
            "imsis", "periods", "phases", "coverage_codes", "category_codes"
        )
        assert _fleet(12).nbytes == 40 * 12
        assert sum(column.nbytes for _, column in _fleet(12).columns()) == 40 * 12

    def test_nb_must_be_an_nb_member(self):
        columns = dict(_fleet(4).columns())
        with pytest.raises(FleetError, match="nb"):
            Fleet(**columns, nb=0.25)

    def test_from_devices_rejects_mixed_nb(self):
        with pytest.raises(FleetError, match="one nB"):
            Fleet.from_devices(
                (
                    NbIotDevice.build(1111, DrxCycle(256), nb=NB.ONE_T),
                    NbIotDevice.build(2222, DrxCycle(256), nb=NB.HALF_T),
                )
            )

    def test_concatenate_rejects_parts_of_different_nb(self):
        half = Fleet.from_devices(
            (NbIotDevice.build(1111, DrxCycle(256), nb=NB.HALF_T),)
        )
        with pytest.raises(FleetError, match="different nB"):
            Fleet.concatenate([_fleet(4), half])

    def test_bearer_rate_is_the_coverage_class_rate(self):
        fleet = Fleet.from_devices(
            [
                _device(1000 + code, coverage=coverage)
                for code, coverage in enumerate(COVERAGE_ORDER)
            ]
        )
        rates = fleet.downlink_bps(np.arange(len(fleet)))
        assert rates.dtype == np.float64
        assert rates.tolist() == [device.link.downlink_bps for device in fleet]
        assert fleet.group_rate_bps([0, 1]) == min(rates[:2])

    def test_duplicate_imsis_detected_columnar(self):
        fleet = Fleet.from_devices((_device(5005),))
        with pytest.raises(FleetError, match="duplicate IMSIs"):
            Fleet.concatenate([fleet, Fleet.from_devices((_device(5005),))])

    def test_fleet_init_rejects_duplicate_imsis(self):
        with pytest.raises(FleetError, match="duplicate IMSIs"):
            Fleet.from_devices((_device(5005), _device(5005)))

    def test_columns_are_read_only(self):
        fleet = _fleet(3)
        with pytest.raises(ValueError):
            fleet.imsis[0] = 1

    def test_subset_keeps_the_requested_order(self):
        fleet = _fleet(6)
        sub = fleet.subset([4, 0, 2])
        assert tuple(sub) == (fleet[4], fleet[0], fleet[2])

    def test_subset_rejects_negative_indices(self):
        # A negative index would silently pick a row from the end.
        with pytest.raises(FleetError, match="out of range"):
            _fleet(5).subset([-1])

    def test_subset_rejects_repeated_indices(self):
        with pytest.raises(FleetError, match="duplicate"):
            _fleet(5).subset([1, 3, 1])

    def test_concatenate_of_one_part_is_that_part(self):
        fleet = _fleet(4)
        assert Fleet.concatenate([fleet]) is fleet
        with pytest.raises(FleetError, match="at least one device"):
            Fleet.concatenate([])

    def test_two_dimensional_column_rejected(self):
        columns = dict(_fleet(4).columns())
        columns["phases"] = columns["phases"].reshape(2, 2)
        with pytest.raises(FleetError, match="1-D"):
            Fleet(**columns, nb=NB.ONE_T)

    def test_matching_read_only_columns_are_not_copied(self):
        # What keeps a shared-memory attach zero-copy.
        columns = dict(_fleet(4).columns())
        fleet = Fleet(**columns, nb=NB.ONE_T)
        for name, column in fleet.columns():
            assert column is columns[name], name

    def test_group_rate_rejects_out_of_range_members(self):
        fleet = _fleet(4)
        with pytest.raises(FleetError, match="out of range"):
            fleet.group_rate_bps([0, 4])

    def test_coverage_histogram_counts_every_class(self):
        fleet = _fleet(30)
        histogram = fleet.coverage_histogram()
        assert set(histogram) == set(CoverageClass)
        assert sum(histogram.values()) == len(fleet)
        for coverage, count in histogram.items():
            assert count == sum(d.coverage is coverage for d in fleet)


class TestRowViews:
    def test_slice_is_a_tuple_of_views(self):
        fleet = _fleet(10)
        assert fleet[1:3] == (fleet[1], fleet[2])
        assert fleet[::-4] == (fleet[9], fleet[5], fleet[1])

    def test_negative_index_and_out_of_range(self):
        fleet = _fleet(4)
        assert fleet[-1] == fleet[3]
        with pytest.raises(IndexError):
            fleet[4]

    def test_numpy_integer_index(self):
        fleet = _fleet(4)
        assert fleet[np.int64(2)] == fleet[2]

    def test_iteration_matches_indexing(self):
        fleet = _fleet(6)
        assert tuple(fleet) == tuple(fleet[i] for i in range(len(fleet)))

    def test_views_are_built_on_access(self):
        fleet = _fleet(4)
        assert fleet[0] == fleet[0]
        assert fleet[0] is not fleet[0]


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

    @pytest.mark.parametrize("nb", list(NB), ids=lambda nb: nb.name)
    def test_v_paging_kernels_match_scalar_every_ladder_cycle(self, nb):
        # Every ladder cycle, eDRX up to 2^20 frames included, several
        # devices per cycle.
        rng = np.random.default_rng(12)
        cycles = np.repeat(np.array([int(c) for c in FULL_LADDER]), 5)
        ue_ids = rng.integers(0, 4096, size=cycles.size)
        phases = v_paging_frame_offset(ue_ids, cycles, nb)
        subframes = v_paging_subframe(ue_ids, cycles, nb)
        for ue, cycle, phase, subframe in zip(
            ue_ids.tolist(), cycles.tolist(), phases.tolist(), subframes.tolist()
        ):
            pattern = pattern_for(ue, DrxCycle(cycle), nb)
            assert (phase, subframe) == (pattern.phase, pattern.subframe)

    def test_v_paging_frame_offset_into_its_own_input(self):
        # ``out`` may be the UE_ID array itself (how ``from_columns``
        # builds the phase column without a UE_ID array of its own).
        rng = np.random.default_rng(13)
        ladder = np.array([256, 1024, 4096, 2**20], np.int64)
        cycles = ladder[rng.integers(0, ladder.size, size=300)]
        ue_ids = rng.integers(0, 4096, size=300)
        buffer = ue_ids.copy()
        out = v_paging_frame_offset(buffer, cycles, NB.HALF_T, out=buffer)
        assert out is buffer
        assert out.tolist() == [
            paging_frame_offset(int(u), DrxCycle(int(c)), NB.HALF_T)
            for u, c in zip(ue_ids, cycles)
        ]

    @pytest.mark.parametrize("name", sorted(MIXTURES))
    def test_sample_columns_matches_reference_stream(self, name):
        mixture = MIXTURES[name]
        cat_idx, periods = mixture.sample_columns(
            64, np.random.default_rng(3)
        )
        ref = sample_reference(mixture, 64, np.random.default_rng(3))
        assert [
            (mixture.categories[i], int(p))
            for i, p in zip(cat_idx, periods)
        ] == ref

    def test_generate_fleet_never_builds_devices(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a device object was built")

        monkeypatch.setattr("repro.devices.fleet.NbIotDevice", forbidden)
        fleet = generate_fleet(
            64, MODERATE_EDRX_MIXTURE, np.random.default_rng(5)
        )
        assert len(fleet) == 64

    def test_coverage_and_category_orders_cover_enums(self):
        assert set(COVERAGE_ORDER) == set(CoverageClass)
        assert set(CATEGORY_ORDER) == set(DeviceCategory)
        assert all(
            COVERAGE_ORDER[COVERAGE_CODE[c]] is c for c in CoverageClass
        )
