"""SharedFleet lifecycle: create/attach/close/unlink without leaks.

The ownership contract under test (docs/architecture.md "Memory
model"): the creator owns the segment name and alone may unlink it;
attachers map read-only views and close; a dead descriptor surfaces as
:class:`~repro.errors.SimulationError` carrying the caller's context,
never a raw ``FileNotFoundError``.
"""

import os
import pickle

import numpy as np
import pytest
from shared_fleets import publish

from repro.devices import (
    SharedFleet,
    SharedFleetDescriptor,
    unlink_descriptor,
)
from repro.devices.sharedmem import SEGMENT_PREFIX
from repro.drx.paging import NB
from repro.errors import FleetError, SimulationError
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import MODERATE_EDRX_MIXTURE


def _fleet(n=32, seed=3):
    rng = np.random.default_rng(seed)
    return generate_fleet(n, MODERATE_EDRX_MIXTURE, rng)


def _segment_path(descriptor) -> str:
    return f"/dev/shm/{descriptor.name}"


@pytest.fixture
def shared():
    fleet = publish(_fleet())
    yield fleet
    fleet.unlink()
    fleet.close()


class TestCreateAttach:
    def test_round_trip_equality(self, shared):
        attached = SharedFleet.attach(shared.descriptor)
        try:
            assert attached.fleet == shared.fleet
            assert not attached.owner and shared.owner
        finally:
            attached.close()

    @pytest.mark.parametrize("nb", [NB.ONE_T, NB.QUARTER_T, NB.FOUR_T])
    def test_round_trip_keeps_the_fleet_nb(self, nb):
        fleet = generate_fleet(
            16, MODERATE_EDRX_MIXTURE, np.random.default_rng(5), nb=nb
        )
        shared = publish(fleet)
        try:
            assert shared.descriptor.nb is nb
            attached = SharedFleet.attach(
                pickle.loads(pickle.dumps(shared.descriptor))
            )
            try:
                assert attached.fleet.nb is nb
                assert attached.fleet == fleet
                assert tuple(attached.fleet) == tuple(fleet)
            finally:
                attached.close()
        finally:
            shared.unlink()
            shared.close()

    def test_segment_holds_the_stored_columns_only(self, shared):
        assert shared.descriptor.nbytes == shared.fleet.nbytes == 40 * 32

    def test_staging_descriptor_has_no_nb_until_sealed(self):
        staged = SharedFleet.allocate(4)
        try:
            with pytest.raises(SimulationError, match="no nB"):
                staged.descriptor.nb
        finally:
            staged.unlink()
            staged.close()

    def test_extras_round_trip(self):
        fleet = _fleet(16)
        attachments = np.arange(16, dtype=np.int64) % 4
        shared = publish(
            fleet, extras={"attachments": attachments}
        )
        try:
            attached = SharedFleet.attach(shared.descriptor)
            assert attached.extra("attachments").tolist() == (
                attachments.tolist()
            )
            with pytest.raises(ValueError):
                attached.extra("attachments")[0] = 9
            attached.close()
        finally:
            shared.unlink()
            shared.close()

    def test_descriptor_is_tiny_and_picklable(self, shared):
        payload = pickle.dumps(shared.descriptor)
        assert len(payload) < 200
        clone = pickle.loads(payload)
        assert clone == shared.descriptor
        assert clone.nbytes == shared.descriptor.nbytes

    def test_segment_name_carries_repro_prefix(self, shared):
        assert shared.descriptor.name.startswith(SEGMENT_PREFIX)
        assert os.path.exists(_segment_path(shared.descriptor))

    def test_attached_columns_are_zero_copy_views(self, shared):
        attached = SharedFleet.attach(shared.descriptor)
        try:
            # A view over the segment buffer owns no data of its own.
            assert not attached.fleet.imsis.flags.owndata
            assert attached.fleet.imsis.base is not None
        finally:
            attached.close()

    def test_cell_slice_rejects_bad_indices(self, shared):
        attached = SharedFleet.attach(shared.descriptor)
        try:
            n = len(attached.fleet)
            for indices in ([-1], [n], [2, 0, 2], []):
                with pytest.raises(FleetError):
                    attached.fleet.subset(indices)
        finally:
            attached.close()


class TestLifecycle:
    def test_unlink_removes_segment_file(self):
        shared = publish(_fleet())
        path = _segment_path(shared.descriptor)
        assert os.path.exists(path)
        shared.unlink()
        shared.close()
        assert not os.path.exists(path)

    def test_only_creator_may_unlink(self, shared):
        attached = SharedFleet.attach(shared.descriptor)
        try:
            with pytest.raises(SimulationError, match="only the creator"):
                attached.unlink()
        finally:
            attached.close()
        assert os.path.exists(_segment_path(shared.descriptor))

    def test_unlink_is_idempotent(self):
        shared = publish(_fleet())
        shared.unlink()
        shared.unlink()
        shared.close()

    def test_close_is_idempotent(self, shared):
        attached = SharedFleet.attach(shared.descriptor)
        attached.close()
        attached.close()

    def test_unlink_descriptor_removes_segment(self):
        shared = publish(_fleet())
        descriptor = shared.descriptor
        shared.close()
        unlink_descriptor(descriptor)
        assert not os.path.exists(_segment_path(descriptor))

    def test_unlink_descriptor_tolerates_missing_segment(self):
        unlink_descriptor(
            SharedFleetDescriptor(
                name=f"{SEGMENT_PREFIX}deadbeefdeadbeef", n_devices=4
            )
        )


class TestDeadSegmentErrors:
    def test_attach_after_unlink_raises_simulation_error(self):
        shared = publish(_fleet())
        descriptor = shared.descriptor
        shared.unlink()
        shared.close()
        with pytest.raises(SimulationError, match="is gone"):
            SharedFleet.attach(descriptor)

    def test_dead_attach_error_carries_task_context(self):
        shared = publish(_fleet())
        descriptor = shared.descriptor
        shared.unlink()
        shared.close()
        with pytest.raises(
            SimulationError,
            match=r"while running deadbeef/run3/cell7",
        ) as excinfo:
            SharedFleet.attach(descriptor, context="deadbeef/run3/cell7")
        assert descriptor.name in str(excinfo.value)
        assert not isinstance(excinfo.value, FileNotFoundError)
