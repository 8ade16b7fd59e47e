"""The generate-into-segment staging API and phase-timing helpers.

Covers the cold-path plumbing: :meth:`SharedFleet.allocate` staging
segments (writable buffers, seal-as-header-write, misuse errors),
:func:`generate_fleet`'s ``out=`` destination buffers,
where the duplicate-IMSI scan runs, and the
:class:`~repro.sim.phases.PhaseTimer` observability side-channel.
"""

import numpy as np
import pytest

from repro.devices.fleet import COLUMN_SCHEMA, Fleet
from repro.devices.sharedmem import SharedFleet
from repro.errors import FleetError, SimulationError
from repro.sim.phases import PHASE_NAMES, PhaseTimer, merge_timings
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import MODERATE_EDRX_MIXTURE


def _staged(n=64, extras=("attachments",)):
    return SharedFleet.allocate(n, extras=extras)


class TestStagingSegment:
    def test_buffers_are_writable_segment_views(self):
        staged = _staged()
        try:
            buffers = staged.column_buffers()
            assert set(buffers) == {name for name, _ in COLUMN_SCHEMA}
            for name, dtype in COLUMN_SCHEMA:
                assert buffers[name].dtype == dtype
                assert buffers[name].shape == (64,)
                assert buffers[name].flags.writeable
            assert staged.extra_buffer("attachments").flags.writeable
        finally:
            staged.unlink()
            staged.close()

    def test_fleet_raises_until_sealed(self):
        staged = _staged()
        try:
            with pytest.raises(SimulationError, match="staging"):
                staged.fleet
        finally:
            staged.unlink()
            staged.close()

    def test_generate_seal_attach_round_trip(self):
        staged = _staged(n=128)
        shared = None
        attached = None
        try:
            fleet = generate_fleet(
                128,
                MODERATE_EDRX_MIXTURE,
                np.random.default_rng(5),
                out=staged.column_buffers(),
            )
            staged.extra_buffer("attachments")[:] = 3
            shared = staged.seal(fleet)
            # Sealed: the staging surface is gone, the fleet is live.
            with pytest.raises(SimulationError, match="staging"):
                shared.column_buffers()
            with pytest.raises(SimulationError, match="staging"):
                shared.seal(fleet)
            assert shared.fleet == fleet
            assert not shared.extra("attachments").flags.writeable
            reference = generate_fleet(
                128, MODERATE_EDRX_MIXTURE, np.random.default_rng(5)
            )
            assert shared.fleet == reference
            attached = SharedFleet.attach(shared.descriptor)
            assert attached.fleet == reference
        finally:
            if attached is not None:
                attached.close()
            staged.unlink()
            if shared is not None:
                shared.close()
            else:
                staged.close()

    def test_seal_rejects_heap_arrays(self):
        staged = _staged(n=16, extras=())
        try:
            heap = generate_fleet(
                16, MODERATE_EDRX_MIXTURE, np.random.default_rng(1)
            )
            with pytest.raises(SimulationError, match="inside this segment"):
                staged.seal(heap)
        finally:
            staged.unlink()
            staged.close()

    def test_seal_rejects_size_mismatch(self):
        staged = _staged(n=16, extras=())
        try:
            other = generate_fleet(
                8, MODERATE_EDRX_MIXTURE, np.random.default_rng(1)
            )
            with pytest.raises(SimulationError, match="allocated for"):
                staged.seal(other)
        finally:
            staged.unlink()
            staged.close()

    def test_allocate_rejects_empty_fleet(self):
        with pytest.raises(SimulationError):
            SharedFleet.allocate(0)


class TestGenerateOut:
    def test_out_equals_heap_generation_bit_for_bit(self):
        n = 200
        buffers = {
            name: np.empty(n, dtype=dtype) for name, dtype in COLUMN_SCHEMA
        }
        into = generate_fleet(
            n, MODERATE_EDRX_MIXTURE, np.random.default_rng(9), out=buffers
        )
        heap = generate_fleet(
            n, MODERATE_EDRX_MIXTURE, np.random.default_rng(9)
        )
        assert into == heap
        # The returned columns occupy the supplied buffers — no copy.
        assert np.shares_memory(into.imsis, buffers["imsis"])
        assert np.shares_memory(into.phases, buffers["phases"])

    def test_out_rejects_wrong_shape_dtype_and_readonly(self):
        n = 10
        good = {
            name: np.empty(n, dtype=dtype) for name, dtype in COLUMN_SCHEMA
        }
        for breakage in ("shape", "dtype", "readonly", "missing"):
            buffers = dict(good)
            if breakage == "shape":
                buffers["imsis"] = np.empty(n + 1, dtype=np.int64)
            elif breakage == "dtype":
                buffers["phases"] = np.empty(n, dtype=np.int32)
            elif breakage == "readonly":
                frozen = np.empty(n, dtype=np.int64)
                frozen.flags.writeable = False
                buffers["periods"] = frozen
            else:
                del buffers["phases"]
            with pytest.raises(FleetError, match="destination buffer"):
                generate_fleet(
                    n,
                    MODERATE_EDRX_MIXTURE,
                    np.random.default_rng(0),
                    out=buffers,
                )


class TestDuplicateImsiScan:
    def test_concatenate_rejects_duplicates(self):
        fleet = generate_fleet(
            8, MODERATE_EDRX_MIXTURE, np.random.default_rng(3)
        )
        with pytest.raises(FleetError, match="duplicate"):
            Fleet.concatenate([fleet, fleet.subset([2])])
        # The raw constructor trusts its caller, as the generator and
        # the shared-memory attach do; it must not rescan.
        columns = dict(fleet.columns())
        columns["imsis"] = np.full(8, fleet.imsis[0])
        assert len(Fleet(**columns, nb=fleet.nb)) == 8


class TestPhaseTimer:
    def test_accumulates_and_suffixes(self):
        timer = PhaseTimer()
        with timer.phase("generate"):
            pass
        timer.add("generate", 1.0)
        timer.add("publish", 0.25)
        timings = timer.timings()
        assert set(timings) == {"generate_s", "publish_s"}
        assert timings["generate_s"] >= 1.0
        assert timings["publish_s"] == 0.25

    def test_phase_records_even_on_exception(self):
        timer = PhaseTimer()
        with pytest.raises(ValueError):
            with timer.phase("execute"):
                raise ValueError("boom")
        assert "execute_s" in timer.timings()

    def test_merge_timings_sums_key_wise(self):
        merged = merge_timings(
            [
                {"attach_s": 0.5, "plan_s": 1.0},
                {"attach_s": 0.25, "execute_s": 2.0},
            ]
        )
        assert merged == {
            "attach_s": 0.75,
            "plan_s": 1.0,
            "execute_s": 2.0,
        }
        assert merge_timings([]) == {}

    def test_phase_vocabulary_is_the_cold_path(self):
        assert PHASE_NAMES == (
            "generate", "plan", "execute", "reduce", "publish", "attach",
        )

    @pytest.mark.parametrize(
        "name, phases",
        [
            ("paper-baseline", {"generate_s", "plan_s", "execute_s", "reduce_s"}),
            ("city-rollout", {"generate_s", "execute_s", "reduce_s"}),
        ],
    )
    def test_recorded_runlog_meta_carries_phase_timings(
        self, tmp_path, name, phases
    ):
        from repro.scenarios import golden_spec, run_scenario, scenario
        from repro.sim.eventlog import RunLog

        spec = golden_spec(scenario(name)).with_overrides(n_runs=1)
        run_scenario(spec, record_dir=tmp_path)
        files = sorted(tmp_path.glob("*.npz"))
        assert files
        log = RunLog.load(files[0])
        timings = log.meta["phase_timings"]
        assert phases <= set(timings)
        assert all(value >= 0.0 for value in timings.values())
