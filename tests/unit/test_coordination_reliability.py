"""Unit tests for multi-cell coordination and the reliability model."""

import gc
import os
import subprocess
import sys

import numpy as np
import pytest

from fleet_oracle import partition_fleet_reference, partition_indices_reference
from repair_oracle import matrix_repair_rounds
from repro.errors import ConfigurationError, FleetError
from repro.multicast.coordination import (
    MultiCellSpec,
    attach_devices,
    partition_fleet,
    partition_indices,
)
from repro.multicast import reliability
from repro.multicast.payload import FirmwareImage
from repro.multicast.reliability import (
    ReliabilityConfig,
    RepairOutcome,
    expected_rounds,
    simulate_repair_rounds,
)
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import MODERATE_EDRX_MIXTURE


def _repair_in_worker(image, n_devices, config):
    """Pool-worker side: the repair outcome and the thread count used."""
    threads = reliability._layout(
        n_devices, image.segment_count(config.segment_bytes)
    )[0]
    rng = np.random.default_rng(2018)
    return simulate_repair_rounds(image, n_devices, config, rng), threads


class TestPartition:
    def test_partition_preserves_devices(self, rng):
        fleet = generate_fleet(40, MODERATE_EDRX_MIXTURE, rng)
        cells = partition_fleet(fleet, 4, rng)
        assert sum(len(f) for f in cells.values()) == 40
        imsis = {
            d.identity.imsi for f in cells.values() for d in f
        }
        assert len(imsis) == 40

    def test_single_cell_partition(self, rng):
        fleet = generate_fleet(10, MODERATE_EDRX_MIXTURE, rng)
        cells = partition_fleet(fleet, 1, rng)
        assert list(cells) == [0]
        assert len(cells[0]) == 10

    def test_invalid_cells(self, rng):
        fleet = generate_fleet(10, MODERATE_EDRX_MIXTURE, rng)
        with pytest.raises(ConfigurationError):
            partition_fleet(fleet, 0, rng)

    def test_vectorised_matches_reference_indices(self, rng):
        attachments = attach_devices(500, MultiCellSpec(n_cells=9), rng)
        reference = partition_indices_reference(attachments, 9)
        fast = partition_indices(attachments, 9)
        assert set(reference) == set(fast)
        for cell_id in reference:
            np.testing.assert_array_equal(reference[cell_id], fast[cell_id])

    def test_vectorised_matches_reference_fleets(self, rng):
        fleet = generate_fleet(60, MODERATE_EDRX_MIXTURE, rng)
        reference = partition_fleet_reference(
            fleet, 5, np.random.default_rng(3)
        )
        fast = partition_fleet(fleet, 5, np.random.default_rng(3))
        assert set(reference) == set(fast)
        for cell_id in reference:
            assert reference[cell_id] == fast[cell_id]

    def test_weighted_attachment_skews_load(self, rng):
        fleet = generate_fleet(400, MODERATE_EDRX_MIXTURE, rng)
        cells = partition_fleet(
            fleet, 2, rng, weights=(0.9, 0.1)
        )
        assert sum(len(f) for f in cells.values()) == 400
        assert len(cells[0]) > 3 * len(cells[1])

    def test_weight_validation(self):
        with pytest.raises(ConfigurationError):
            MultiCellSpec(n_cells=2, weights=(0.9, 0.2))  # sums to 1.1
        with pytest.raises(ConfigurationError):
            MultiCellSpec(n_cells=3, weights=(0.5, 0.5))  # wrong length
        with pytest.raises(ConfigurationError):
            MultiCellSpec(n_cells=0)
        assert not MultiCellSpec().is_multi_cell
        assert MultiCellSpec(n_cells=2).is_multi_cell

    def test_subset_preserves_columnar_views(self, rng):
        fleet = generate_fleet(50, MODERATE_EDRX_MIXTURE, rng)
        indices = [4, 7, 23, 41]
        sub = fleet.subset(indices)
        rebuilt = type(fleet).from_devices([fleet[i] for i in indices])
        for name, column in sub.columns():
            np.testing.assert_array_equal(column, getattr(rebuilt, name))

    def test_subset_rejects_empty_and_duplicates(self, rng):
        fleet = generate_fleet(10, MODERATE_EDRX_MIXTURE, rng)
        with pytest.raises(FleetError):
            fleet.subset([])
        with pytest.raises(FleetError):
            fleet.subset([1, 1])


class TestReliability:
    def test_lossless_needs_one_round(self, rng):
        image = FirmwareImage(name="fw", version="1", size_bytes=10_000)
        config = ReliabilityConfig(segment_loss_probability=0.0)
        outcome = simulate_repair_rounds(image, 50, config, rng)
        assert outcome.rounds == 1
        assert outcome.devices_complete == 50
        assert outcome.residual_missing == 0
        assert outcome.airtime_overhead_fraction == pytest.approx(0.0)

    @pytest.mark.parametrize("n_devices", [1, 50, 2_000])
    def test_lossless_outcome_without_drawing(self, n_devices):
        """Zero loss returns the one-round outcome field for field, and
        leaves the generator exactly where it was."""
        image = FirmwareImage(name="fw", version="1", size_bytes=1_000_000)
        config = ReliabilityConfig(segment_loss_probability=0.0)
        n_segments = image.segment_count(config.segment_bytes)
        rng = np.random.default_rng(2018)
        before = rng.bit_generator.state
        outcome = simulate_repair_rounds(image, n_devices, config, rng)
        assert rng.bit_generator.state == before
        assert outcome == RepairOutcome(
            rounds=1,
            segments_sent=n_segments,
            devices_complete=n_devices,
            residual_missing=0,
            base_segments=n_segments,
            segments_per_round=(n_segments,),
            missing_per_round=(0,),
        )

    def test_lossy_needs_repairs_but_converges(self, rng):
        image = FirmwareImage(name="fw", version="1", size_bytes=50_000)
        config = ReliabilityConfig(segment_loss_probability=0.05)
        outcome = simulate_repair_rounds(image, 100, config, rng)
        assert outcome.rounds > 1
        assert outcome.devices_complete == 100
        assert outcome.residual_missing == 0

    def test_repair_overhead_independent_of_fleet_size(self, rng):
        """The headline property: multicast repair overhead is a small
        multiple of the payload bounded by the round count — NOT a
        resend per lossy device (which would be ~200x here)."""
        image = FirmwareImage(name="fw", version="1", size_bytes=100_000)
        config = ReliabilityConfig(segment_loss_probability=0.02)
        outcome = simulate_repair_rounds(image, 200, config, rng)
        assert outcome.airtime_overhead_fraction < outcome.rounds
        assert outcome.airtime_overhead_fraction < 3.0

    def test_base_segments_survives_replace_and_pickle(self, rng):
        # base_segments used to be smuggled past the frozen dataclass
        # with object.__setattr__, so dataclasses.replace and pickling
        # (round-tripped by the fused pool) silently reset it.
        import dataclasses
        import pickle

        image = FirmwareImage(name="fw", version="1", size_bytes=10_000)
        config = ReliabilityConfig(segment_loss_probability=0.05)
        outcome = simulate_repair_rounds(image, 20, config, rng)
        assert outcome.base_segments == image.segment_count(config.segment_bytes)

        replaced = dataclasses.replace(outcome, rounds=outcome.rounds + 1)
        assert replaced.base_segments == outcome.base_segments

        unpickled = pickle.loads(pickle.dumps(outcome))
        assert unpickled == outcome
        assert unpickled.airtime_overhead_fraction == pytest.approx(
            outcome.airtime_overhead_fraction
        )

    def test_overhead_grows_sublinearly_with_devices(self):
        image = FirmwareImage(name="fw", version="1", size_bytes=100_000)
        config = ReliabilityConfig(segment_loss_probability=0.02)
        small = simulate_repair_rounds(
            image, 10, config, np.random.default_rng(1)
        )
        large = simulate_repair_rounds(
            image, 400, config, np.random.default_rng(1)
        )
        # 40x the devices costs far less than 40x the airtime.
        assert (
            large.segments_sent < 4 * small.segments_sent
        ), "union-NACK repair must not scale with fleet size"

    def test_rounds_track_analytic_estimate(self, rng):
        image = FirmwareImage(name="fw", version="1", size_bytes=100_000)
        loss = 0.05
        config = ReliabilityConfig(segment_loss_probability=loss)
        n_segments = image.segment_count(config.segment_bytes)
        predicted = expected_rounds(100, n_segments, loss)
        outcomes = [
            simulate_repair_rounds(image, 100, config, np.random.default_rng(s))
            for s in range(3)
        ]
        mean_rounds = np.mean([o.rounds for o in outcomes])
        assert 0.5 <= mean_rounds / predicted <= 2.0

    def test_max_rounds_cap(self, rng):
        image = FirmwareImage(name="fw", version="1", size_bytes=100_000)
        config = ReliabilityConfig(
            segment_loss_probability=0.6, max_rounds=2
        )
        outcome = simulate_repair_rounds(image, 50, config, rng)
        assert outcome.rounds == 2
        assert outcome.residual_missing > 0

    @pytest.mark.parametrize(
        "bit_generator", [np.random.MT19937, np.random.SFC64, np.random.Philox]
    )
    def test_generator_without_single_draw_advance_rejected(
        self, bit_generator
    ):
        image = FirmwareImage(name="fw", version="1", size_bytes=10_000)
        rng = np.random.Generator(bit_generator(7))
        with pytest.raises(ConfigurationError, match=bit_generator.__name__):
            simulate_repair_rounds(image, 20, ReliabilityConfig(), rng)

    @pytest.mark.parametrize("n_devices", [20_000, 100_000])
    def test_traced_peak_independent_of_fleet_size(self, n_devices):
        """No n x S matrix: one call at S = 2048 stays under 8 MiB."""
        import tracemalloc

        config = ReliabilityConfig(segment_loss_probability=0.01)
        image = FirmwareImage(
            name="fw", version="1", size_bytes=2048 * config.segment_bytes
        )
        rng = np.random.default_rng(2018)
        tracemalloc.start()
        try:
            outcome = simulate_repair_rounds(image, n_devices, config, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.devices_complete == n_devices
        assert peak <= 8 * 2**20

    def test_one_thread_inside_a_pool_worker(self, monkeypatch):
        """The fused pool already owns the cores: chunks run inline."""
        monkeypatch.setattr(reliability, "available_cores", lambda: 8)
        assert reliability._thread_count(8) == 8
        monkeypatch.setattr(
            reliability.multiprocessing, "parent_process", lambda: object()
        )
        assert reliability._thread_count(8) == 1

    def test_threads_capped_by_cores_and_chunks(self, monkeypatch):
        monkeypatch.setattr(
            reliability.multiprocessing, "parent_process", lambda: None
        )
        monkeypatch.setattr(reliability, "available_cores", lambda: 4)
        assert reliability._thread_count(1) == 1
        assert reliability._thread_count(3) == 3
        assert reliability._thread_count(50) == 4
        # Each of the 4 threads holds a quarter of the chunk pairs.
        threads, row_starts = reliability._layout(10_000, 2048)
        assert threads == 4
        assert row_starts.step * 2048 <= reliability._CHUNK_PAIRS // 4

    def test_pool_worker_runs_inline_and_agrees(self, monkeypatch):
        """A pool worker's inline call equals this process's threaded one."""
        from concurrent.futures import ProcessPoolExecutor

        monkeypatch.setattr(reliability, "available_cores", lambda: 2)
        image = FirmwareImage(name="fw", version="1", size_bytes=2048 * 512)
        config = ReliabilityConfig(
            segment_bytes=512, segment_loss_probability=0.15
        )
        assert reliability._layout(300, 2048)[0] == 2
        threaded = simulate_repair_rounds(
            image, 300, config, np.random.default_rng(2018)
        )
        with ProcessPoolExecutor(max_workers=1) as pool:
            inline, threads = pool.submit(
                _repair_in_worker, image, 300, config
            ).result()
        assert threads == 1
        assert inline == threaded

    def test_lossless_link_starts_no_thread(self, monkeypatch):
        def no_threads(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(reliability, "ThreadPoolExecutor", no_threads)
        image = FirmwareImage(name="fw", version="1", size_bytes=2048 * 512)
        config = ReliabilityConfig(
            segment_bytes=512, segment_loss_probability=0.0
        )
        outcome = simulate_repair_rounds(
            image, 10_000, config, np.random.default_rng(1)
        )
        assert outcome.rounds == 1 and outcome.devices_complete == 10_000

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            ReliabilityConfig(segment_loss_probability=1.0)
        with pytest.raises(ConfigurationError):
            ReliabilityConfig(max_rounds=0)
        image = FirmwareImage(name="fw", version="1", size_bytes=100)
        with pytest.raises(ConfigurationError):
            simulate_repair_rounds(image, 0, ReliabilityConfig(), rng)
        with pytest.raises(ConfigurationError):
            expected_rounds(10, 10, 1.5)


class TestRepairKernel:
    """Kernel rounds: pooled pairs drawn in batches by jump-ahead."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "kind",
        [np.random.PCG64, np.random.PCG64DXSM],
        ids=["PCG64", "PCG64DXSM"],
    )
    def test_device_split_over_batches_counts_once(
        self, monkeypatch, threads, kind
    ):
        """``max_rounds`` stops inside the kernel rounds with 4-pair
        batches, so a device's pairs left at the cap often fall in two
        batches; it is still one incomplete device, as in the oracle."""
        monkeypatch.setattr(reliability, "_BATCH", 4)
        monkeypatch.setattr(reliability, "_CHUNK_PAIRS", 1024)
        monkeypatch.setattr(
            reliability, "_thread_count", lambda n_chunks: threads
        )
        loss = 0.5
        config = ReliabilityConfig(
            segment_bytes=512,
            segment_loss_probability=loss,
            max_rounds=reliability._dense_rounds(
                ReliabilityConfig(segment_loss_probability=loss)
            )
            + 2,
        )
        image = FirmwareImage(name="fw", version="1", size_bytes=16 * 512)
        oracle_rng = np.random.Generator(kind(2018))
        rng = np.random.Generator(kind(2018))
        expected = matrix_repair_rounds(image, 4000, config, oracle_rng)
        outcome = simulate_repair_rounds(image, 4000, config, rng)
        # Capped, with some incomplete device lacking two or more pairs.
        assert expected.rounds == config.max_rounds
        assert expected.residual_missing > 4000 - expected.devices_complete
        assert outcome == expected
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_round_three_draws_whole_batches(self, monkeypatch, threads):
        """On 2,400 devices x 1,024 segments at 15 % loss, round 3 (the
        first kernel round) fills whole batches of the default size on
        every thread; ``test_prop_repair`` checks this fleet against the
        oracle."""
        monkeypatch.setattr(
            reliability, "_thread_count", lambda n_chunks: threads
        )
        sizes = []
        draw = reliability._Pools._draw

        def spy(pools, round_, batch):
            sizes.append((round_, batch.size))
            draw(pools, round_, batch)

        monkeypatch.setattr(reliability._Pools, "_draw", spy)
        config = ReliabilityConfig(
            segment_bytes=512, segment_loss_probability=0.15
        )
        image = FirmwareImage(name="fw", version="1", size_bytes=1024 * 512)
        assert reliability._dense_rounds(config) == 2
        simulate_repair_rounds(image, 2400, config, np.random.default_rng(2018))
        batch = reliability._batch_size(threads)
        assert max(size for _, size in sizes) == batch
        full = [r for r, size in sizes if size == batch]
        assert full.count(3) >= threads

    def test_batch_shrinks_as_threads_grow(self):
        """The threads share one kernel scratch budget: 2^14-pair
        batches on one or two threads, 2^12 on eight, so the scratch
        rows of all threads together stay at 2 MiB."""
        assert reliability._batch_size(1) == reliability._BATCH == 2**14
        assert reliability._batch_size(2) == 2**14
        assert reliability._batch_size(8) == 2**12
        for threads in (2, 3, 8, 16, 64):
            words = threads * reliability._SCRATCH_ROWS
            words *= reliability._batch_size(threads)
            assert words * 8 <= 2 * 2**20

    @pytest.mark.parametrize("threads", [8, 16])
    def test_traced_peak_independent_of_thread_count(
        self, monkeypatch, threads
    ):
        """A host with many cores runs as many threads, each with its
        own chunk buffer, kernel scratch and pools: still under 8 MiB
        at 15 % loss, where the kernel rounds hold the most pairs."""
        import tracemalloc

        monkeypatch.setattr(
            reliability, "_thread_count", lambda n_chunks: threads
        )
        config = ReliabilityConfig(segment_loss_probability=0.15)
        image = FirmwareImage(
            name="fw", version="1", size_bytes=2048 * config.segment_bytes
        )
        rng = np.random.default_rng(2018)
        tracemalloc.start()
        try:
            simulate_repair_rounds(image, 10_000, config, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_kernel_leaves_no_cyclic_garbage(self, monkeypatch):
        """Garbage cycles would hold kernel memory until a GC pass."""
        monkeypatch.setattr(reliability, "_thread_count", lambda n_chunks: 1)
        config = ReliabilityConfig(segment_loss_probability=0.01)
        image = FirmwareImage(name="fw", version="1", size_bytes=200 * 512)
        offsets = np.arange(0, reliability._SPAN, 4099, dtype=np.int64)
        gc.collect()
        gc.disable()
        try:
            for kind in (np.random.PCG64, np.random.PCG64DXSM):
                jumps = reliability._Jumps(kind, 12345)
                scratch = reliability._scratch(
                    np.empty(reliability._SCRATCH_ROWS * reliability._BATCH),
                    reliability._BATCH,
                )
                for state in (1, 2**127 + 3):
                    reliability._doubles(jumps, state, offsets, scratch)
                rng = np.random.Generator(kind(7))
                simulate_repair_rounds(image, 300, config, rng)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_tables_built_on_first_lossy_call_not_at_import(self):
        src = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(reliability.__file__)
        )))
        code = (
            "import numpy as np\n"
            "import repro.scenarios\n"
            "from repro.multicast import reliability as r\n"
            "from repro.multicast.payload import FirmwareImage\n"
            "image = FirmwareImage(name='fw', version='1', size_bytes=10**4)\n"
            "assert not r._TABLES, 'built at import'\n"
            "for loss in (0.0, 0.01):\n"
            "    r.simulate_repair_rounds(image, 50,\n"
            "        r.ReliabilityConfig(segment_loss_probability=loss),\n"
            "        np.random.default_rng(1))\n"
            "    print(sorted(k.__name__ for k in r._TABLES))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split("\n")[:2] == ["[]", "['PCG64']"]
