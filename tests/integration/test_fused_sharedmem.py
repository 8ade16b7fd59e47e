"""The fused zero-copy path: attach cache, constant-size IPC, streaming.

Three regressions guard the shared-memory inversion:

* the per-worker attach cache is a bounded LRU whose evictions close
  (never unlink) mappings, and repeat cells of one run hit the cache;
* every fused cell task ships a ~100-byte descriptor — pickle size
  independent of the fleet size — so the zero-copy path can never
  silently degrade back to pickling fleets;
* per-cell results stream out of the reduction ledger as they land,
  in sub-before-reduce order, without perturbing the canonical stats.
"""

import pickle

import numpy as np
import pytest

from repro.devices import Fleet, SharedFleet
from repro.multicast.coordination import MultiCellSpec, attach_devices
from repro.scenarios import run_scenario, scenario
from repro.scenarios.runner import (
    _ATTACH_CACHE,
    _ATTACH_CACHE_MAX,
    _ATTACH_STATS,
    _FusedCellPayload,
    _attached_fleet,
    _reset_attach_cache,
)
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import MODERATE_EDRX_MIXTURE


def _shared_fleet(n=24, seed=9, n_cells=4):
    rng = np.random.default_rng(seed)
    fleet = generate_fleet(n, MODERATE_EDRX_MIXTURE, rng)
    attachments = attach_devices(
        len(fleet), MultiCellSpec(n_cells=n_cells), rng
    )
    return SharedFleet.create(
        fleet.arrays,
        extras={"attachments": np.asarray(attachments, dtype=np.int64)},
    )


@pytest.fixture
def clean_cache():
    _reset_attach_cache()
    yield
    _reset_attach_cache()


class TestAttachCache:
    def test_repeat_descriptor_hits_the_cache(self, clean_cache):
        shared = _shared_fleet()
        try:
            first = _attached_fleet(shared.descriptor)
            again = _attached_fleet(shared.descriptor)
            assert again is first
            assert _ATTACH_STATS == {
                "attaches": 1,
                "hits": 1,
                "evictions": 0,
            }
        finally:
            _reset_attach_cache()
            shared.unlink()
            shared.close()

    def test_lru_evicts_and_closes_oldest(self, clean_cache):
        fleets = [
            _shared_fleet(seed=i) for i in range(_ATTACH_CACHE_MAX + 1)
        ]
        try:
            mapped = [_attached_fleet(f.descriptor) for f in fleets]
            assert len(_ATTACH_CACHE) == _ATTACH_CACHE_MAX
            assert _ATTACH_STATS["evictions"] == 1
            # The oldest mapping was closed (its views are gone) but
            # the segment itself survives for other workers.
            assert fleets[0].descriptor.name not in _ATTACH_CACHE
            assert mapped[0].arrays is None
            reattached = _attached_fleet(fleets[0].descriptor)
            assert reattached.arrays.equals(fleets[0].arrays)
        finally:
            _reset_attach_cache()
            for f in fleets:
                f.unlink()
                f.close()

    def test_recently_used_survives_eviction(self, clean_cache):
        fleets = [
            _shared_fleet(seed=10 + i)
            for i in range(_ATTACH_CACHE_MAX + 1)
        ]
        try:
            for f in fleets[:_ATTACH_CACHE_MAX]:
                _attached_fleet(f.descriptor)
            # Refresh the oldest entry, then overflow: the second-oldest
            # must be the victim instead.
            _attached_fleet(fleets[0].descriptor)
            _attached_fleet(fleets[-1].descriptor)
            assert fleets[0].descriptor.name in _ATTACH_CACHE
            assert fleets[1].descriptor.name not in _ATTACH_CACHE
        finally:
            _reset_attach_cache()
            for f in fleets:
                f.unlink()
                f.close()


class TestConstantSizeIpc:
    def test_cell_payload_pickle_is_fleet_size_independent(self):
        spec = scenario("city-rollout").with_overrides(
            cells=MultiCellSpec(n_cells=4)
        )
        sizes = {}
        for n in (16, 4096):
            shared = _shared_fleet(n=n)
            try:
                payload = _FusedCellPayload(
                    spec=spec,
                    cell_id=0,
                    descriptor=shared.descriptor,
                )
                sizes[n] = len(pickle.dumps(payload))
            finally:
                shared.unlink()
                shared.close()
        # A 256x larger fleet may cost a few bytes of varint width in
        # the descriptor's device count — never a payload that scales.
        assert abs(sizes[4096] - sizes[16]) <= 8
        assert max(sizes.values()) < 2048

    def test_cell_task_reads_through_descriptor_only(self, clean_cache):
        # The worker-side slice must reproduce the exact sub-fleet the
        # serial partition produces, through the descriptor alone.
        shared = _shared_fleet(n=40, n_cells=3)
        try:
            attachments = shared.extra("attachments")
            for cell_id in np.unique(attachments).tolist():
                mapped = _attached_fleet(shared.descriptor)
                indices = np.flatnonzero(attachments == cell_id)
                sub = Fleet.from_arrays(mapped.arrays.take(indices))
                assert len(sub) == int((attachments == cell_id).sum())
            assert _ATTACH_STATS["attaches"] == 1
        finally:
            _reset_attach_cache()
            shared.unlink()
            shared.close()


class TestStreamedPartials:
    def test_partials_stream_cells_then_reduce(self):
        spec = scenario("city-rollout").with_overrides(
            n_devices=60, n_runs=2, cells=MultiCellSpec(n_cells=3)
        )
        partials = []
        baseline = run_scenario(spec, n_runs=2)
        stats = run_scenario(
            spec,
            backend="fused",
            workers=1,
            n_runs=2,
            on_partial=partials.append,
        )
        for metric in baseline:
            np.testing.assert_array_equal(
                baseline[metric].values, stats[metric].values
            )
        subs = [p for p in partials if p.kind == "sub"]
        reduces = [p for p in partials if p.kind == "reduce"]
        assert len(subs) == 2 * 3 and len(reduces) == 2
        for run_index in (0, 1):
            run_subs = [p for p in subs if p.top_index == run_index]
            assert sorted(p.position for p in run_subs) == [0, 1, 2]
            assert all(
                p.value.fleet_size > 0 and p.value.worker_rss_kb >= 0
                for p in run_subs
            )
            # Every cell of a run streams before the run's reduction.
            reduce_at = partials.index(
                next(p for p in reduces if p.top_index == run_index)
            )
            assert all(
                partials.index(p) < reduce_at for p in run_subs
            )

    def test_partial_addresses_name_cells(self):
        spec = scenario("city-rollout").with_overrides(
            n_devices=40, n_runs=1, cells=MultiCellSpec(n_cells=2)
        )
        partials = []
        run_scenario(
            spec,
            backend="fused",
            n_runs=1,
            workers=1,
            on_partial=partials.append,
        )
        labels = [
            str(p.address) for p in partials if p.kind == "sub"
        ]
        assert all("/run0/cell" in label for label in labels)
