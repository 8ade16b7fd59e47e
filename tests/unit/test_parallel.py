"""Unit tests for the Monte-Carlo backends, fingerprints and the result cache."""

from functools import partial

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.sim.cache import ResultCache, fingerprint
from repro.sim.dispatch import execute_items, run_items
from repro.sim.montecarlo import MonteCarlo, run_monte_carlo


def draw_run(rng, run_index):
    """Module-level (hence picklable) run fn: one uniform draw per run."""
    return {"draw": float(rng.random()), "index": float(run_index)}


def scaled_draw_run(rng, run_index, scale):
    return {"draw": scale * float(rng.random())}


def failing_run(rng, run_index):
    raise AssertionError("must not execute on a cache hit")


class TestFusedBackendEquivalence:
    def test_identical_to_serial_for_any_worker_count(self):
        serial = MonteCarlo(n_runs=12, seed=99).run(draw_run)
        for workers in (1, 2, 5):
            fused = MonteCarlo(
                n_runs=12, seed=99, backend="fused", workers=workers
            ).run(draw_run)
            np.testing.assert_array_equal(
                serial["draw"].values, fused["draw"].values
            )
            np.testing.assert_array_equal(
                fused["index"].values, np.arange(12, dtype=np.float64)
            )

    def test_run_monte_carlo_front(self):
        a = run_monte_carlo(draw_run, n_runs=6, seed=3, backend="serial")
        b = run_monte_carlo(
            draw_run, n_runs=6, seed=3, backend="fused", workers=2
        )
        np.testing.assert_array_equal(a["draw"].values, b["draw"].values)

    def test_partial_run_fn_is_supported(self):
        fn = partial(scaled_draw_run, scale=10.0)
        a = run_monte_carlo(fn, n_runs=4, seed=1, backend="serial")
        b = run_monte_carlo(fn, n_runs=4, seed=1, backend="fused", workers=2)
        np.testing.assert_array_equal(a["draw"].values, b["draw"].values)
        assert a["draw"].min >= 0.0 and a["draw"].max <= 10.0

    def test_results_arrive_in_run_index_order(self):
        out = execute_items(run_items(draw_run, seed=0, n_runs=9), workers=3)
        assert [m["index"] for m in out] == [float(i) for i in range(9)]

    def test_unpicklable_fn_rejected(self):
        with pytest.raises(ConfigurationError, match="picklable"):
            run_monte_carlo(
                lambda rng, i: {"x": 1.0},
                n_runs=2,
                seed=1,
                backend="fused",
                workers=2,
            )

    def test_serial_backend_runs_closures_in_process(self):
        calls = []

        def closure(rng, run_index):
            calls.append(run_index)
            return {"x": float(run_index)}

        stats = MonteCarlo(n_runs=3, seed=1).run(closure)
        assert calls == [0, 1, 2]
        assert stats["x"].values.tolist() == [0.0, 1.0, 2.0]

    def test_serial_backend_fails_fast_on_bad_metrics(self):
        """An inconsistent run fn must stop the serial campaign at the
        offending run, not after all n_runs have executed."""
        calls = []

        def bad(rng, run_index):
            calls.append(run_index)
            return {"a": 1.0} if run_index == 0 else {"b": 1.0}

        with pytest.raises(ConfigurationError):
            MonteCarlo(n_runs=50, seed=1).run(bad)
        assert calls == [0, 1]

    def test_invalid_backend_and_workers(self):
        with pytest.raises(ConfigurationError):
            MonteCarlo(n_runs=2, seed=1, backend="threads")
        with pytest.raises(ConfigurationError):
            MonteCarlo(n_runs=2, seed=1, workers=0)
        with pytest.raises(ConfigurationError):
            execute_items(run_items(draw_run, seed=1, n_runs=2), workers=0)


class TestFingerprint:
    def test_stable_across_calls(self):
        assert fingerprint(ExperimentConfig()) == fingerprint(
            ExperimentConfig()
        )

    def test_sensitive_to_scenario_changes(self):
        base = ExperimentConfig()
        changed = ExperimentConfig(n_devices=base.n_devices + 1)
        assert base.fingerprint() != changed.fingerprint()

    def test_execution_knobs_excluded(self):
        serial = ExperimentConfig()
        fused = ExperimentConfig(backend="fused", workers=8)
        assert serial.fingerprint() == fused.fingerprint()

    def test_sensitive_to_mixture_internals(self):
        """Recalibrating a mixture must invalidate the cache even when
        its name and category count are unchanged (lossy-repr guard)."""
        from repro.devices.profiles import DeviceCategory
        from repro.drx.cycles import DrxCycle
        from repro.traffic.mixtures import CategoryProfile, TrafficMixture

        def mixture(weight):
            return TrafficMixture(
                "paper-default",  # same name as the real one
                {
                    DeviceCategory.SMART_METER: CategoryProfile(
                        weight=weight,
                        cycle_distribution={DrxCycle(8192): 1.0},
                    ),
                    DeviceCategory.ASSET_TRACKER: CategoryProfile(
                        weight=1.0,
                        cycle_distribution={DrxCycle(2048): 1.0},
                    ),
                },
            )

        a = ExperimentConfig(mixture=mixture(1.0))
        b = ExperimentConfig(mixture=mixture(2.0))
        assert a.fingerprint() != b.fingerprint()


class TestResultCache:
    def test_store_load_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = ResultCache.key("fig7/100", "abc", 2018, 100)
        values = {"transmissions": [1.0, 2.5, 3.0]}
        cache.store(key, values, meta={"tag": "fig7/100"})
        loaded = cache.load(key)
        np.testing.assert_array_equal(
            loaded["transmissions"], np.array([1.0, 2.5, 3.0])
        )

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).load("deadbeef") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        key = ResultCache.key("t", "f", 1, 1)
        path = tmp_path / f"{key}.json"
        path.write_text("{not json")
        assert ResultCache(tmp_path).load(key) is None

    def test_non_utf8_entry_is_a_miss(self, tmp_path):
        key = ResultCache.key("t", "f", 1, 1)
        (tmp_path / f"{key}.json").write_bytes(b"\xff\xfe\x00garbage")
        assert ResultCache(tmp_path).load(key) is None

    @pytest.mark.parametrize(
        "payload",
        [
            '{"metrics": {"x": ["abc"]}}',
            '{"metrics": {"x": {"a": 1}}}',
            '{"metrics": [1, 2]}',
        ],
    )
    def test_structurally_corrupt_entry_is_a_miss(self, tmp_path, payload):
        key = ResultCache.key("t", "f", 1, 1)
        (tmp_path / f"{key}.json").write_text(payload)
        assert ResultCache(tmp_path).load(key) is None

    def test_hit_skips_execution(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = MonteCarlo(n_runs=5, seed=7, cache=cache).run(
            draw_run, cache_tag="t", config_fingerprint="f"
        )
        # Same key: the (failing) run fn must never be called.
        second = MonteCarlo(n_runs=5, seed=7, cache=cache).run(
            failing_run, cache_tag="t", config_fingerprint="f"
        )
        np.testing.assert_array_equal(
            first["draw"].values, second["draw"].values
        )

    def test_hit_is_backend_independent(self, tmp_path):
        cache = ResultCache(tmp_path)
        MonteCarlo(n_runs=5, seed=7, cache=cache).run(
            draw_run, cache_tag="t", config_fingerprint="f"
        )
        cached = MonteCarlo(
            n_runs=5, seed=7, backend="fused", workers=2, cache=cache
        ).run(failing_run, cache_tag="t", config_fingerprint="f")
        assert cached["draw"].n == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": 8},
            {"n_runs": 6},
        ],
    )
    def test_seed_or_runs_change_invalidates(self, tmp_path, kwargs):
        cache = ResultCache(tmp_path)
        MonteCarlo(n_runs=5, seed=7, cache=cache).run(
            draw_run, cache_tag="t", config_fingerprint="f"
        )
        harness = MonteCarlo(**{"n_runs": 5, "seed": 7, **kwargs}, cache=cache)
        with pytest.raises(AssertionError, match="cache hit"):
            harness.run(failing_run, cache_tag="t", config_fingerprint="f")

    def test_fingerprint_change_invalidates(self, tmp_path):
        a = ResultCache.key("t", "fp1", 1, 2)
        b = ResultCache.key("t", "fp2", 1, 2)
        assert a != b

    def test_key_is_the_deterministic_address_only(self, tmp_path):
        # The key is (tag, fingerprint, seed, n_runs) — the coordinates
        # that fix results bit-for-bit. Execution details like the code
        # version are not part of it, so entries survive version bumps
        # and are shared across backends.
        with pytest.raises(TypeError):
            ResultCache.key("t", "fp1", 1, 2, version="9.9.9")

    def test_store_stamps_writer_version_in_meta(self, tmp_path):
        import json

        from repro._version import __version__

        cache = ResultCache(tmp_path)
        key = ResultCache.key("t", "f", 1, 1)
        path = cache.store(key, {"x": [1.0]}, meta={"tag": "t"})
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["meta"]["version"] == __version__
        assert payload["meta"]["tag"] == "t"

    def test_no_tag_means_no_caching(self, tmp_path):
        cache = ResultCache(tmp_path)
        MonteCarlo(n_runs=3, seed=1, cache=cache).run(draw_run)
        assert list(tmp_path.iterdir()) == []
