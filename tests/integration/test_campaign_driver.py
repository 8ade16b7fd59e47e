"""One campaign driver: run functions, scenarios, sweeps and the golden
check share one cache -> task graph -> aggregate path.

* campaigns of different kinds drain as one graph, each aggregated (and
  its metric keys checked) on its own, with results equal to running
  each campaign alone;
* one rule for recording with a cache: a recording campaign neither
  loads nor stores, on ``run_scenario`` and on a sweep's recording
  cells alike;
* the golden check drains every golden spec in one graph.
"""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    SweepAxis,
    compute_golden_metrics,
    golden_spec,
    headline_means,
    run_scenario,
    run_sweep,
    scenario,
)
from repro.scenarios.runner import scenario_campaign
from repro.sim import montecarlo
from repro.sim.cache import ResultCache
from repro.sim.montecarlo import Campaign, run_campaigns

from metric_items import metric_items, run_fn


def draw_run(rng, run_index):
    return {"draw": float(rng.random())}


def pair_run(rng, run_index):
    return {"x": float(run_index), "y": float(rng.random())}


def _values(stats):
    return {name: s.values.tolist() for name, s in stats.items()}


class TestOneGraph:
    @pytest.mark.parametrize(
        "backend,workers", [("serial", None), ("fused", 2)]
    )
    def test_mixed_campaigns_match_running_each_alone(self, backend, workers):
        single = golden_spec(scenario("paper-baseline"))
        multi = golden_spec(scenario("city-rollout"))
        results = run_campaigns(
            [
                Campaign(metric_items(draw_run, 3, 4)),
                scenario_campaign(single),
                scenario_campaign(multi),
                Campaign(metric_items(pair_run, 9, 2)),
            ],
            backend,
            workers=workers,
        )
        assert _values(results[0]) == _values(
            run_fn(draw_run, n_runs=4, seed=3)
        )
        assert _values(results[1]) == _values(run_scenario(single))
        assert _values(results[2]) == _values(run_scenario(multi))
        assert _values(results[3]) == _values(
            run_fn(pair_run, n_runs=2, seed=9)
        )
        # Multi-cell runs carry n_cells, single-cell runs do not: the
        # key check is per campaign.
        assert "n_cells" in results[2] and "n_cells" not in results[1]

    def test_key_check_fails_the_offending_campaign_at_its_run(self):
        calls = []

        def bad(rng, run_index):
            calls.append(run_index)
            return {"a": 1.0} if run_index == 0 else {"b": 1.0}

        with pytest.raises(ConfigurationError, match="run 1 returned keys"):
            run_campaigns(
                [
                    Campaign(metric_items(draw_run, 1, 2)),
                    Campaign(metric_items(bad, 1, 50)),
                ]
            )
        assert calls == [0, 1]

    def test_cached_campaigns_are_answered_without_draining(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        campaign = Campaign(
            metric_items(draw_run, 5, 3), tag="t", fingerprint="f"
        )
        (written,) = run_campaigns([campaign], cache=cache)
        drained = []
        real = montecarlo.drain

        def counting(items, *args, **kwargs):
            drained.append(len(items))
            return real(items, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "drain", counting)
        hit, _ = run_campaigns(
            [campaign, Campaign(metric_items(draw_run, 6, 2))], cache=cache
        )
        assert _values(hit) == _values(written)
        assert drained == [2]


class TestRecordingBypassesTheCache:
    def test_recording_scenario_writes_logs_and_no_entry(self, tmp_path):
        spec = golden_spec(scenario("paper-baseline"))
        cache_dir, logs = tmp_path / "cache", tmp_path / "logs"
        cache = ResultCache(cache_dir)
        recorded = run_scenario(spec, cache=cache, record_dir=logs)
        assert len(list(logs.glob("*.npz"))) == spec.n_runs
        assert not cache_dir.exists() or not list(cache_dir.iterdir())
        assert _values(recorded) == _values(run_scenario(spec))

    def test_a_warm_entry_does_not_answer_a_recording_run(self, tmp_path):
        spec = golden_spec(scenario("paper-baseline"))
        cache = ResultCache(tmp_path / "cache")
        run_scenario(spec, cache=cache)
        entries = sorted((tmp_path / "cache").iterdir())
        run_scenario(spec, cache=cache, record_dir=tmp_path / "logs")
        assert len(list((tmp_path / "logs").glob("*.npz"))) == spec.n_runs
        assert sorted((tmp_path / "cache").iterdir()) == entries

    def test_sweep_recording_cells_write_logs_and_no_entry(self, tmp_path):
        spec = golden_spec(scenario("paper-baseline"))
        cache_dir, logs = tmp_path / "cache", tmp_path / "logs"
        cache = ResultCache(cache_dir)
        axes = [SweepAxis("record", (False, True))]
        run_sweep([spec], axes, cache=cache, record_dir=str(logs))
        # Only the non-recording cell is stored.
        assert len(list(cache_dir.iterdir())) == 1
        for path in logs.glob("*.npz"):
            path.unlink()
        # Warm: the plain cell is a hit, the recording cell still runs.
        results = run_sweep([spec], axes, cache=cache, record_dir=str(logs))
        assert len(list(logs.glob("*.npz"))) == spec.n_runs
        assert len(list(cache_dir.iterdir())) == 1
        (_, plain), (_, recorded) = results
        assert _values(plain) == _values(recorded)


class TestGoldenCheckIsOneGraph:
    def test_every_golden_spec_drains_once(self, monkeypatch):
        names = ["paper-baseline", "city-rollout", "lossy-link-repair"]
        drained = []
        real = montecarlo.drain

        def counting(items, *args, **kwargs):
            drained.append(len(items))
            return real(items, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "drain", counting)
        batched = compute_golden_metrics(names)
        specs = [golden_spec(scenario(name)) for name in names]
        assert drained == [sum(spec.n_runs for spec in specs)]
        monkeypatch.setattr(montecarlo, "drain", real)
        for name, spec in zip(names, specs):
            assert batched[name] == headline_means(run_scenario(spec))


class TestEachFigureIsOneGraph:
    """A figure's points drain as one graph: one pool per figure on
    ``--backend fused``, not one per point."""

    @pytest.mark.parametrize(
        "target, n_points",
        [("7", 3), ("a2", 3), ("a4", 4), ("6b", 3)],
    )
    def test_every_point_drains_once(self, monkeypatch, target, n_points):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run

        config = ExperimentConfig(
            n_runs=2, n_devices=30, device_counts=(20, 30, 40)
        )
        drained = []
        real = montecarlo.drain

        def counting(items, *args, **kwargs):
            drained.append(len(items))
            return real(items, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "drain", counting)
        batched = run([target], config)
        assert drained == [n_points * config.n_runs]
        monkeypatch.setattr(montecarlo, "drain", real)
        fused = run(
            [target], dataclasses.replace(config, backend="fused", workers=2)
        )
        assert batched[target] == fused[target]
