"""One execution path: serial drains the fused task graph in-process.

What the single path allows, and the guarantees it must keep:

* recording is a task output, so ``record_dir`` writes event-identical
  logs on both backends;
* ``on_partial`` streams on serial, exactly the sequence fused streams
  at one worker;
* ``"process"`` is no longer a backend anywhere;
* a multi-cell run whose cell task raises leaves no shared-memory
  segment behind, on either drain, while the process is still alive.
"""

import dataclasses
import os
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.experiments.config import ExperimentConfig
from repro.scenarios import (
    SweepAxis,
    compute_golden_metrics,
    golden_spec,
    run_scenario,
    run_sweep,
    scenario,
)
from repro.scenarios import runner
from repro.scenarios.runner import CellSummary
from repro.sim.dispatch import drain
from repro.sim.eventlog import RunLog, diff_runlogs

from metric_items import metric_items, run_fn

SHM = Path("/dev/shm")


def draw_run(rng, run_index):
    return {"draw": float(rng.random())}


class TestRecordingOnBothBackends:
    @pytest.mark.parametrize("name", ["paper-baseline", "city-rollout"])
    def test_fused_logs_event_identical_to_serial(self, tmp_path, name):
        spec = golden_spec(scenario(name))
        serial = run_scenario(spec, record_dir=tmp_path / "serial")
        fused = run_scenario(
            spec, backend="fused", workers=2, record_dir=tmp_path / "fused"
        )
        for metric, stats in serial.items():
            assert stats.values.tolist() == fused[metric].values.tolist()
        serial_logs = sorted((tmp_path / "serial").glob("*.npz"))
        fused_logs = sorted((tmp_path / "fused").glob("*.npz"))
        assert len(serial_logs) == spec.n_runs
        assert [p.name for p in serial_logs] == [p.name for p in fused_logs]
        for a, b in zip(serial_logs, fused_logs):
            diff = diff_runlogs(RunLog.load(a), RunLog.load(b))
            assert diff.is_empty, f"{a.name} differs between backends"


def _deterministic(partial):
    """A partial with the wall-clock and RSS observability zeroed."""
    value = partial.value
    if isinstance(value, CellSummary):
        value = dataclasses.replace(value, worker_rss_kb=0, phase_timings={})
    else:
        value = value.metrics
    return (
        partial.kind,
        partial.top_index,
        partial.position,
        partial.address,
        value,
    )


class TestSerialStreaming:
    @pytest.mark.parametrize("name", ["paper-baseline", "city-rollout"])
    def test_serial_streams_what_fused_streams_at_one_worker(self, name):
        spec = golden_spec(scenario(name))
        serial, fused = [], []
        run_scenario(spec, on_partial=serial.append)
        run_scenario(spec, backend="fused", workers=1, on_partial=fused.append)
        assert serial
        assert [_deterministic(p) for p in serial] == [
            _deterministic(p) for p in fused
        ]


class TestProcessBackendIsGone:
    def test_every_entry_point_rejects_process(self):
        spec = golden_spec(scenario("paper-baseline"))
        with pytest.raises(ConfigurationError, match="backend"):
            run_fn(draw_run, n_runs=2, seed=1, backend="process")
        with pytest.raises(ConfigurationError, match="backend"):
            drain(metric_items(draw_run, 1, 2), "process")
        with pytest.raises(ConfigurationError, match="backend"):
            run_scenario(spec, backend="process")
        with pytest.raises(ConfigurationError, match="backend"):
            run_sweep(
                [spec], [SweepAxis("devices", (20,))], backend="process"
            )
        with pytest.raises(ConfigurationError, match="backend"):
            compute_golden_metrics(["paper-baseline"], backend="process")
        with pytest.raises(ConfigurationError, match="backend"):
            ExperimentConfig(backend="process")


def _failing_cell_task(rng, address, payload):
    raise SimulationError(f"injected failure in {address}")


def _segments():
    return {p.name for p in SHM.glob("repro_fleet_*")}


@pytest.mark.skipif(not SHM.is_dir(), reason="needs POSIX shared memory")
class TestFailedCellReleasesSharedFleet:
    @pytest.mark.parametrize(
        "backend, workers", [("serial", None), ("fused", 2)]
    )
    def test_no_segment_survives_a_failed_cell(
        self, monkeypatch, backend, workers
    ):
        monkeypatch.setattr(runner, "_fused_cell_task", _failing_cell_task)
        spec = scenario("city-rollout").with_overrides(
            n_devices=2000, n_runs=2
        )
        before = _segments()
        with pytest.raises(SimulationError, match="injected failure"):
            run_scenario(spec, backend=backend, workers=workers)
        assert _segments() - before == set(), (
            f"{backend}: a failed run leaked its shared fleet (pid "
            f"{os.getpid()} still alive)"
        )
