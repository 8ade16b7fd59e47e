"""Shared benchmark configuration.

Benchmarks regenerate the paper's figures. By default they run scaled
down so ``pytest benchmarks/ --benchmark-only`` finishes in minutes;
set ``REPRO_BENCH_FULL=1`` to use the paper's full parameters (100
Monte-Carlo runs, fleets up to 1000 devices), or tune individually with
``REPRO_BENCH_RUNS`` / ``REPRO_BENCH_DEVICES``. The Monte-Carlo
execution backend is selectable too: ``REPRO_BENCH_BACKEND=fused``
and ``REPRO_BENCH_WORKERS=N`` drain every figure's runs on the fused
process pool (identical numbers, lower wall-clock).

Timing benchmarks persist their measurements as ``BENCH_<name>.json``
artifacts (via :func:`write_bench_artifact`) so CI can upload them and
the project accumulates a perf trajectory. ``REPRO_BENCH_ARTIFACT_DIR``
overrides the output directory (default: the current working directory).
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.experiments.config import ExperimentConfig

# The oracles live in tests/; appended, so ``conftest`` stays this file.
sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    return int(value) if value else default


def _execution_overrides(config: ExperimentConfig) -> ExperimentConfig:
    """Apply the backend/workers env knobs (numbers are unaffected)."""
    backend = os.environ.get("REPRO_BENCH_BACKEND")
    if backend:
        config = replace(config, backend=backend)
    workers = os.environ.get("REPRO_BENCH_WORKERS")
    if workers:
        config = replace(config, workers=int(workers))
    return config


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """The experiment configuration benchmarks run with."""
    if os.environ.get("REPRO_BENCH_FULL"):
        return _execution_overrides(ExperimentConfig())
    runs = _env_int("REPRO_BENCH_RUNS", 5)
    devices = _env_int("REPRO_BENCH_DEVICES", 150)
    return _execution_overrides(
        replace(
            ExperimentConfig(),
            n_runs=runs,
            n_devices=devices,
            device_counts=(100, 300, 500, 1000),
        )
    )


def emit(capsys, text: str) -> None:
    """Print a results table to the real terminal from inside a test."""
    with capsys.disabled():
        print()
        print(text)


def write_bench_artifact(name: str, payload: Dict[str, Any]) -> Path:
    """Persist one benchmark's measurements as ``BENCH_<name>.json``.

    The directory is ``REPRO_BENCH_ARTIFACT_DIR`` when set (created if
    missing), the current working directory otherwise. Returns the path
    written so callers can report it.
    """
    directory = Path(os.environ.get("REPRO_BENCH_ARTIFACT_DIR", "."))
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
