"""Self-test of the benchmark: every workload at 10^3 devices, both modes.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import END_TO_END, METRICS, PER_LAYER  # noqa: E402
from workloads import SMALL_DEVICES, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    """One benchmark invocation at the self-test's fleet size."""
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload,
            "--seed", "2018",
            "--seconds", "1",
            "--trace", str(trace),
            "--devices", str(SMALL_DEVICES),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def test_benchmark_json_mirrors_the_catalog():
    assert BENCHMARK["paths"] == [HERE.name]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200
    for section, catalog in (
        ("end_to_end", END_TO_END), ("per_layer", PER_LAYER)
    ):
        assert [m["name"] for m in BENCHMARK[section]] == [
            m.name for m in catalog
        ]
        for entry in BENCHMARK[section]:
            metric = METRICS[entry["name"]]
            assert (entry["unit"], entry["better"]) == (
                metric.unit, metric.better
            )
    for metric in PER_LAYER:
        assert metric.moves, f"{metric.name} names no end-to-end metric"
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@functools.lru_cache(maxsize=None)
def _checkout_run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return _run(ROOT, workload, trace)


def _metrics(workload: str) -> dict:
    done = _checkout_run(workload, 1)
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {name: value["value"] for name, value in metrics.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_reports_every_metric_and_passes_its_check(workload, trace):
    done = _checkout_run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {
        name: value["unit"] for name, value in result["metrics"].items()
    } == {entry["name"]: entry["unit"] for entry in section}
    for entry in section:
        assert f"{entry['name']} = " in done.stdout


def test_traced_run_confirms_the_workload_choice():
    repair = _metrics("repair-heavy")
    assert repair["repair.s"] > 10 * repair["grouping.cover_s"]
    assert repair["grouping.windows"] == 0
    city = _metrics("city-fused")
    assert city["core.validate_calls"] > 0
    assert city["dispatch.tasks"] > 0 and city["dispatch.worker_rss_mb"] > 0
    assert _metrics("cover-heavy")["core.validate_calls"] == 0


def test_fails_without_the_program_sources():
    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(
        "__pycache__"
    ))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = _run(bare, "cover-heavy", 0)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
