"""A3 + A6 benchmarks: set-cover quality and solver/executor throughput.

* A3 — greedy (Chvátal) vs exact branch-and-bound on small instances:
  how far from optimal is the paper's approximation in practice?
* A6 — scalability: wall-clock of the DR-SC sweep-line planner and of a
  full campaign execution at paper scale (1000 devices).
* Cover shapes — the greedy window cover on inputs captured from real
  campaigns, one row per shape where a cover kernel can be slow: large
  paper-default fleets, the 64-device and 3k-device cells of
  city-rollout, contention-storm's 12-round cover and
  metering-longsleep (nothing folds), plus ``FLEET_SCALE_MIXTURE`` at
  10^4. dense-urban has no row: its captured cover input is
  byte-identical to paper-baseline's at every size. Every row times
  ``method="incremental"`` (median of three) against one
  ``method="reference"`` run and asserts the two are digest-identical:
  same windows, members and generator end state. Time is reported, not
  gated. ``REPRO_BENCH_SETCOVER_MAX_DEVICES`` caps every row's fleet
  size, and a row whose scenario already ran at its capped size is
  skipped; the rows land in ``BENCH_setcover.json``.
"""

import hashlib
import os
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np
from bench_fleet_scale import FLEET_SCALE_MIXTURE
from conftest import emit, write_bench_artifact

import repro.grouping.policies as policies
from repro.core import DaScMechanism, DrScMechanism
from repro.core.base import PlanningContext
from repro.experiments.ablations import run_setcover_quality
from repro.experiments.reporting import Table, render_table
from repro.scenarios import run_scenario, scenario
from repro.setcover.greedy import greedy_window_cover
from repro.sim.executor import CampaignExecutor
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import PAPER_DEFAULT_MIXTURE

#: Cover shapes: (label, registered scenario or "fleet-scale", devices).
COVER_SHAPES = (
    ("paper-baseline", "paper-baseline", 10_000),
    ("paper-baseline", "paper-baseline", 100_000),
    ("city-rollout (64-device cells)", "city-rollout", 1_024),
    ("city-rollout", "city-rollout", 50_000),
    ("contention-storm", "contention-storm", 100_000),
    ("metering-longsleep", "metering-longsleep", 100_000),
    ("FLEET_SCALE_MIXTURE", "fleet-scale", 10_000),
)


def test_a3_greedy_vs_exact_quality(benchmark, capsys):
    table, stats = benchmark.pedantic(
        run_setcover_quality,
        kwargs={"n_devices": 12, "n_runs": 15},
        iterations=1,
        rounds=1,
    )
    emit(capsys, render_table(table))
    benchmark.extra_info["mean_ratio"] = stats["ratio"].mean
    assert stats["ratio"].mean >= 1.0  # greedy can't beat the optimum
    assert stats["ratio"].mean < 1.25  # ...and is near-optimal here


def test_a6_drsc_planner_throughput_1000_devices(benchmark):
    """The greedy sweep at the paper's largest scale (Fig. 7 rightmost)."""
    rng = np.random.default_rng(0)
    fleet = generate_fleet(1000, PAPER_DEFAULT_MIXTURE, rng)
    context = PlanningContext(payload_bytes=100_000)

    def plan_once():
        return DrScMechanism().plan(fleet, context, np.random.default_rng(1))

    plan = benchmark(plan_once)
    assert plan.n_transmissions >= 1


def test_a6_campaign_execution_throughput(benchmark):
    """Plan + execute a 500-device DA-SC campaign end to end."""
    rng = np.random.default_rng(0)
    fleet = generate_fleet(500, PAPER_DEFAULT_MIXTURE, rng)
    context = PlanningContext(payload_bytes=1_000_000)
    plan = DaScMechanism().plan(fleet, context, rng)
    executor = CampaignExecutor()

    result = benchmark(lambda: executor.execute(fleet, plan))
    assert len(result) == 500


@dataclass(frozen=True)
class CoverInput:
    """One ``greedy_window_cover`` call as a campaign made it."""

    phases: np.ndarray
    periods: np.ndarray
    window_len: int
    horizon_start: int
    horizon_end: int
    rng_state: Optional[Dict[str, Any]]

    def cover(self, method: str):
        """The cover and the tie-break generator's end state."""
        rng = None
        if self.rng_state is not None:
            rng = np.random.default_rng()
            rng.bit_generator.state = self.rng_state
        cover = greedy_window_cover(
            self.phases, self.periods, self.window_len,
            self.horizon_start, self.horizon_end, rng, method=method,
        )
        return cover, None if rng is None else rng.bit_generator.state


def _capture_covers(
    monkeypatch, source: str, n_devices: int
) -> List[CoverInput]:
    """The cover inputs of one single-run campaign (one per cell)."""
    captured: List[CoverInput] = []
    real = policies.greedy_window_cover

    def capture(phases, periods, window_len, horizon_start, horizon_end,
                rng=None, **kwargs):
        captured.append(CoverInput(
            np.array(phases), np.array(periods), window_len,
            horizon_start, horizon_end,
            None if rng is None else rng.bit_generator.state,
        ))
        return real(phases, periods, window_len, horizon_start,
                    horizon_end, rng, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(policies, "greedy_window_cover", capture)
        if source == "fleet-scale":
            fleet = generate_fleet(
                n_devices, FLEET_SCALE_MIXTURE, np.random.default_rng(7)
            )
            DrScMechanism().plan(
                fleet, PlanningContext(payload_bytes=1_000_000),
                np.random.default_rng(11),
            )
        else:
            run_scenario(
                scenario(source).with_overrides(n_devices=n_devices, n_runs=1),
                backend="serial",
            )
    return captured


def _digest(results) -> str:
    """SHA-256 over every cover's window starts, members and end state."""
    digest = hashlib.sha256()
    for cover, state in results:
        digest.update(cover.start.tobytes())
        digest.update(cover.members.tobytes())
        digest.update(repr(state).encode())
    return digest.hexdigest()


def _timed(inputs: List[CoverInput], method: str):
    """Seconds to run every cover of ``inputs``, and their results."""
    t0 = time.perf_counter()
    results = [item.cover(method) for item in inputs]
    return time.perf_counter() - t0, results


def test_cover_shapes_match_reference(monkeypatch, capsys):
    """Captured cover inputs: incremental vs reference, digest-identical."""
    cap = os.environ.get("REPRO_BENCH_SETCOVER_MAX_DEVICES")
    rows = []
    records = []
    ran = set()
    for label, source, n_devices in COVER_SHAPES:
        if cap:
            n_devices = min(n_devices, int(cap))
        if (source, n_devices) in ran:
            continue  # the cap made this row a repeat of an earlier one
        ran.add((source, n_devices))
        inputs = _capture_covers(monkeypatch, source, n_devices)
        assert inputs, f"{source} made no greedy cover"
        runs = [_timed(inputs, "incremental") for _ in range(3)]
        incremental_s = statistics.median(seconds for seconds, _ in runs)
        reference_s, reference = _timed(inputs, "reference")
        digest = _digest(reference)
        for _, results in runs:
            assert _digest(results) == digest, (label, n_devices)
        n_transmissions = sum(cover.n_groups for cover, _ in reference)
        rows.append((
            label, str(n_devices), str(len(inputs)), str(n_transmissions),
            f"{reference_s:.3f}s", f"{incremental_s:.3f}s",
            f"{reference_s / incremental_s:.1f}x",
        ))
        records.append({
            "shape": label,
            "scenario": source,
            "n_devices": n_devices,
            "n_covers": len(inputs),
            "n_transmissions": n_transmissions,
            "cover_reference_s": reference_s,
            "cover_incremental_s": incremental_s,
            "sha256": digest,
        })
    emit(capsys, render_table(Table(
        title="Greedy window cover on captured inputs",
        headers=("shape", "devices", "covers", "windows", "reference",
                 "incremental", "speedup"),
        rows=tuple(rows),
    )))
    write_bench_artifact("setcover", {"rows": records})
