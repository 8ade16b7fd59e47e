"""A3 + A6 benchmarks: set-cover quality and solver/executor throughput.

* A3 — greedy (Chvátal) vs exact branch-and-bound on small instances:
  how far from optimal is the paper's approximation in practice?
* A6 — scalability: wall-clock of the DR-SC sweep-line planner and of a
  full campaign execution at paper scale (1000 devices).
* Cover shapes — the greedy window cover on inputs captured from real
  campaigns, one row per shape where a cover kernel can be slow:
  paper-default fleets from one sweep of about 1.6k explicit devices
  (3k devices) up to 10^5, the 64-device and 3k-device cells of
  city-rollout, contention-storm's 12-round cover and
  metering-longsleep (nothing folds), plus ``FLEET_SCALE_MIXTURE`` at
  10^4. dense-urban has no row: its captured cover input is
  byte-identical to paper-baseline's at every size. Every row times
  the incremental sweep (median of three) against one run of the
  per-round re-sweep in ``tests/cover_oracle.py`` and asserts the two
  are digest-identical: same windows, members and generator end state.
  The bench drives ``IncrementalSweep.select`` itself, so each row also
  splits the incremental time into the sweep's build, its folded rounds
  and its tied rounds (count and seconds), and counts the tied rounds'
  refills.
  Time is reported, not gated. ``REPRO_BENCH_SETCOVER_MAX_DEVICES``
  caps every row's fleet size, and a row whose scenario already ran at
  its capped size is skipped; the rows land in ``BENCH_setcover.json``.
"""

import hashlib
import os
import statistics
import time
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
from bench_fleet_scale import FLEET_SCALE_MIXTURE
from conftest import emit, write_bench_artifact
from cover_oracle import reference_window_cover

import repro.grouping.policies as policies
from repro.core import DaScMechanism, DrScMechanism
from repro.core.base import PlanningContext
from repro.experiments.ablations import run_setcover_quality
from repro.experiments.reporting import Table, render_table
from repro.scenarios import run_scenario, scenario
from repro.setcover.decision import GroupingDecision
from repro.setcover.incremental import IncrementalSweep
from repro.sim.executor import CampaignExecutor
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import PAPER_DEFAULT_MIXTURE

#: Cover shapes: (label, registered scenario or "fleet-scale", devices).
COVER_SHAPES = (
    ("paper-baseline (one 1.6k-explicit sweep)", "paper-baseline", 3_000),
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


@dataclass
class CoverSplit:
    """Where the incremental sweep's time went, summed over covers."""

    build_s: float = 0.0
    folded_rounds: int = 0
    folded_s: float = 0.0
    tied_rounds: int = 0
    tied_s: float = 0.0
    #: Tied rounds that found the candidate list empty and refilled it.
    refills: int = 0


@dataclass(frozen=True)
class CoverInput:
    """One ``greedy_window_cover`` call as a campaign made it."""

    phases: np.ndarray
    periods: np.ndarray
    window_len: int
    horizon_start: int
    horizon_end: int
    rng_state: Optional[Dict[str, Any]]

    def _rng(self) -> Optional[np.random.Generator]:
        if self.rng_state is None:
            return None
        rng = np.random.default_rng()
        rng.bit_generator.state = self.rng_state
        return rng

    def reference(self):
        """The reference cover and the generator's end state."""
        rng = self._rng()
        cover = reference_window_cover(
            self.phases, self.periods, self.window_len,
            self.horizon_start, self.horizon_end, rng,
        )
        return cover, None if rng is None else rng.bit_generator.state

    def incremental(self, split: CoverSplit):
        """The incremental cover and the generator's end state, driving
        the sweep round by round and adding its phases to ``split``.

        A round is folded while the sweep holds a folded period, tied
        after; a tied round refills when it finds no candidate left.
        """
        rng = self._rng()
        clock = time.perf_counter
        t0 = clock()
        sweep = IncrementalSweep(
            self.phases, self.periods, self.window_len,
            self.horizon_start, self.horizon_end,
        )
        split.build_s += clock() - t0
        starts: List[int] = []
        groups: List[np.ndarray] = []
        while sweep.remaining:
            folded = bool(sweep._folded)
            split.refills += not folded and not sweep._candidates
            t0 = clock()
            start, covered = sweep.select(rng)
            seconds = clock() - t0
            if folded:
                split.folded_rounds += 1
                split.folded_s += seconds
            else:
                split.tied_rounds += 1
                split.tied_s += seconds
            starts.append(start)
            groups.append(covered)
        start = np.array(starts, dtype=np.int64)
        cover = GroupingDecision.from_groups(
            start, start + self.window_len, groups
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


def _timed_reference(inputs: List[CoverInput]):
    """Seconds to run every reference cover of ``inputs``, and their
    results."""
    t0 = time.perf_counter()
    results = [item.reference() for item in inputs]
    return time.perf_counter() - t0, results


def _timed_incremental(
    inputs: List[CoverInput],
) -> Tuple[float, CoverSplit, list]:
    """Seconds to run every incremental cover of ``inputs``, their phase
    split, and their results."""
    split = CoverSplit()
    t0 = time.perf_counter()
    results = [item.incremental(split) for item in inputs]
    return time.perf_counter() - t0, split, results


def _median_split(splits: List[CoverSplit]) -> CoverSplit:
    """Each field's median over repeated runs."""
    return CoverSplit(**{
        field.name: statistics.median(
            getattr(split, field.name) for split in splits
        )
        for field in fields(CoverSplit)
    })


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
        runs = [_timed_incremental(inputs) for _ in range(3)]
        incremental_s = statistics.median(seconds for seconds, _, _ in runs)
        split = _median_split([split for _, split, _ in runs])
        reference_s, reference = _timed_reference(inputs)
        digest = _digest(reference)
        for _, _, results in runs:
            assert _digest(results) == digest, (label, n_devices)
        n_transmissions = sum(cover.n_groups for cover, _ in reference)
        rows.append((
            label, str(n_devices), str(len(inputs)), str(n_transmissions),
            f"{reference_s:.3f}s", f"{incremental_s:.3f}s",
            f"{reference_s / incremental_s:.1f}x",
            f"{split.build_s * 1e3:.1f}ms",
            f"{split.folded_s * 1e3:.1f}ms / {split.folded_rounds}",
            f"{split.tied_s * 1e3:.1f}ms / {split.tied_rounds}",
            str(split.refills),
        ))
        records.append({
            "shape": label,
            "scenario": source,
            "n_devices": n_devices,
            "n_covers": len(inputs),
            "n_transmissions": n_transmissions,
            "cover_reference_s": reference_s,
            "cover_incremental_s": incremental_s,
            "build_s": split.build_s,
            "folded_rounds": split.folded_rounds,
            "folded_s": split.folded_s,
            "tied_rounds": split.tied_rounds,
            "tied_s": split.tied_s,
            "refills": split.refills,
            "sha256": digest,
        })
    emit(capsys, render_table(Table(
        title="Greedy window cover on captured inputs",
        headers=("shape", "devices", "covers", "windows", "reference",
                 "incremental", "speedup", "build", "folded / rounds",
                 "tied / rounds", "refills"),
        rows=tuple(rows),
    )))
    write_bench_artifact("setcover", {"rows": records})
