"""Ablation benchmarks A1/A2/A4/A5 (DESIGN.md experiment index).

* A1 — DA-SC adaptation strategy (paper's max-cycle vs naive fallback);
* A2 — inactivity-timer sensitivity of DR-SC's transmission count;
* A4 — fleet-mixture sensitivity (what Fig. 7 would look like on
  different cities);
* A5 — SC-PTM's standing monitoring cost (why on-demand multicast [3]
  is the right substrate).
"""

from dataclasses import replace

from conftest import emit

from repro.core.da_sc import AdaptationStrategy
from repro.experiments.ablations import (
    run_dasc_strategy_ablation,
    run_mixture_sensitivity,
    run_scptm_comparison,
    run_ti_sensitivity,
)
from repro.experiments.reporting import render_table


def test_a1_dasc_strategy(benchmark, bench_config, capsys):
    config = replace(bench_config, n_devices=min(bench_config.n_devices, 150))
    table, stats = benchmark.pedantic(
        run_dasc_strategy_ablation, args=(config,), iterations=1, rounds=1
    )
    emit(capsys, render_table(table))
    paper = AdaptationStrategy.PAPER.value
    naive = AdaptationStrategy.LARGEST_WITHIN_TI.value
    # The paper's choice provably introduces no more wake-ups.
    assert (
        stats[f"{paper}/intermediate_pos"].mean
        <= stats[f"{naive}/intermediate_pos"].mean
    )
    assert (
        stats[f"{paper}/mean_adapted_cycle_s"].mean
        >= stats[f"{naive}/mean_adapted_cycle_s"].mean
    )


def test_a2_inactivity_timer(benchmark, bench_config, capsys):
    table, per_ti = benchmark.pedantic(
        run_ti_sensitivity, args=(bench_config,), iterations=1, rounds=1
    )
    emit(capsys, render_table(table))
    means = {ti: stats["transmissions"].mean for ti, stats in per_ti.items()}
    ordered = sorted(means)
    # Wider windows can only help the cover.
    assert means[ordered[-1]] <= means[ordered[0]]


def test_a4_mixture_sensitivity(benchmark, bench_config, capsys):
    table, per_mix = benchmark.pedantic(
        run_mixture_sensitivity, args=(bench_config,), iterations=1, rounds=1
    )
    emit(capsys, render_table(table))
    fractions = {
        name: stats["fraction_of_unicast"].mean
        for name, stats in per_mix.items()
    }
    # Short-eDRX fleets group far better than long-eDRX fleets.
    assert fractions["short-edrx"] < fractions["long-edrx"]
    # The calibrated paper mixture sits in between.
    assert (
        fractions["short-edrx"]
        < fractions["paper-default"]
        <= fractions["long-edrx"] + 0.05
    )


def test_a5_scptm_standing_cost(benchmark, capsys):
    table = benchmark.pedantic(run_scptm_comparison, iterations=1, rounds=1)
    emit(capsys, render_table(table))
    assert "SC-PTM" in table.rows[0][0]
