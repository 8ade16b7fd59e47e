"""Byte-for-byte pins of the ``figures`` output at a small configuration.

Every figure and ablation table (and chart) is rendered at 3 runs, 120
devices and a two-point Fig. 7 sweep, and compared with the committed
text beside this test. A refactor of the experiment pipeline must keep
these bytes; a deliberate change of the numbers re-pins them. Each pin
is exactly the CLI's stdout, so it regenerates with::

    PYTHONPATH=src python -m repro figures --runs 3 --devices 120 \\
        --device-counts 100,300 > tests/integration/figures_golden/small.txt
    PYTHONPATH=src python -m repro figures --runs 3 --devices 120 \\
        --device-counts 100,300 --grouping collision-aware \\
        --figure 6a --figure 7 --figure a2 --figure a4 \\
        > tests/integration/figures_golden/small-collision-aware.txt
"""

from __future__ import annotations

import difflib
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import render_all, run_with_charts

GOLDEN_DIR = Path(__file__).parent / "figures_golden"

SMALL = replace(
    ExperimentConfig(), n_runs=3, n_devices=120, device_counts=(100, 300)
)


def _assert_matches_golden(rendered: str, name: str) -> None:
    expected = (GOLDEN_DIR / name).read_text()
    if rendered != expected:
        diff = "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                rendered.splitlines(keepends=True),
                fromfile=f"golden/{name}",
                tofile="rendered",
            )
        )
        pytest.fail(f"figures output drifted from {name}:\n{diff}")


@pytest.mark.parametrize(
    "name, targets, config",
    [
        ("small.txt", None, SMALL),
        (
            "small-collision-aware.txt",
            ["6a", "7", "a2", "a4"],
            replace(SMALL, grouping="collision-aware"),
        ),
    ],
    ids=["all-targets", "collision-aware"],
)
def test_figures_output_is_pinned(name, targets, config):
    tables, charts = run_with_charts(targets, config)
    # The CLI prints the rendering plus a newline; the pins are its stdout.
    _assert_matches_golden(render_all(tables, charts) + "\n", name)
