"""Multi-cell conservation properties.

Partitioning a fleet across cells and running one campaign per cell
must conserve the fleet: every device lands in exactly one cell
(uniform or weighted attachment, vectorised grouping or the
``tests/fleet_oracle.py`` per-cell scan), a recorded multi-cell run's
cell logs hold the whole fleet between them, and the log alone
rebuilds the run's live headline metrics exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from fleet_oracle import partition_indices_reference

from repro.multicast.coordination import (
    MultiCellSpec,
    attach_devices,
    partition_indices,
)
from repro.scenarios import (
    HEADLINE_METRICS,
    ScenarioSpec,
    record_run,
    runlog_headline_metrics,
)


@st.composite
def attachment_cases(draw):
    n_devices = draw(st.integers(min_value=1, max_value=400))
    n_cells = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    weighted = draw(st.booleans())
    weights = None
    if weighted and n_cells > 1:
        raw = draw(
            st.lists(
                st.floats(min_value=0.05, max_value=1.0),
                min_size=n_cells,
                max_size=n_cells,
            )
        )
        total = sum(raw)
        weights = tuple(w / total for w in raw)
        # Float renormalisation noise: pin the last weight so the sum
        # is exactly what validate_unit_sum accepts.
        weights = weights[:-1] + (1.0 - sum(weights[:-1]),)
    return n_devices, n_cells, seed, weights


class TestPartitionConservation:
    @given(attachment_cases())
    @settings(max_examples=60, deadline=None)
    def test_every_device_in_exactly_one_cell(self, case):
        n_devices, n_cells, seed, weights = case
        spec = MultiCellSpec(n_cells=n_cells, weights=weights)
        attachments = attach_devices(
            n_devices, spec, np.random.default_rng(seed)
        )
        cells = partition_indices(attachments, n_cells)
        union = np.concatenate(list(cells.values())) if cells else np.array([])
        assert union.size == n_devices
        assert np.array_equal(np.sort(union), np.arange(n_devices))
        for cell_id, indices in cells.items():
            assert np.all(attachments[indices] == cell_id)
            # Ascending within each cell (stable grouping).
            assert np.all(np.diff(indices) > 0) or indices.size == 1

    @given(attachment_cases())
    @settings(max_examples=40, deadline=None)
    def test_vectorised_equals_reference(self, case):
        n_devices, n_cells, seed, weights = case
        spec = MultiCellSpec(n_cells=n_cells, weights=weights)
        attachments = attach_devices(
            n_devices, spec, np.random.default_rng(seed)
        )
        fast = partition_indices(attachments, n_cells)
        reference = partition_indices_reference(attachments, n_cells)
        assert set(fast) == set(reference)
        for cell_id in fast:
            np.testing.assert_array_equal(fast[cell_id], reference[cell_id])


class TestRecordedRunConservation:
    @given(
        n_devices=st.integers(min_value=4, max_value=60),
        n_cells=st.integers(min_value=1, max_value=6),
        mechanism=st.sampled_from(["dr-sc", "da-sc"]),
        loss=st.sampled_from([0.0, 0.05]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_log_only_metrics_equal_live_and_cells_hold_the_fleet(
        self, n_devices, n_cells, mechanism, loss, seed
    ):
        spec = ScenarioSpec(
            name="prop-multicell",
            n_devices=n_devices,
            mixture="moderate-edrx",
            mechanism=mechanism,
            payload_bytes=50_000,
            segment_loss_probability=loss,
            cells=MultiCellSpec(n_cells=n_cells),
            n_runs=1,
            seed=seed,
        )
        recorded = record_run(spec)

        # The log alone rebuilds the live headline metrics exactly.
        assert runlog_headline_metrics(recorded.runlog) == {
            name: recorded.metrics[name] for name in HEADLINE_METRICS
        }
        # Device conservation: the populated cells serve the whole fleet
        # between them.
        logs = recorded.runlog.cells
        assert all(int(log.meta["n_devices"]) >= 1 for log in logs.values())
        assert sum(int(log.meta["n_devices"]) for log in logs.values()) == (
            n_devices
        )
        assert set(logs) <= set(range(n_cells))
        if mechanism == "da-sc":
            assert recorded.metrics["transmissions"] == len(logs)
