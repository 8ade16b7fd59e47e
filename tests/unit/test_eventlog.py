"""Unit tests for the columnar event log (record / STRICT replay / diff)."""

import json

import numpy as np
import pytest

from repro.energy.profiles import DEFAULT_PROFILE
from repro.errors import SimulationError
from repro.sim.eventlog import (
    EVENT_DTYPE,
    KIND_CODES,
    SCHEMA_VERSION,
    EventLog,
    EventLogRecorder,
    RunLog,
    canonical_order,
    compare_results,
    diff_logs,
    diff_runlogs,
    format_diff,
    format_runlog_diff,
    profile_meta,
    repair_round_rows,
    replay_strict,
)
from repro.sim.events import EventKind
from repro.sim.executor import CampaignExecutor
from repro.sim.replay import EventDrivenCampaign
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import MODERATE_EDRX_MIXTURE

from repro.core import DrScMechanism
from repro.core.base import PlanningContext


def _recorded_campaign(seed=3, n=12, event_driven=False):
    """A small live campaign plus its finalized event log."""
    rng = np.random.default_rng(seed)
    fleet = generate_fleet(n, MODERATE_EDRX_MIXTURE, rng)
    context = PlanningContext(payload_bytes=60_000)
    plan = DrScMechanism().plan(fleet, context, rng)
    recorder = EventLogRecorder()
    if event_driven:
        result = EventDrivenCampaign(fleet, plan, recorder=recorder).run()
    else:
        result = CampaignExecutor().execute(fleet, plan, recorder=recorder)
    return result, recorder.finalize(cell=0)


class TestRecorder:
    def test_emit_and_finalize_sorts_canonically(self):
        recorder = EventLogRecorder()
        recorder.set_meta(cell=3)
        recorder.emit(EventKind.DEVICE_DONE, frame=20, device=1, a=1.5)
        recorder.emit(EventKind.PAGE, frame=5, device=0, a=0.03)
        recorder.emit(EventKind.PAGE, frame=5, device=1, a=0.03)
        log = recorder.finalize(extra="x")
        assert log.n_events == 3
        assert list(log.events["frame"]) == [5, 5, 20]
        assert list(log.events["device"]) == [0, 1, 1]
        assert np.all(log.events["cell"] == 3)
        assert log.meta["extra"] == "x"
        assert log.meta["schema"] == SCHEMA_VERSION

    def test_emit_block_broadcasts_scalars(self):
        recorder = EventLogRecorder()
        recorder.emit_block(
            EventKind.PO_MONITOR,
            frame=7,
            device=np.arange(4),
            a=np.array([1.0, 2.0, 3.0, 4.0]),
        )
        log = recorder.finalize()
        assert log.n_events == 4
        assert np.all(log.events["frame"] == 7)
        assert np.all(log.events["group"] == -1)
        assert list(log.events["a"]) == [1.0, 2.0, 3.0, 4.0]

    def test_empty_recorder_finalizes_to_empty_log(self):
        log = EventLogRecorder().finalize()
        assert log.n_events == 0
        assert log.events.dtype == EVENT_DTYPE

    def test_canonical_order_is_emission_order_independent(self):
        a, b = EventLogRecorder(), EventLogRecorder()
        rows = [
            (EventKind.PAGE, 5, 1, 0, 0.03),
            (EventKind.PAGE, 5, 0, 0, 0.03),
            (EventKind.T322_EXPIRY, 9, 0, 0, 0.0),
        ]
        for kind, frame, dev, grp, x in rows:
            a.emit(kind, frame, device=dev, group=grp, a=x)
        for kind, frame, dev, grp, x in reversed(rows):
            b.emit(kind, frame, device=dev, group=grp, a=x)
        la, lb = a.finalize(), b.finalize()
        assert np.array_equal(la.events, lb.events)


class TestEventLogViews:
    def test_of_kind_for_device_and_counts(self):
        _, log = _recorded_campaign()
        n = int(log.meta["n_devices"])
        done = log.of_kind(EventKind.DEVICE_DONE)
        assert done.size == n
        assert np.all(done["kind"] == KIND_CODES[EventKind.DEVICE_DONE])
        dev0 = log.for_device(0)
        assert np.all(dev0["device"] == 0)
        counts = log.counts_by_kind()
        assert counts["device_done"] == n
        assert counts["tx_start"] == counts["tx_end"]
        assert sum(counts.values()) == log.n_events

    def test_with_appended_resorts_and_stamps_cell(self):
        _, log = _recorded_campaign()
        horizon = int(log.meta["horizon_frames"])
        extra = repair_round_rows([10, 4], horizon)
        merged = log.with_appended(extra)
        assert merged.n_events == log.n_events + 2
        rounds = merged.of_kind(EventKind.REPAIR_ROUND)
        assert list(rounds["frame"]) == [horizon + 1, horizon + 2]
        assert list(rounds["a"]) == [10.0, 4.0]
        assert list(rounds["b"]) == [1.0, 2.0]
        assert np.all(merged.events["cell"] == 0)
        order = canonical_order(merged.events)
        assert np.array_equal(order, np.arange(merged.n_events))


class TestStrictReplay:
    def test_rebuild_is_bit_identical_columnar(self):
        result, log = _recorded_campaign()
        rebuilt = replay_strict(log)
        assert compare_results(result, rebuilt) == []

    def test_rebuild_is_bit_identical_event_driven(self):
        result, log = _recorded_campaign(event_driven=True)
        rebuilt = replay_strict(log)
        assert compare_results(result, rebuilt) == []

    def test_rebuilt_plan_summary_duck_types(self):
        result, log = _recorded_campaign()
        rebuilt = replay_strict(log)
        assert rebuilt.plan.mechanism == result.plan.mechanism
        assert rebuilt.n_transmissions == result.n_transmissions
        assert rebuilt.plan.payload_bytes == result.plan.payload_bytes

    def test_missing_meta_raises(self):
        _, log = _recorded_campaign()
        broken = EventLog(events=log.events, meta={"schema": SCHEMA_VERSION})
        with pytest.raises(SimulationError, match="missing"):
            replay_strict(broken)

    def test_schema_mismatch_raises(self):
        _, log = _recorded_campaign()
        meta = dict(log.meta)
        meta["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(SimulationError, match="schema"):
            replay_strict(EventLog(events=log.events, meta=meta))

    def test_wrong_tx_count_raises(self):
        _, log = _recorded_campaign()
        keep = log.events["kind"] != KIND_CODES[EventKind.TX_END]
        with pytest.raises(SimulationError, match="TX_END"):
            replay_strict(EventLog(events=log.events[keep], meta=log.meta))

    def test_missing_device_done_raises(self):
        _, log = _recorded_campaign()
        done = KIND_CODES[EventKind.DEVICE_DONE]
        drop_one = ~(
            (log.events["kind"] == done) & (log.events["device"] == 0)
        )
        with pytest.raises(SimulationError, match="DEVICE_DONE"):
            replay_strict(EventLog(events=log.events[drop_one], meta=log.meta))

    def test_duplicate_device_done_raises(self):
        _, log = _recorded_campaign()
        done = KIND_CODES[EventKind.DEVICE_DONE]
        dup = log.events[log.events["kind"] == done][:1]
        events = np.concatenate([log.events, dup])
        events = events[canonical_order(events)]
        meta = dict(log.meta)
        meta["n_devices"] = int(meta["n_devices"]) + 1
        with pytest.raises(SimulationError, match="duplicate"):
            replay_strict(EventLog(events=events, meta=meta))

    def test_missing_per_device_event_raises(self):
        _, log = _recorded_campaign()
        ready = KIND_CODES[EventKind.CONNECTION_READY]
        drop = ~(
            (log.events["kind"] == ready) & (log.events["device"] == 1)
        )
        with pytest.raises(SimulationError, match="CONNECTION_READY"):
            replay_strict(EventLog(events=log.events[drop], meta=log.meta))

    def test_repair_rounds_do_not_disturb_reconstruction(self):
        result, log = _recorded_campaign()
        merged = log.with_appended(
            repair_round_rows([7], int(log.meta["horizon_frames"]))
        )
        assert compare_results(result, replay_strict(merged)) == []

    def test_profile_meta_round_trips_default_profile(self):
        spec = json.loads(json.dumps(profile_meta(DEFAULT_PROFILE)))
        from repro.sim.eventlog import _profile_from_meta

        assert _profile_from_meta({"energy_profile": spec}) == DEFAULT_PROFILE
        assert _profile_from_meta({}) == DEFAULT_PROFILE


class TestCompareResults:
    def test_detects_tampered_ledger(self):
        result, log = _recorded_campaign()
        rebuilt = replay_strict(log)
        rebuilt.columnar.ledgers.seconds[0, 0] += 1.0
        findings = compare_results(result, rebuilt)
        assert findings and "ledger" in findings[0]

    def test_detects_tampered_wait(self):
        result, log = _recorded_campaign()
        rebuilt = replay_strict(log)
        rebuilt.columnar.wait_s[2] += 0.5
        assert any("wait_s" in f for f in compare_results(result, rebuilt))


class TestDiff:
    def test_identical_logs_are_empty_diff(self):
        _, log = _recorded_campaign()
        diff = diff_logs(log, log)
        assert diff.is_empty
        assert "identical" in format_diff(diff)

    def test_value_divergence_reports_first_row(self):
        _, log = _recorded_campaign()
        other = EventLog(events=log.events.copy(), meta=dict(log.meta))
        other.events["a"][5] += 1e-9
        diff = diff_logs(log, other)
        assert not diff.is_empty
        assert diff.first_divergence == 5
        assert diff.first_events[0] != diff.first_events[1]

    def test_extra_events_reported(self):
        _, log = _recorded_campaign()
        longer = log.with_appended(
            repair_round_rows([3], int(log.meta["horizon_frames"]))
        )
        diff = diff_logs(log, longer)
        assert diff.first_divergence == log.n_events
        assert diff.first_events[0] == "<no event>"
        assert diff.kind_deltas["repair_round"] == (0, 1)

    def test_device_deltas_and_meta_notes(self):
        _, log = _recorded_campaign()
        done = KIND_CODES[EventKind.DEVICE_DONE]
        keep = ~((log.events["kind"] == done) & (log.events["device"] == 3))
        meta = dict(log.meta)
        meta["emitter"] = "other"
        shorter = EventLog(events=log.events[keep], meta=meta)
        diff = diff_logs(log, shorter)
        assert any("emitter" in note for note in diff.meta_notes)
        assert (3, *_device_counts(log, shorter, 3)) in diff.device_deltas

    def test_runlog_diff_cell_coverage(self):
        _, log = _recorded_campaign()
        a = RunLog(meta={"seed": 1}, cells={0: log, 1: log})
        b = RunLog(meta={"seed": 1}, cells={0: log})
        diff = diff_runlogs(a, b)
        assert not diff.is_empty
        assert any("only in a" in note for note in diff.cell_notes)
        rendered = format_runlog_diff(diff)
        assert "only in a" in rendered


def _device_counts(log_a, log_b, device):
    return (
        int((log_a.events["device"] == device).sum()),
        int((log_b.events["device"] == device).sum()),
    )


class TestRunLogNpz:
    def test_save_load_round_trip(self, tmp_path):
        _, log = _recorded_campaign()
        runlog = RunLog(
            meta={"scenario": "x", "seed": 3, "run_index": 0},
            cells={0: log},
        )
        path = runlog.save(tmp_path / "run.npz")
        loaded = RunLog.load(path)
        assert loaded.meta["scenario"] == "x"
        assert diff_runlogs(runlog, loaded).is_empty
        assert np.array_equal(loaded.cells[0].events, log.events)
        assert loaded.cells[0].meta["horizon_frames"] == log.meta[
            "horizon_frames"
        ]

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(SimulationError, match="no run log"):
            RunLog.load(tmp_path / "absent.npz")

    def test_load_foreign_npz_raises(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, data=np.arange(3))
        with pytest.raises(SimulationError, match="not a recorded run"):
            RunLog.load(path)

    def test_load_runlog_without_cells_raises(self, tmp_path):
        path = tmp_path / "empty.npz"
        np.savez(path, run_meta=np.array(json.dumps({"seed": 1})))
        with pytest.raises(SimulationError, match="no cell logs"):
            RunLog.load(path)
