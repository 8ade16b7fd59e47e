"""CLI coverage for ``runs record|replay|diff`` and the record flags."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import main
from repro.multicast.coordination import MultiCellSpec
from repro.scenarios import ScenarioSpec, record_run, runlog_headline_metrics
from repro.sim.eventlog import RunLog, diff_runlogs

#: The source root the package was imported from, for the subprocess
#: runs of ``python -m repro``.
SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def recorded_npz(tmp_path_factory):
    """One recorded run of the smallest single-cell scenario."""
    path = tmp_path_factory.mktemp("runs") / "reference.npz"
    code = main(
        [
            "runs",
            "record",
            "--scenario",
            "unicast-reference",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    return path


class TestRunsRecord:
    def test_record_writes_npz_and_prints_metrics(self, recorded_npz, capsys):
        assert recorded_npz.exists()
        runlog = RunLog.load(recorded_npz)
        assert runlog.meta["scenario"] == "unicast-reference"
        assert 0 in runlog.cells

    def test_record_custom_seed_and_run_index(self, tmp_path, capsys):
        path = tmp_path / "alt.npz"
        code = main(
            [
                "runs",
                "record",
                "--scenario",
                "unicast-reference",
                "--run-index",
                "1",
                "--seed",
                "777",
                "--out",
                str(path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "run 1" in out
        runlog = RunLog.load(path)
        assert int(runlog.meta["seed"]) == 777
        assert int(runlog.meta["run_index"]) == 1

    def test_record_unknown_scenario_fails(self):
        with pytest.raises(Exception):
            main(["runs", "record", "--scenario", "no-such-scenario"])


class TestRunsReplay:
    def test_replay_prints_log_only_metrics(self, recorded_npz, capsys):
        code = main(["runs", "replay", "--log", str(recorded_npz)])
        out = capsys.readouterr().out
        assert code == 0
        assert "scenario=unicast-reference" in out
        assert "log-only metrics" in out
        assert "energy_mj" in out

    def test_replay_verify_passes_on_faithful_log(self, recorded_npz, capsys):
        code = main(["runs", "replay", "--log", str(recorded_npz), "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verified: live re-execution matches the log" in out


class TestRunsDiff:
    def test_self_diff_is_empty(self, recorded_npz, capsys):
        code = main(["runs", "diff", str(recorded_npz), str(recorded_npz)])
        out = capsys.readouterr().out
        assert code == 0
        assert "event-identical" in out

    def test_different_seeds_diverge(self, recorded_npz, tmp_path, capsys):
        other = tmp_path / "other-seed.npz"
        assert (
            main(
                [
                    "runs",
                    "record",
                    "--scenario",
                    "unicast-reference",
                    "--seed",
                    "31337",
                    "--out",
                    str(other),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(["runs", "diff", str(recorded_npz), str(other)])
        out = capsys.readouterr().out
        assert code == 1
        assert "first divergence" in out


class TestRecordFlags:
    def test_sweep_record_axis_writes_only_flagged_cells(
        self, tmp_path, capsys
    ):
        record_dir = tmp_path / "runlogs"
        code = main(
            [
                "scenarios",
                "sweep",
                "--scenario",
                "unicast-reference",
                "--runs",
                "2",
                "--axis",
                "record=0,1",
                "--record-dir",
                str(record_dir),
            ]
        )
        assert code == 0
        files = sorted(record_dir.glob("*.npz"))
        # one cell has record=1 -> exactly its 2 runs are on disk
        assert len(files) == 2
        for path in files:
            runlog = RunLog.load(path)
            assert runlog.meta["scenario"] == "unicast-reference"

    def test_multicell_record_saves_every_cell(self, tmp_path, capsys):
        path = tmp_path / "cells.npz"
        code = main(
            [
                "multicell",
                "--devices",
                "60",
                "--cells",
                "3",
                "--record",
                str(path),
            ]
        )
        assert code == 0
        runlog = RunLog.load(path)
        assert len(runlog.cells) == 3
        assert int(runlog.meta["n_cells"]) == 3

    def test_multicell_record_replays_to_live_metrics(self, tmp_path, capsys):
        path = tmp_path / "f.npz"
        code = main(
            ["multicell", "--devices", "60", "--cells", "3", "--record", str(path)]
        )
        assert code == 0
        # The verb's defaults: dr-sc, a 1 MB image, seed 2018, one run.
        spec = ScenarioSpec(
            name="multicell",
            n_devices=60,
            cells=MultiCellSpec(n_cells=3),
            n_runs=1,
            seed=2018,
        )
        live = record_run(spec)
        logged = RunLog.load(path)
        assert logged.meta["fingerprint"] == spec.fingerprint()
        assert diff_runlogs(logged, live.runlog).is_empty
        metrics = runlog_headline_metrics(logged)
        assert metrics == {name: live.metrics[name] for name in metrics}
        assert metrics["segments_sent"] > 0


def _run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


class TestCliErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("multicell", "--cells", "3", "--weights", "0.5,0.5"),
                "error: 2 cell weights for 3 cells",
            ),
            (
                ("scenarios", "run", "--scenario", "nope"),
                "error: unknown scenario 'nope'",
            ),
            (
                ("figures", "--device-counts", "x"),
                "error: --device-counts must be a comma list of ints",
            ),
            (
                ("multicell", "--weights", "abc"),
                "error: --weights must be a comma list of floats",
            ),
            (
                ("scenarios", "run"),
                "error: select scenarios with --scenario NAME",
            ),
        ],
    )
    def test_bad_input_is_one_line_exit_2(self, argv, message):
        done = _run_cli(*argv)
        assert done.returncode == 2
        assert done.stderr.startswith(message)
        assert "Traceback" not in done.stderr
        assert done.stdout == ""
