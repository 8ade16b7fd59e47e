"""Package-level tests: public API surface and metadata."""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

import repro


class TestPublicApi:
    def test_version_matches_pyproject(self):
        import re

        pyproject = (
            pathlib.Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
        ).read_text()
        declared = re.search(r'^version = "([^"]+)"', pyproject, re.M).group(1)
        assert repro.__version__ == declared

    def test_all_names_resolvable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ exports missing {name}"

    def test_mechanisms_exposed_at_top_level(self):
        assert repro.DrScMechanism().name == "dr-sc"
        assert repro.DaScMechanism().name == "da-sc"
        assert repro.DrSiMechanism().name == "dr-si"
        assert repro.UnicastBaseline().name == "unicast"

    def test_registry_covers_all_top_level_mechanisms(self):
        assert set(repro.MECHANISMS) == {"dr-sc", "da-sc", "dr-si", "unicast"}

    def test_subpackages_importable(self):
        for module in (
            "repro.timebase",
            "repro.drx",
            "repro.devices",
            "repro.energy",
            "repro.phy",
            "repro.rrc",
            "repro.enb",
            "repro.traffic",
            "repro.multicast",
            "repro.setcover",
            "repro.core",
            "repro.sim",
            "repro.experiments",
        ):
            importlib.import_module(module)

    def test_every_error_derives_from_repro_error(self):
        from repro import errors

        for name in errors.__all__:
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_mechanism_trade_off_matrix(self):
        """The paper's Sec. III trade-off table, as code."""
        rows = {
            "dr-sc": (True, True),
            "da-sc": (True, False),
            "dr-si": (False, True),
        }
        for name, (compliant, respects) in rows.items():
            mechanism = repro.mechanism_by_name(name)
            assert mechanism.standards_compliant == compliant
            assert mechanism.respects_preferred_drx == respects


def test_package_ships_no_reference_paths():
    """Each stage has one production path; its oracle lives in tests/."""
    from repro.core import plan
    from repro.enb import scheduler
    from repro.multicast.coordination import partition_fleet, partition_indices
    from repro.setcover.greedy import greedy_window_cover
    from repro.traffic.mixtures import TrafficMixture

    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        text = path.read_text()
        assert 'method="reference"' not in text and "COVER_METHODS" not in text
    assert importlib.util.find_spec("repro.sim.replay") is None
    for function in (greedy_window_cover, partition_indices, partition_fleet):
        assert "method" not in inspect.signature(function).parameters
    moved = {"EventDrivenCampaign", "best_window", "BestWindow"}
    for module in ("repro", "repro.sim", "repro.setcover", "repro.multicast"):
        assert not moved & set(importlib.import_module(module).__all__)
    # The set-system greedy is the exact solver's and the window
    # cover's reference: tests/cover_oracle.py.
    for module in ("repro", "repro.setcover", "repro.setcover.greedy"):
        assert "greedy_set_cover" not in vars(importlib.import_module(module))
    assert not hasattr(TrafficMixture, "sample_reference")
    assert not hasattr(scheduler, "count_overlaps_reference")
    # A plan has one input form, its columns; building them from
    # directive objects is a test helper (tests/plan_oracle.py).
    assert not hasattr(plan.PlanArrays, "from_directives")
    assert "from_directives" not in vars(plan)
    # One paging-occasion rule: the column kernels. The per-device
    # TS 36.304 formula and schedule are their oracle in tests/.
    scalar_paging = {
        "paging_frame_offset",
        "paging_subframe",
        "pattern_for",
        "PagingOccasionPattern",
        "PoSchedule",
        "DrxConfig",
    }
    for module in ("repro", "repro.drx", "repro.drx.paging", "repro.drx.schedule"):
        namespace = vars(importlib.import_module(module))
        assert not scalar_paging & set(namespace), module
    assert importlib.util.find_spec("repro.drx.config") is None
    # The discrete-event engine is the replay oracle's
    # (tests/engine_oracle.py) and the closed-form models are the
    # tests' cross-checks (tests/theory_oracle.py, tests/fig7_oracle.py);
    # the live service keeps its own frame clock.
    assert importlib.util.find_spec("repro.sim.engine") is None
    assert importlib.util.find_spec("repro.analysis") is None
    for module in ("repro", "repro.sim"):
        exported = set(importlib.import_module(module).__all__)
        assert not {"Simulator", "Event"} & exported, module
    from repro.sim import events

    assert not hasattr(events, "Event")
    # Names no run calls are gone with their tests.
    from repro.devices.fleet import Fleet
    from repro.drx.cycles import DrxCycle
    from repro.enb.cell import CellConfig
    from repro.enb.scheduler import UtilizationReport
    from repro.rrc.random_access import RandomAccessModel
    from repro.sim.eventlog import EventLog
    from repro.timebase import frames as timebase_frames

    removed = {
        timebase_frames: {
            "sfn_of",
            "hyperframe_of",
            "subframe_count",
            "frame_containing_ms",
            "frames_to_ms",
            "validate_frame",
            "SFN_PERIOD",
        },
        DrxCycle: {
            "is_edrx",
            "is_lte_drx",
            "is_nbiot_idle_drx",
            "halvings_to",
            "largest_at_most",
            "smallest_at_least",
        },
        Fleet: {"min_cycle"},
        EventLog: {"for_device"},
        UtilizationReport: {"feasible_on_single_carrier"},
        CellConfig: {"with_inactivity_timer"},
        TrafficMixture: {"mean_inverse_cycle_s"},
        RandomAccessModel: {"expected_duration_s"},
    }
    for owner, names in removed.items():
        assert not {name for name in names if hasattr(owner, name)}, owner
    assert not removed[timebase_frames] & set(repro.timebase.__all__)
