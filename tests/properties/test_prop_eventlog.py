"""Property-based invariants on recorded event logs.

Runs the mechanism x grouping-policy grid over hypothesis-drawn fleets
and checks structural invariants every well-formed log must satisfy,
plus the STRICT-replay contract (the rebuilt result is bit-identical to
the live one) and cross-emitter agreement (the columnar executor and
the event-driven replay narrate the same campaign).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from executor_oracle import EventDrivenCampaign

from repro.core import DaScMechanism, DrScMechanism, DrSiMechanism
from repro.core.base import PlanningContext
from repro.grouping import grouping_policy_by_name
from repro.sim.eventlog import (
    EventLogRecorder,
    canonical_order,
    compare_results,
    replay_strict,
)
from repro.sim.events import EventKind
from repro.sim.executor import CampaignExecutor
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import MODERATE_EDRX_MIXTURE

#: Each mechanism with two grouping policies it accepts.
GRID = [
    (DrScMechanism, ("greedy-cover", "coverage-stratified")),
    (DaScMechanism, ("single-group", "collision-aware")),
    (DrSiMechanism, ("single-group", "random")),
]

PAGE_KINDS = (
    EventKind.PAGE,
    EventKind.EXTENDED_PAGE,
    EventKind.ADAPTATION_PAGE,
)


def _grid_plans(n, seed):
    rng = np.random.default_rng(seed)
    fleet = generate_fleet(n, MODERATE_EDRX_MIXTURE, rng)
    context = PlanningContext(payload_bytes=50_000)
    for mechanism_cls, policy_names in GRID:
        for policy_name in policy_names:
            mechanism = mechanism_cls(
                policy=grouping_policy_by_name(policy_name)
            )
            yield fleet, mechanism.plan(fleet, context, rng)


def _recorded(fleet, plan):
    recorder = EventLogRecorder()
    result = CampaignExecutor().execute(fleet, plan, recorder=recorder)
    return result, recorder.finalize(cell=0)


class TestLogInvariants:
    @given(
        st.integers(min_value=4, max_value=12),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_structure_across_mechanism_policy_grid(self, n, seed):
        for fleet, plan in _grid_plans(n, seed):
            result, log = _recorded(fleet, plan)
            events = log.events
            announce = int(log.meta["announce_frame"])
            n_devices = int(log.meta["n_devices"])
            n_tx = int(log.meta["n_transmissions"])
            assert n_devices == len(fleet)
            assert n_tx == len(plan.transmissions)

            # Finalised logs are already in canonical order.
            assert np.array_equal(
                canonical_order(events), np.arange(events.size)
            )

            # PO monitoring starts at the announce frame; nothing is
            # paged before the campaign is announced.
            po = log.of_kind(EventKind.PO_MONITOR)
            assert po.size == n_devices
            assert np.all(po["frame"] == announce)
            assert np.all(po["a"] >= 0.0)
            for kind in PAGE_KINDS:
                assert np.all(log.of_kind(kind)["frame"] >= announce)

            # Exactly one TX_START/TX_END pair per transmission, the
            # end never precedes the start, and starts never precede
            # the nominal schedule.
            starts = log.of_kind(EventKind.TX_START)
            ends = log.of_kind(EventKind.TX_END)
            assert sorted(starts["group"]) == list(range(n_tx))
            assert sorted(ends["group"]) == list(range(n_tx))
            for tx in plan.transmissions:
                start = starts[starts["group"] == tx.index][0]
                end = ends[ends["group"] == tx.index][0]
                assert start["frame"] == tx.frame
                assert end["frame"] >= start["frame"]
                assert start["a"] >= tx.frame * 0.010 - 1e-12
                assert start["b"] == tx.rate_bps

            # Per device: one CONNECTION_READY, then one DEVICE_DONE.
            ready = log.of_kind(EventKind.CONNECTION_READY)
            done = log.of_kind(EventKind.DEVICE_DONE)
            assert sorted(ready["device"]) == list(range(n_devices))
            assert sorted(done["device"]) == list(range(n_devices))
            for device in range(n_devices):
                r = ready[ready["device"] == device][0]
                d = done[done["device"] == device][0]
                assert d["frame"] >= r["frame"]
                assert d["a"] >= 0.0  # wait
                assert d["b"] > 0.0  # rx charge

            # REPAIR_ROUND is log-only; executors never emit it.
            assert log.of_kind(EventKind.REPAIR_ROUND).size == 0

    @given(
        st.integers(min_value=4, max_value=10),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=8, deadline=None)
    def test_strict_replay_is_bit_identical(self, n, seed):
        for fleet, plan in _grid_plans(n, seed):
            result, log = _recorded(fleet, plan)
            assert compare_results(result, replay_strict(log)) == []


class TestCrossEmitterAgreement:
    @given(
        st.integers(min_value=4, max_value=10),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=6, deadline=None)
    def test_columnar_and_replay_tell_the_same_story(self, n, seed):
        """Both emitters agree on the discrete structure of the run
        (which device saw which event at which frame) and on payload
        values to within float-reduction noise."""
        for fleet, plan in _grid_plans(n, seed):
            _, columnar_log = _recorded(fleet, plan)
            recorder = EventLogRecorder()
            result = EventDrivenCampaign(fleet, plan, recorder=recorder).run()
            replay_log = recorder.finalize(cell=0)

            assert replay_log.meta["emitter"] == "replay"
            assert columnar_log.meta["emitter"] == "columnar"
            a, b = columnar_log.events, replay_log.events
            assert a.size == b.size
            for field in ("frame", "device", "kind", "cell", "group"):
                np.testing.assert_array_equal(
                    a[field], b[field], err_msg=f"field {field!r} diverges"
                )
            np.testing.assert_allclose(a["a"], b["a"], atol=1e-9)
            np.testing.assert_allclose(a["b"], b["b"], atol=1e-9)

            # And each emitter's log STRICT-replays to its own live
            # result, bit for bit.
            assert compare_results(result, replay_strict(replay_log)) == []
