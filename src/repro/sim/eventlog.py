"""Columnar event log: record, STRICT replay, and structural diff.

Both campaign executors — the vectorised columnar executor and the
event-driven replay — can optionally emit a compact, columnar event
log: one structured-numpy row per
semantic event (paging, adaptation, readiness, transmission bounds,
device completion, repair rounds). The log is keyed by the scenario
fingerprint, the Monte-Carlo seed and the cell id, and a whole run
(all cells) serialises to a single ``.npz`` file.

Three consumers sit on top of the raw array:

* :func:`replay_strict` — the **STRICT** replayer: reconstructs a full
  :class:`~repro.sim.metrics.CampaignResult` (per-device ledgers,
  readiness/wait/update times, realised starts) from the log alone,
  with **no re-simulation**. The reconstruction applies the recorded
  durations in exactly the float-fold order of the live executors, so
  the rebuilt result is *bit-identical* to the live one — asserted by
  :func:`compare_results` returning no findings.
* :func:`diff_logs` / :func:`diff_runlogs` — the structural diff
  engine behind the ``runs diff`` CLI verb: first diverging event,
  per-kind count deltas and per-device event-count deltas, plus run
  metadata drift (seed, fingerprint, horizon).
* invariant checks in the property-test suite (time ordering,
  TX_START/TX_END pairing, no page before the announce frame).

The STRICT/REEXECUTE split follows the replay-engine pattern of
append-only agent logs: STRICT trusts only the evidence in the log;
re-execution (``repro.sim.replay``) remains available when fresh
stochastic draws are wanted.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.energy.ledger import STATE_ORDER, LedgerArray
from repro.energy.profiles import DEFAULT_PROFILE, EnergyProfile
from repro.energy.states import PowerState, StateGroup
from repro.errors import SimulationError
from repro.sim.events import EventKind
from repro.sim.metrics import CampaignResult, FleetOutcomes
from repro.timebase import frames_to_seconds

#: Bumped whenever the row dtype or the meta contract changes.
SCHEMA_VERSION = 1

#: One row per event. ``a``/``b`` are kind-specific payload fields:
#:
#: ==================  ===========================  =======================
#: kind                ``a``                        ``b``
#: ==================  ===========================  =======================
#: PO_MONITOR          idle POs monitored (count)   —
#: ADAPTATION_PAGE     episode duration (s)         base RA duration (s)
#: PAGE                page rx duration (s)         —
#: EXTENDED_PAGE       page rx duration (s)         —
#: T322_EXPIRY         —                            —
#: CONNECTION_READY    main RA duration (s)         ready time (s)
#: DEVICE_DONE         connected wait (s)           payload rx charge (s)
#: TX_START            realised start (s)           bearer rate (bit/s)
#: TX_END              delivery end (s)             —
#: RA_ATTEMPT          preamble attempts (count)    RA duration (s)
#: REPAIR_ROUND        segments sent this round     round number (1-based)
#: SEGMENT_LOSS        missing (dev, seg) pairs     round number (1-based)
#: CAMPAIGN_SUBMIT     member count                 transmission count
#: CAMPAIGN_REVISE     devices joined               devices left
#: CAMPAIGN_ADMIT      transmission index           shift (frames, 0=as asked)
#: CAMPAIGN_DEFER      transmission index           shift (frames)
#: DEVICE_JOIN         —                            —
#: DEVICE_LEAVE        —                            —
#: ==================  ===========================  =======================
#:
#: The six CAMPAIGN_*/DEVICE_* kinds are emitted by the live campaign
#: service (:mod:`repro.service`); ``group`` carries the campaign id.
EVENT_DTYPE = np.dtype(
    [
        ("frame", np.int64),
        ("device", np.int64),
        ("kind", np.uint8),
        ("cell", np.int32),
        ("group", np.int32),
        ("a", np.float64),
        ("b", np.float64),
    ]
)

#: Stable integer code of each :class:`EventKind` inside the log.
KIND_CODES: Dict[EventKind, int] = {
    EventKind.PO_MONITOR: 1,
    EventKind.ADAPTATION_PAGE: 2,
    EventKind.PAGE: 3,
    EventKind.EXTENDED_PAGE: 4,
    EventKind.T322_EXPIRY: 5,
    EventKind.CONNECTION_READY: 6,
    EventKind.TX_START: 7,
    EventKind.TX_END: 8,
    EventKind.DEVICE_DONE: 9,
    EventKind.REPAIR_ROUND: 10,
    EventKind.CAMPAIGN_SUBMIT: 11,
    EventKind.CAMPAIGN_REVISE: 12,
    EventKind.CAMPAIGN_ADMIT: 13,
    EventKind.CAMPAIGN_DEFER: 14,
    EventKind.DEVICE_JOIN: 15,
    EventKind.DEVICE_LEAVE: 16,
    EventKind.RA_ATTEMPT: 17,
    EventKind.SEGMENT_LOSS: 18,
}

CODE_TO_KIND: Dict[int, EventKind] = {code: kind for kind, code in KIND_CODES.items()}

#: Meta keys :func:`replay_strict` refuses to run without.
REQUIRED_META = (
    "schema",
    "emitter",
    "mechanism",
    "n_devices",
    "n_transmissions",
    "payload_bytes",
    "announce_frame",
    "horizon_frames",
    "po_monitor_s",
    "paging_message_s",
    "rrc_setup_s",
    "release_s",
    "restore_s",
)


def canonical_order(events: np.ndarray) -> np.ndarray:
    """Index array sorting events by (frame, device, kind, group).

    The key is a strict total order for every well-formed log (device
    events are unique per (device, kind), transmission events per
    (group, kind), repair rounds per frame), so two logs of the same
    run sort identically regardless of emission order.
    """
    return np.lexsort(
        (events["group"], events["kind"], events["device"], events["frame"])
    )


#: A buffered emission: (kind code, row count, frame, device, group, a,
#: b) where the value columns are scalars or arrays of ``size`` rows.
_Chunk = Tuple[int, int, Any, Any, Any, Any, Any]

_COLUMN_NAMES = ("frame", "device", "group", "a", "b")


def _materialise_chunks(chunks: Sequence[_Chunk], cell: int) -> np.ndarray:
    """Expand buffered chunks into one canonically sorted row array."""
    blocks = []
    for code, size, frame, device, group, a, b in chunks:
        block = np.zeros(size, dtype=EVENT_DTYPE)
        block["kind"] = code
        for name, column in zip(_COLUMN_NAMES, (frame, device, group, a, b)):
            block[name] = column
        blocks.append(block)
    if blocks:
        events = np.concatenate(blocks)
    else:
        events = np.zeros(0, dtype=EVENT_DTYPE)
    events["cell"] = cell
    return events[canonical_order(events)]


class EventLogRecorder:
    """Accumulates event rows and metadata during one campaign.

    The executors call :meth:`emit` (scalar, the event-driven replay)
    or :meth:`emit_block` (whole-fleet arrays, columnar path); the orchestrator calls :meth:`finalize`
    once to obtain the sealed :class:`EventLog`.

    Recording is designed to be almost free next to execution: both
    emit paths only buffer references to the columns the executor
    already computed (callers must not mutate emitted arrays
    afterwards), and the structured row array is materialised lazily on
    the log's first read — never inside the recorded run's hot path.
    """

    __slots__ = ("_chunks", "_n", "meta")

    def __init__(self) -> None:
        self._chunks: List[_Chunk] = []
        self._n = 0
        self.meta: Dict[str, Any] = {"schema": SCHEMA_VERSION}

    def set_meta(self, **fields: Any) -> None:
        """Merge ``fields`` into the log metadata."""
        self.meta.update(fields)

    def emit(
        self,
        kind: EventKind,
        frame: int,
        device: int = -1,
        group: int = -1,
        a: float = 0.0,
        b: float = 0.0,
    ) -> None:
        """Record one event (scalar path)."""
        self._chunks.append((KIND_CODES[kind], 1, frame, device, group, a, b))
        self._n += 1

    def emit_block(
        self,
        kind: EventKind,
        frame: Any,
        device: Any = -1,
        group: Any = -1,
        a: Any = 0.0,
        b: Any = 0.0,
    ) -> None:
        """Record a block of same-kind events (vectorised path).

        Array arguments broadcast against each other; scalars fill.
        The arrays are buffered by reference, not copied.
        """
        size = max(
            column.size if isinstance(column, np.ndarray) else 1
            for column in (frame, device, group, a, b)
        )
        self._chunks.append((KIND_CODES[kind], size, frame, device, group, a, b))
        self._n += size

    def finalize(self, **extra_meta: Any) -> "EventLog":
        """Seal the recording into an :class:`EventLog`.

        The returned log is complete and immutable but *lazy*: the
        canonically sorted row array is built on first access to
        :attr:`EventLog.events`.
        """
        meta = dict(self.meta)
        meta.update(extra_meta)
        return EventLog(meta=meta, _chunks=list(self._chunks), _n=self._n)


class EventLog:
    """One cell's campaign events, canonically sorted, plus metadata.

    Either wraps an already-sorted row array (loading, diffing) or the
    recorder's buffered chunks, in which case :attr:`events` expands
    and sorts them on first read.
    """

    __slots__ = ("_events", "_chunks", "_n", "meta")

    def __init__(
        self,
        events: Optional[np.ndarray] = None,
        meta: Optional[Dict[str, Any]] = None,
        _chunks: Optional[List[_Chunk]] = None,
        _n: int = 0,
    ) -> None:
        self.meta = {} if meta is None else meta
        self._chunks = _chunks
        if events is None and _chunks is None:
            events = np.zeros(0, dtype=EVENT_DTYPE)
        self._events = events
        self._n = _n

    @property
    def events(self) -> np.ndarray:
        """The canonically sorted row array (materialised on demand)."""
        if self._events is None:
            self._events = _materialise_chunks(
                self._chunks or (), int(self.meta.get("cell", 0))
            )
            self._chunks = None
        return self._events

    @property
    def n_events(self) -> int:
        """Number of recorded events."""
        if self._events is None:
            return self._n
        return int(self._events.size)

    def of_kind(self, kind: EventKind) -> np.ndarray:
        """All rows of ``kind`` (a filtered copy, canonical order)."""
        return self.events[self.events["kind"] == KIND_CODES[kind]]

    def for_device(self, device: int) -> np.ndarray:
        """All rows concerning fleet index ``device``."""
        return self.events[self.events["device"] == device]

    def counts_by_kind(self) -> Dict[str, int]:
        """Event count per kind name (only kinds that occur)."""
        codes, counts = np.unique(self.events["kind"], return_counts=True)
        return {
            CODE_TO_KIND[int(code)].value: int(count)
            for code, count in zip(codes, counts)
        }

    def with_appended(self, rows: np.ndarray) -> "EventLog":
        """A new log with ``rows`` merged in (re-sorted canonically)."""
        rows = np.asarray(rows, dtype=EVENT_DTYPE)
        rows = rows.copy()
        rows["cell"] = int(self.meta.get("cell", 0))
        events = np.concatenate([self.events, rows])
        events = events[canonical_order(events)]
        return EventLog(events=events, meta=dict(self.meta))


def repair_round_rows(
    segments_per_round: Sequence[int], horizon_frames: int
) -> np.ndarray:
    """REPAIR_ROUND rows appended after the radio horizon.

    Application-layer repair happens outside the radio timeline, so the
    rounds are logged on synthetic frames past the horizon — one frame
    per round, in order — which keeps the canonical sort meaningful.
    """
    rows = np.zeros(len(segments_per_round), dtype=EVENT_DTYPE)
    rows["kind"] = KIND_CODES[EventKind.REPAIR_ROUND]
    rows["device"] = -1
    rows["group"] = -1
    for i, segments in enumerate(segments_per_round):
        rows["frame"][i] = horizon_frames + 1 + i
        rows["a"][i] = float(segments)
        rows["b"][i] = float(i + 1)
    return rows


def segment_loss_rows(
    missing_per_round: Sequence[int], horizon_frames: int
) -> np.ndarray:
    """SEGMENT_LOSS rows appended after the radio horizon.

    One row per repair round, on the same synthetic frame as that
    round's REPAIR_ROUND row (the kinds disambiguate the canonical
    sort): ``a`` is the number of (device, segment) pairs still missing
    *after* the round — the loss that drives the next round — and ``b``
    the 1-based round number. The last row's ``a`` is the campaign's
    residual miss count (0 unless ``max_rounds`` was hit).
    """
    rows = np.zeros(len(missing_per_round), dtype=EVENT_DTYPE)
    rows["kind"] = KIND_CODES[EventKind.SEGMENT_LOSS]
    rows["device"] = -1
    rows["group"] = -1
    for i, missing in enumerate(missing_per_round):
        rows["frame"][i] = horizon_frames + 1 + i
        rows["a"][i] = float(missing)
        rows["b"][i] = float(i + 1)
    return rows


# ----------------------------------------------------------------------
# Live service metrics: campaign-kind rollup
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LiveMetrics:
    """Rollup of the campaign-service events in a log.

    Computed by :func:`live_metrics` over the six CAMPAIGN_*/DEVICE_*
    kinds the live service emits (``group`` carries the campaign id).

    Attributes:
        campaigns: number of CAMPAIGN_SUBMIT events.
        revisions: number of CAMPAIGN_REVISE events.
        devices_joined: total devices that joined mid-campaign.
        devices_left: total devices that left mid-campaign.
        windows_admitted: windows the arbiter admitted (ADMIT events,
            including deferred ones).
        windows_deferred: admitted windows that were shifted (DEFER).
        total_defer_frames: summed shift over all deferred windows.
        per_campaign: campaign id -> per-kind event counts.
    """

    campaigns: int
    revisions: int
    devices_joined: int
    devices_left: int
    windows_admitted: int
    windows_deferred: int
    total_defer_frames: int
    per_campaign: Dict[int, Dict[str, int]]

    @property
    def churn(self) -> int:
        """Total membership changes (joins + leaves)."""
        return self.devices_joined + self.devices_left


def live_metrics(log: Union["EventLog", np.ndarray]) -> LiveMetrics:
    """Summarise the campaign-service activity recorded in ``log``.

    Accepts an :class:`EventLog` or a raw row array. Logs written by the
    batch pipeline contain no service kinds and roll up to all-zeros.
    """
    events = log.events if isinstance(log, EventLog) else np.asarray(log)
    service_codes = {
        KIND_CODES[kind]: kind
        for kind in (
            EventKind.CAMPAIGN_SUBMIT,
            EventKind.CAMPAIGN_REVISE,
            EventKind.CAMPAIGN_ADMIT,
            EventKind.CAMPAIGN_DEFER,
            EventKind.DEVICE_JOIN,
            EventKind.DEVICE_LEAVE,
        )
    }
    per_campaign: Dict[int, Dict[str, int]] = {}
    revise_rows = events[
        events["kind"] == KIND_CODES[EventKind.CAMPAIGN_REVISE]
    ]
    defer_rows = events[events["kind"] == KIND_CODES[EventKind.CAMPAIGN_DEFER]]
    for row in events:
        kind = service_codes.get(int(row["kind"]))
        if kind is None:
            continue
        counters = per_campaign.setdefault(int(row["group"]), {})
        counters[kind.value] = counters.get(kind.value, 0) + 1
    return LiveMetrics(
        campaigns=int(
            np.count_nonzero(
                events["kind"] == KIND_CODES[EventKind.CAMPAIGN_SUBMIT]
            )
        ),
        revisions=int(revise_rows.size),
        devices_joined=int(revise_rows["a"].sum()),
        devices_left=int(revise_rows["b"].sum()),
        windows_admitted=int(
            np.count_nonzero(
                events["kind"] == KIND_CODES[EventKind.CAMPAIGN_ADMIT]
            )
        ),
        windows_deferred=int(defer_rows.size),
        total_defer_frames=int(defer_rows["b"].sum()),
        per_campaign=per_campaign,
    )


# ----------------------------------------------------------------------
# STRICT replay: log -> CampaignResult, no re-simulation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LogPlanSummary:
    """The slice of a plan a log preserves (duck-types ``MulticastPlan``
    where :class:`~repro.sim.metrics.CampaignResult` needs it)."""

    mechanism: str
    n_transmissions: int
    payload_bytes: int
    announce_frame: int


def _require_meta(meta: Mapping[str, Any]) -> None:
    missing = [key for key in REQUIRED_META if key not in meta]
    if missing:
        raise SimulationError(f"event log metadata is missing {missing}")
    if int(meta["schema"]) != SCHEMA_VERSION:
        raise SimulationError(
            f"event log schema {meta['schema']} != supported {SCHEMA_VERSION}"
        )


def _one_per_device(
    rows: np.ndarray, devices: np.ndarray, what: str
) -> np.ndarray:
    """``rows`` sorted by device, validated to cover ``devices`` exactly."""
    order = np.argsort(rows["device"], kind="stable")
    rows = rows[order]
    if not np.array_equal(rows["device"], devices):
        raise SimulationError(f"log is missing {what} events for some devices")
    return rows


def _profile_from_meta(meta: Mapping[str, Any]) -> EnergyProfile:
    spec = meta.get("energy_profile")
    if not spec:
        return DEFAULT_PROFILE
    return EnergyProfile(
        name=str(spec["name"]),
        voltage_v=float(spec["voltage_v"]),
        current_ma={
            PowerState[name]: float(ma) for name, ma in spec["current_ma"].items()
        },
    )


def replay_strict(log: EventLog) -> CampaignResult:
    """Reconstruct the :class:`CampaignResult` from the log alone.

    STRICT contract: nothing is re-simulated and no random numbers are
    drawn; every duration comes from the log (events for per-device
    draws, metadata for deterministic constants). The per-state adds
    replicate the live executors' float-fold order, so the rebuilt
    ledgers, timings and realised starts are bit-identical to the live
    run — not merely close.
    """
    meta = log.meta
    _require_meta(meta)
    horizon = int(meta["horizon_frames"])
    horizon_s = frames_to_seconds(horizon)
    n_tx = int(meta["n_transmissions"])

    tx_start = log.of_kind(EventKind.TX_START)
    tx_end = log.of_kind(EventKind.TX_END)
    if tx_start.size != n_tx or tx_end.size != n_tx:
        raise SimulationError(
            f"log has {tx_start.size} TX_START / {tx_end.size} TX_END events "
            f"for {n_tx} transmissions"
        )
    start_a = tx_start["a"][np.argsort(tx_start["group"], kind="stable")]
    end_a = tx_end["a"][np.argsort(tx_end["group"], kind="stable")]

    done = log.of_kind(EventKind.DEVICE_DONE)
    n = int(done.size)
    if n != int(meta["n_devices"]):
        raise SimulationError(
            f"log has {n} DEVICE_DONE events for {meta['n_devices']} devices"
        )
    done = done[np.argsort(done["device"], kind="stable")]
    devices = done["device"].copy()
    if n and np.any(devices[1:] == devices[:-1]):
        raise SimulationError("log has duplicate DEVICE_DONE events")
    tx_of = done["group"].astype(np.int64)
    wait = done["a"].copy()
    rx = done["b"].copy()

    ready_ev = _one_per_device(
        log.of_kind(EventKind.CONNECTION_READY), devices, "CONNECTION_READY"
    )
    main_ra = ready_ev["a"].copy()
    ready = ready_ev["b"].copy()
    po_ev = _one_per_device(log.of_kind(EventKind.PO_MONITOR), devices, "PO_MONITOR")
    po_count = po_ev["a"].copy()
    pages = np.concatenate(
        [log.of_kind(EventKind.PAGE), log.of_kind(EventKind.EXTENDED_PAGE)]
    )
    pages = _one_per_device(pages, devices, "PAGE/EXTENDED_PAGE")
    page_rx = pages["a"].copy()

    def membership(sub: np.ndarray) -> np.ndarray:
        mask = np.zeros(n, dtype=bool)
        pos = np.searchsorted(devices, sub["device"])
        if np.any(pos >= n) or np.any(devices[pos] != sub["device"]):
            raise SimulationError("log references a device with no DEVICE_DONE")
        mask[pos] = True
        return mask, pos

    adapt = log.of_kind(EventKind.ADAPTATION_PAGE)
    is_da, da_pos = membership(adapt)
    episode = np.zeros(n, dtype=np.float64)
    ra_base = np.zeros(n, dtype=np.float64)
    episode[da_pos] = adapt["a"]
    ra_base[da_pos] = adapt["b"]

    # The add order below mirrors the columnar executor's accumulation
    # (itself float-identical to the reference loop and the replay), so
    # per-state sums reproduce the live ledgers bit for bit.
    pm = float(meta["paging_message_s"])
    ledgers = LedgerArray(n)
    ledgers.add(PowerState.PO_MONITOR, po_count * float(meta["po_monitor_s"]))
    ledgers.add(PowerState.PAGING_RX, page_rx + np.where(is_da, pm, 0.0))
    ledgers.add(PowerState.RANDOM_ACCESS, np.where(is_da, ra_base, 0.0) + main_ra)
    release = float(meta["release_s"])
    tail = np.where(is_da, release + float(meta["restore_s"]), release)
    ledgers.add(
        PowerState.RRC_SIGNALLING,
        (np.where(is_da, episode - ra_base, 0.0) + float(meta["rrc_setup_s"]))
        + tail,
    )
    ledgers.add(PowerState.CONNECTED_WAIT, wait)
    ledgers.add(PowerState.CONNECTED_RX, rx)
    light = ledgers.group_seconds(StateGroup.LIGHT_SLEEP)
    connected = ledgers.group_seconds(StateGroup.CONNECTED)
    ledgers.add(
        PowerState.DEEP_SLEEP, np.maximum(0.0, (horizon_s - light) - connected)
    )
    # The columnar executor's ledgers pass through a fancy-index take()
    # whose output strides steer BLAS's reduction order in energy_mj.
    # An identity take reproduces that layout, so the rebuilt energy sum
    # is bit-identical too — not just the per-state seconds.
    ledgers = ledgers.take(np.arange(n))

    outcomes = FleetOutcomes(
        device_indices=devices,
        transmission_indices=tx_of,
        ledgers=ledgers,
        ready_s=ready,
        wait_s=wait,
        updated_s=end_a[tx_of].copy(),
    )
    plan = LogPlanSummary(
        mechanism=str(meta["mechanism"]),
        n_transmissions=n_tx,
        payload_bytes=int(meta["payload_bytes"]),
        announce_frame=int(meta["announce_frame"]),
    )
    return CampaignResult(
        plan=plan,  # type: ignore[arg-type]  # duck-typed plan summary
        horizon_frames=horizon,
        columnar=outcomes,
        actual_start_s=tuple(float(s) for s in start_a),
        energy_profile=_profile_from_meta(meta),
    )


def compare_results(live: CampaignResult, rebuilt: CampaignResult) -> List[str]:
    """Bit-identity findings between a live result and a STRICT rebuild.

    Returns an empty list when every per-device quantity — ledger
    seconds per power state, readiness, wait, update time — and every
    realised start matches the live run exactly (float equality, not
    tolerance). ``live`` may be row- or columnar-backed.
    """
    findings: List[str] = []
    if live.horizon_frames != rebuilt.horizon_frames:
        findings.append(
            f"horizon {live.horizon_frames} != rebuilt {rebuilt.horizon_frames}"
        )
    if live.actual_start_s != rebuilt.actual_start_s:
        findings.append("realised transmission starts differ")
    reb = rebuilt.columnar
    if reb is None:
        raise SimulationError("rebuilt result must be columnar")
    if live.n_devices != rebuilt.n_devices:
        findings.append(f"{live.n_devices} devices != rebuilt {rebuilt.n_devices}")
        return findings
    live_col = live.columnar
    if live_col is not None:
        for name in ("device_indices", "transmission_indices"):
            if not np.array_equal(getattr(live_col, name), getattr(reb, name)):
                findings.append(f"column {name} differs")
        for name in ("ready_s", "wait_s", "updated_s"):
            bad = int((getattr(live_col, name) != getattr(reb, name)).sum())
            if bad:
                findings.append(f"column {name} differs on {bad} devices")
        for i, state in enumerate(STATE_ORDER):
            bad = int((live_col.ledgers.seconds[i] != reb.ledgers.seconds[i]).sum())
            if bad:
                findings.append(f"ledger {state.name} differs on {bad} devices")
        return findings
    for column, outcome in enumerate(live.outcomes):
        if outcome.device_index != int(reb.device_indices[column]):
            findings.append(f"device order differs at column {column}")
            break
        if outcome.transmission_index != int(reb.transmission_indices[column]):
            findings.append(f"device {outcome.device_index}: transmission differs")
        for name in ("ready_s", "wait_s", "updated_s"):
            if getattr(outcome, name) != float(getattr(reb, name)[column]):
                findings.append(f"device {outcome.device_index}: {name} differs")
        for i, state in enumerate(STATE_ORDER):
            if outcome.ledger.seconds_in(state) != float(reb.ledgers.seconds[i, column]):
                findings.append(
                    f"device {outcome.device_index}: ledger {state.name} differs"
                )
    return findings


# ----------------------------------------------------------------------
# Structural diff
# ----------------------------------------------------------------------
def _render_event(row: np.ndarray) -> str:
    kind = CODE_TO_KIND.get(int(row["kind"]))
    name = kind.value if kind else f"kind#{int(row['kind'])}"
    return (
        f"frame={int(row['frame'])} device={int(row['device'])} "
        f"kind={name} group={int(row['group'])} "
        f"a={float(row['a'])!r} b={float(row['b'])!r}"
    )


@dataclass
class LogDiff:
    """Structural difference between two event logs (one cell each)."""

    n_events: Tuple[int, int]
    first_divergence: Optional[int] = None
    first_events: Tuple[str, str] = ("", "")
    kind_deltas: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    device_deltas: List[Tuple[int, int, int]] = field(default_factory=list)
    meta_notes: List[str] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        """True when the two logs are event-identical (meta may drift)."""
        return (
            self.first_divergence is None
            and self.n_events[0] == self.n_events[1]
        )


#: Meta keys whose drift is worth reporting in a diff.
_DIFF_META_KEYS = (
    "fingerprint",
    "scenario",
    "seed",
    "run_index",
    "cell",
    "mechanism",
    "horizon_frames",
    "announce_frame",
    "n_devices",
    "n_transmissions",
    "payload_bytes",
    "emitter",
)


def _meta_notes(a: Mapping[str, Any], b: Mapping[str, Any]) -> List[str]:
    notes = []
    for key in _DIFF_META_KEYS:
        va, vb = a.get(key), b.get(key)
        if va != vb:
            notes.append(f"meta {key}: {va!r} != {vb!r}")
    return notes


def diff_logs(a: EventLog, b: EventLog) -> LogDiff:
    """Align two logs and report where and how they diverge.

    Events are compared field-exact (floats included: recorded runs are
    bit-reproducible, so any drift is a real behavioural difference) in
    canonical order. The first diverging row is the headline; per-kind
    and per-device count deltas summarise the blast radius.
    """
    ea, eb = a.events, b.events
    diff = LogDiff(n_events=(int(ea.size), int(eb.size)))
    diff.meta_notes = _meta_notes(a.meta, b.meta)

    m = min(ea.size, eb.size)
    pa, pb = ea[:m], eb[:m]
    mismatch = np.zeros(m, dtype=bool)
    for name in ("frame", "device", "kind", "group", "a", "b"):
        mismatch |= pa[name] != pb[name]
    if np.any(mismatch):
        first = int(np.argmax(mismatch))
        diff.first_divergence = first
        diff.first_events = (_render_event(ea[first]), _render_event(eb[first]))
    elif ea.size != eb.size:
        diff.first_divergence = m
        longer = ea if ea.size > eb.size else eb
        rendered = _render_event(longer[m])
        diff.first_events = (
            (rendered, "<no event>") if ea.size > eb.size else ("<no event>", rendered)
        )
    else:
        return diff

    counts_a, counts_b = a.counts_by_kind(), b.counts_by_kind()
    for kind in sorted(set(counts_a) | set(counts_b)):
        ca, cb = counts_a.get(kind, 0), counts_b.get(kind, 0)
        if ca != cb:
            diff.kind_deltas[kind] = (ca, cb)

    def per_device(events: np.ndarray) -> Dict[int, int]:
        rows = events[events["device"] >= 0]
        dev, counts = np.unique(rows["device"], return_counts=True)
        return {int(d): int(c) for d, c in zip(dev, counts)}

    da, db = per_device(ea), per_device(eb)
    for device in sorted(set(da) | set(db)):
        ca, cb = da.get(device, 0), db.get(device, 0)
        if ca != cb:
            diff.device_deltas.append((device, ca, cb))
    return diff


def format_diff(diff: LogDiff, label: str = "") -> str:
    """Human-readable rendering of a :class:`LogDiff`."""
    prefix = f"[{label}] " if label else ""
    lines: List[str] = []
    for note in diff.meta_notes:
        lines.append(f"{prefix}{note}")
    if diff.is_empty:
        lines.append(f"{prefix}events: identical ({diff.n_events[0]} events)")
        return "\n".join(lines)
    lines.append(
        f"{prefix}events: {diff.n_events[0]} vs {diff.n_events[1]}, "
        f"first divergence at row {diff.first_divergence}"
    )
    lines.append(f"{prefix}  a: {diff.first_events[0]}")
    lines.append(f"{prefix}  b: {diff.first_events[1]}")
    for kind, (ca, cb) in diff.kind_deltas.items():
        lines.append(f"{prefix}  kind {kind}: {ca} vs {cb} events")
    shown = diff.device_deltas[:10]
    for device, ca, cb in shown:
        lines.append(f"{prefix}  device {device}: {ca} vs {cb} events")
    hidden = len(diff.device_deltas) - len(shown)
    if hidden > 0:
        lines.append(f"{prefix}  ... {hidden} more devices differ")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Whole-run container (.npz)
# ----------------------------------------------------------------------
_CELL_KEY = re.compile(r"^cell_(\d+)_events$")


def _jsonable(value: Any) -> Any:
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass
class RunLog:
    """All event logs of one Monte-Carlo run, one per cell.

    ``meta`` carries the run key — scenario name, spec fingerprint,
    seed, run index — and serialises with the cell logs into a single
    ``.npz``.
    """

    meta: Dict[str, Any]
    cells: Dict[int, EventLog]

    def save(self, path: Union[str, Path]) -> Path:
        """Write the run to ``path`` (single compressed ``.npz``)."""
        path = Path(path)
        arrays: Dict[str, np.ndarray] = {
            "run_meta": np.array(json.dumps(_jsonable(self.meta)))
        }
        for cell_id in sorted(self.cells):
            log = self.cells[cell_id]
            arrays[f"cell_{cell_id}_events"] = log.events
            arrays[f"cell_{cell_id}_meta"] = np.array(
                json.dumps(_jsonable(log.meta))
            )
        with path.open("wb") as handle:
            np.savez_compressed(handle, **arrays)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunLog":
        """Read a run previously written by :meth:`save`."""
        path = Path(path)
        if not path.exists():
            raise SimulationError(f"no run log at {path}")
        with np.load(path, allow_pickle=False) as data:
            if "run_meta" not in data:
                raise SimulationError(f"{path} is not a recorded run (.npz)")
            meta = json.loads(str(data["run_meta"]))
            cells: Dict[int, EventLog] = {}
            for key in data.files:
                match = _CELL_KEY.match(key)
                if not match:
                    continue
                cell_id = int(match.group(1))
                cell_meta = json.loads(str(data[f"cell_{cell_id}_meta"]))
                events = np.asarray(data[key], dtype=EVENT_DTYPE)
                cells[cell_id] = EventLog(events=events, meta=cell_meta)
        if not cells:
            raise SimulationError(f"{path} contains no cell logs")
        return cls(meta=meta, cells=cells)


@dataclass
class RunLogDiff:
    """Cell-by-cell difference between two recorded runs."""

    meta_notes: List[str] = field(default_factory=list)
    cell_notes: List[str] = field(default_factory=list)
    cell_diffs: Dict[int, LogDiff] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        """True when every shared cell is event-identical and the runs
        cover the same cells (meta drift alone does not count)."""
        return not self.cell_notes and all(
            diff.is_empty for diff in self.cell_diffs.values()
        )


def diff_runlogs(a: RunLog, b: RunLog) -> RunLogDiff:
    """Diff two recorded runs cell by cell."""
    diff = RunLogDiff(meta_notes=_meta_notes(a.meta, b.meta))
    only_a = sorted(set(a.cells) - set(b.cells))
    only_b = sorted(set(b.cells) - set(a.cells))
    if only_a:
        diff.cell_notes.append(f"cells only in a: {only_a}")
    if only_b:
        diff.cell_notes.append(f"cells only in b: {only_b}")
    for cell_id in sorted(set(a.cells) & set(b.cells)):
        diff.cell_diffs[cell_id] = diff_logs(a.cells[cell_id], b.cells[cell_id])
    return diff


def format_runlog_diff(diff: RunLogDiff) -> str:
    """Human-readable rendering of a :class:`RunLogDiff`."""
    lines = list(diff.meta_notes) + list(diff.cell_notes)
    for cell_id in sorted(diff.cell_diffs):
        lines.append(format_diff(diff.cell_diffs[cell_id], label=f"cell {cell_id}"))
    if diff.is_empty:
        lines.append("runs are event-identical")
    return "\n".join(lines)


def profile_meta(profile: EnergyProfile) -> Dict[str, Any]:
    """Serialisable description of an energy profile for the log meta."""
    return {
        "name": profile.name,
        "voltage_v": profile.voltage_v,
        "current_ma": {
            state.name: profile.current_ma[state] for state in PowerState
        },
    }
