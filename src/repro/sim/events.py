"""Typed events for the discrete-event engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, Optional


class EventKind(Enum):
    """Kinds of events the engine schedules and the event log records."""

    PO_MONITOR = "po_monitor"
    """A device wakes to check its paging occasion."""

    PAGE = "page"
    """A paging message addressed to a device arrives at its PO."""

    EXTENDED_PAGE = "extended_page"
    """A DR-SI ``mltc-transmission`` notification arrives at a PO."""

    ADAPTATION_PAGE = "adaptation_page"
    """DA-SC: the page starting the cycle-reconfiguration episode."""

    T322_EXPIRY = "t322_expiry"
    """DR-SI: the wake-up timer fires; the device starts random access."""

    CONNECTION_READY = "connection_ready"
    """Random access + RRC setup finished; device awaits the data."""

    RA_ATTEMPT = "ra_attempt"
    """Log-only: a device's main random-access procedure, with its
    preamble attempt count (collisions = attempts - 1). Emitted only
    when the RA model injects contention."""

    TX_START = "tx_start"
    """A multicast (or unicast) transmission begins."""

    TX_END = "tx_end"
    """The transmission's payload is fully delivered."""

    DEVICE_DONE = "device_done"
    """Log-only: a device finished its campaign (wait/rx settled)."""

    REPAIR_ROUND = "repair_round"
    """Log-only: one application-layer repair round completed."""

    SEGMENT_LOSS = "segment_loss"
    """Log-only: the (device, segment) pairs still missing after one
    repair round — the loss that drives the next round."""

    CAMPAIGN_SUBMIT = "campaign_submit"
    """Service: a campaign was submitted and planned."""

    CAMPAIGN_REVISE = "campaign_revise"
    """Service: an in-flight campaign's plan was revised (join/leave)."""

    CAMPAIGN_ADMIT = "campaign_admit"
    """Service: the capacity arbiter admitted a transmission window."""

    CAMPAIGN_DEFER = "campaign_defer"
    """Service: the arbiter deferred a window past a capacity conflict."""

    DEVICE_JOIN = "device_join"
    """Service: a device joined an in-flight campaign."""

    DEVICE_LEAVE = "device_leave"
    """Service: a device left an in-flight campaign."""

    CAMPAIGN_COMPLETE = "campaign_complete"
    """Sim-internal: a campaign's last window passed (never logged)."""

    SERVICE_TICK = "service_tick"
    """Sim-internal: a sentinel the service awaits to advance the clock
    to a scripted frame (never logged)."""


@dataclass(frozen=True)
class Event:
    """One scheduled event.

    Attributes:
        time_s: simulated time in seconds.
        kind: event type.
        device_index: the device concerned (None for fleet-wide events).
        payload: free-form extra data recorded in the trace.
    """

    time_s: float
    kind: EventKind
    device_index: Optional[int] = None
    payload: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        who = "" if self.device_index is None else f" dev={self.device_index}"
        return f"[{self.time_s:12.3f}s] {self.kind.value}{who}"
