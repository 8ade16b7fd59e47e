"""The event log's vocabulary."""

from __future__ import annotations

from enum import Enum


class EventKind(Enum):
    """Kinds of events the event log records (its integer codes are
    :data:`repro.sim.eventlog.KIND_CODES`)."""

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
