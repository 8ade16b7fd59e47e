"""Airtime computation for payloads and control messages.

Everything the uptime evaluation (paper Fig. 6) measures is a sum of
durations: PO monitoring, paging reception, random access, RRC
signalling, waiting for the multicast to start, and the payload
reception itself. :class:`AirtimeModel` centralises those durations so
every mechanism and baseline uses identical timing assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.timebase import bits_of, ms_to_frames


@dataclass(frozen=True)
class AirtimeModel:
    """Durations of the elementary radio operations (milliseconds).

    Attributes:
        po_monitor_ms: listening to one empty paging occasion (NPDCCH
            monitoring without a subsequent page).
        paging_message_ms: receiving a paging message addressed to the
            device (NPDCCH + NPDSCH paging transport block).
        paging_extension_ms: extra airtime of the DR-SI
            ``mltc-transmission`` non-critical extension (device id +
            time-to-multicast fields appended to the page).
        rrc_setup_ms: RRC connection setup signalling after the random
            access (Msg5/SetupComplete exchange).
        rrc_reconfiguration_ms: one RRC Connection Reconfiguration
            round-trip (used by DA-SC to impose and to restore cycles).
        rrc_release_ms: the RRC Connection Release exchange.
    """

    po_monitor_ms: float = 10.0
    paging_message_ms: float = 30.0
    paging_extension_ms: float = 10.0
    rrc_setup_ms: float = 120.0
    rrc_reconfiguration_ms: float = 80.0
    rrc_release_ms: float = 40.0

    def __post_init__(self) -> None:
        for field_name in (
            "po_monitor_ms",
            "paging_message_ms",
            "paging_extension_ms",
            "rrc_setup_ms",
            "rrc_reconfiguration_ms",
            "rrc_release_ms",
        ):
            if getattr(self, field_name) < 0:
                raise ConfigurationError(f"{field_name} must be non-negative")

    # Convenience second-valued views -----------------------------------
    @property
    def po_monitor_s(self) -> float:
        """Empty-PO monitoring duration in seconds."""
        return self.po_monitor_ms / 1000.0

    @property
    def paging_message_s(self) -> float:
        """Addressed paging message reception duration in seconds."""
        return self.paging_message_ms / 1000.0

    @property
    def extended_paging_s(self) -> float:
        """DR-SI extended page duration (base page + extension) in seconds."""
        return (self.paging_message_ms + self.paging_extension_ms) / 1000.0

    @property
    def rrc_setup_s(self) -> float:
        """RRC setup signalling duration in seconds."""
        return self.rrc_setup_ms / 1000.0

    @property
    def rrc_reconfiguration_s(self) -> float:
        """RRC reconfiguration duration in seconds."""
        return self.rrc_reconfiguration_ms / 1000.0

    @property
    def rrc_release_s(self) -> float:
        """RRC release duration in seconds."""
        return self.rrc_release_ms / 1000.0


#: The timing assumptions shared by all experiments unless overridden.
DEFAULT_AIRTIME_MODEL = AirtimeModel()


def payload_airtime_frames(payload_bytes: int, rate_bps: float) -> int:
    """Frames needed to deliver ``payload_bytes`` at ``rate_bps`` (ceiling)."""
    if rate_bps <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate_bps}")
    seconds = bits_of(payload_bytes) / rate_bps
    return max(1, ms_to_frames(seconds * 1000.0))


def payload_airtime_seconds(payload_bytes: int, rate_bps: float) -> float:
    """Seconds needed to deliver ``payload_bytes`` at ``rate_bps``."""
    if rate_bps <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate_bps}")
    return bits_of(payload_bytes) / rate_bps

