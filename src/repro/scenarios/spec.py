"""The declarative scenario specification.

A :class:`ScenarioSpec` names everything one simulated deployment
regime needs — fleet shape (size, traffic mixture, coverage-class mix),
radio stress (random-access collision probability, segment-loss/repair
regime) and campaign shape (mechanism, payload, inactivity timer,
Monte-Carlo runs and seed) — as one frozen, picklable dataclass. Specs
cross the fused pool's process boundaries intact, fingerprint stably for the result
cache, and derive variants with :meth:`ScenarioSpec.with_overrides`
(the sweep runner's expansion primitive).

Traffic mixtures are referenced *by name* (resolved through
:func:`repro.traffic.mixture_by_name`): a string survives pickling and
keeps the spec's fingerprint independent of mixture object identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from repro.core.base import PlanningContext
from repro.devices.battery import Battery
from repro.grouping.registry import grouping_policy_factory
from repro.enb.cell import CellConfig
from repro.errors import ConfigurationError
from repro.multicast.coordination import MultiCellSpec
from repro.multicast.payload import DEFAULT_SEGMENT_BYTES, FirmwareImage
from repro.multicast.reliability import ReliabilityConfig
from repro.rrc.procedures import ProcedureTimings
from repro.rrc.random_access import RandomAccessModel
from repro.sim.cache import fingerprint
from repro.timebase import seconds_to_frames
from repro.traffic.generator import CoverageMix
from repro.traffic.mixtures import TrafficMixture, mixture_by_name


@dataclass(frozen=True)
class ScenarioSpec:
    """One named deployment/stress regime, declaratively.

    Attributes:
        name: registry key (kebab-case).
        description: one-line human summary shown by ``scenarios list``.
        n_devices: fleet size sampled per run.
        mixture: traffic-mixture name (see :data:`repro.traffic.MIXTURES`).
        coverage: coverage-class shares of the fleet.
        mechanism: grouping mechanism name (``dr-sc``/``da-sc``/``dr-si``/
            ``unicast``, or any name added via
            :func:`repro.core.registry.register_mechanism`).
        grouping: grouping-policy name (see
            :data:`repro.grouping.GROUPING_POLICIES`), or None for the
            mechanism's own default (greedy cover for ``dr-sc``, a
            single fleet-wide group for ``da-sc``/``dr-si``) — the
            bit-identical paper semantics.
        payload_bytes: firmware image size delivered per campaign.
        inactivity_timer_s: the TI window length.
        ra_collision_probability: per-attempt RACH collision probability
            (0 = the paper's contention-free evaluation).
        ra_backoff_s: mean exponential backoff between RACH retries.
        ra_max_attempts: RACH give-up bound.
        segment_loss_probability: per-device per-segment loss rate for
            the NACK-driven repair model (0 = lossless).
        max_repair_rounds: repair-round give-up bound.
        segment_bytes: link-layer segment size.
        cells: multi-cell deployment shape (cell count plus optional
            non-uniform attachment weights); the default single cell
            reproduces the paper's evaluation.
        n_runs: Monte-Carlo repetitions.
        seed: root seed (children spawned per run).
        battery_mah: battery capacity behind the energy-drain metric.
        record_events: emit a columnar event log per (run, cell) — see
            :mod:`repro.sim.eventlog`. Observability only: excluded
            from the fingerprint, since recording never changes what a
            run computes.
    """

    name: str
    description: str = ""
    n_devices: int = 200
    mixture: str = "paper-default"
    coverage: CoverageMix = CoverageMix()
    mechanism: str = "dr-sc"
    grouping: Optional[str] = None
    payload_bytes: int = 1_000_000
    inactivity_timer_s: float = 20.48
    ra_collision_probability: float = 0.0
    ra_backoff_s: float = 0.25
    ra_max_attempts: int = 10
    segment_loss_probability: float = 0.0
    max_repair_rounds: int = 10
    segment_bytes: int = DEFAULT_SEGMENT_BYTES
    cells: MultiCellSpec = MultiCellSpec()
    n_runs: int = 20
    seed: int = 2018
    battery_mah: float = 5000.0
    record_events: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a scenario needs a non-empty name")
        if self.n_devices < 1:
            raise ConfigurationError(
                f"n_devices must be >= 1, got {self.n_devices}"
            )
        # Route both names through the registries, so dynamically
        # registered mechanisms and grouping policies validate too —
        # and instantiate the pairing, so an incompatible combination
        # (e.g. dr-sc x single-group) fails at spec creation rather
        # than deep inside a sweep's Monte-Carlo worker.
        self.mechanism_obj()  # raises on unknown names / bad pairings
        mixture_by_name(self.mixture)  # raises on unknown names
        if self.payload_bytes < 1:
            raise ConfigurationError(
                f"payload must be >= 1 byte, got {self.payload_bytes}"
            )
        if self.inactivity_timer_s <= 0:
            raise ConfigurationError(
                f"TI must be positive, got {self.inactivity_timer_s}"
            )
        if self.n_runs < 1:
            raise ConfigurationError(f"n_runs must be >= 1, got {self.n_runs}")
        if not isinstance(self.cells, MultiCellSpec):
            raise ConfigurationError(
                f"cells must be a MultiCellSpec, got {self.cells!r}"
            )
        # The RA / reliability sub-models re-validate their own ranges.
        self.timings()
        self.reliability()
        Battery(capacity_mah=self.battery_mah)

    # ------------------------------------------------------------------
    # Derived model objects
    # ------------------------------------------------------------------
    def mixture_obj(self) -> TrafficMixture:
        """The resolved traffic mixture."""
        return mixture_by_name(self.mixture)

    def grouping_policy(self):
        """The resolved grouping policy (None = mechanism default)."""
        if self.grouping is None:
            return None
        return grouping_policy_factory(self.grouping)()

    def mechanism_obj(self):
        """The mechanism instance, carrying this spec's grouping policy."""
        from repro.core.registry import mechanism_by_name

        return mechanism_by_name(self.mechanism, policy=self.grouping_policy())

    def timings(self) -> ProcedureTimings:
        """Control-plane timings with this scenario's RACH stress."""
        return ProcedureTimings(
            random_access=RandomAccessModel(
                collision_probability=self.ra_collision_probability,
                backoff_s=self.ra_backoff_s,
                max_attempts=self.ra_max_attempts,
            )
        )

    def reliability(self) -> ReliabilityConfig:
        """The segment-loss/repair regime."""
        return ReliabilityConfig(
            segment_bytes=self.segment_bytes,
            segment_loss_probability=self.segment_loss_probability,
            max_rounds=self.max_repair_rounds,
        )

    def battery(self) -> Battery:
        """The battery behind the energy-drain metric."""
        return Battery(capacity_mah=self.battery_mah)

    def image(self) -> FirmwareImage:
        """The firmware image a campaign delivers."""
        return FirmwareImage(
            name=f"{self.name}-fw", version="1.0.0", size_bytes=self.payload_bytes
        )

    def cell(self) -> CellConfig:
        """Cell configuration with this scenario's inactivity timer."""
        return CellConfig(
            inactivity_timer_frames=seconds_to_frames(self.inactivity_timer_s)
        )

    def planning_context(self) -> PlanningContext:
        """The planning context campaigns run under."""
        return PlanningContext(
            payload_bytes=self.payload_bytes,
            cell=self.cell(),
            timings=self.timings(),
        )

    # ------------------------------------------------------------------
    # Derivation / identity
    # ------------------------------------------------------------------
    def with_overrides(self, **overrides: Any) -> "ScenarioSpec":
        """A validated copy with ``overrides`` applied (sweep primitive)."""
        unknown = set(overrides) - set(self.__dataclass_fields__)
        if unknown:
            raise ConfigurationError(
                f"unknown scenario fields {sorted(unknown)}; "
                f"available: {sorted(self.__dataclass_fields__)}"
            )
        return replace(self, **overrides)

    def fingerprint(self) -> str:
        """Stable hash of every *semantic* scenario parameter.

        ``record_events`` is excluded: recording is observability, not
        simulation input, so a recorded run shares its cache key — and
        its log is comparable — with the unrecorded run it mirrors.
        """
        fields = {
            name: getattr(self, name)
            for name in self.__dataclass_fields__
            if name != "record_events"
        }
        return fingerprint(fields)

    def summary_fields(self) -> Dict[str, Any]:
        """The fields ``scenarios list`` tabulates."""
        return {
            "devices": self.n_devices,
            "mixture": self.mixture,
            "mechanism": self.mechanism,
            "grouping": self.grouping or "default",
            "payload": self.payload_bytes,
            "collision": self.ra_collision_probability,
            "loss": self.segment_loss_probability,
            "cells": self.cells.n_cells,
            "runs": self.n_runs,
        }
