"""nbiot-groupcast: device grouping for efficient NB-IoT multicast.

A full reproduction of G. Tsoukaneri and M. K. Marina, *On Device
Grouping for Efficient Multicast Communications in Narrowband-IoT*,
IEEE ICDCS 2018 — the three grouping mechanisms (DR-SC, DA-SC, DR-SI),
every substrate they stand on (DRX/eDRX paging, RRC procedures, an
NB-IoT PHY timing model, energy accounting, a vectorised campaign
executor with a replayable event log), and the experiment harness
regenerating the paper's figures.

Quickstart::

    import numpy as np
    from repro import (
        DaScMechanism, FirmwareImage, OnDemandMulticastService,
        PAPER_DEFAULT_MIXTURE, generate_fleet,
    )

    rng = np.random.default_rng(7)
    fleet = generate_fleet(500, PAPER_DEFAULT_MIXTURE, rng)
    service = OnDemandMulticastService(mechanism=DaScMechanism())
    image = FirmwareImage(name="meter-fw", version="3.1.4", size_bytes=1_000_000)
    print(service.deliver(fleet, image, rng=rng).summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results.
"""

from repro._version import __version__
from repro.core import (
    AdaptationStrategy,
    DaScMechanism,
    DeviceDirective,
    DrScMechanism,
    DrSiMechanism,
    GroupingMechanism,
    MECHANISMS,
    MulticastPlan,
    PlanningContext,
    Transmission,
    TransmissionTable,
    UnicastBaseline,
    WakeMethod,
    mechanism_by_name,
)
from repro.devices import Battery, DeviceCategory, DeviceIdentity, Fleet, NbIotDevice
from repro.drx import DrxCycle, FULL_LADDER, NB
from repro.grouping import (
    GROUPING_POLICIES,
    GroupingDecision,
    GroupingPolicy,
    grouping_policy_by_name,
    register_grouping_policy,
)
from repro.enb import CellConfig
from repro.energy import EnergyProfile, PowerState, UptimeLedger
from repro.errors import ReproError
from repro.experiments import ExperimentConfig, run_fig6a, run_fig6b, run_fig7
from repro.multicast import (
    CampaignReport,
    FirmwareImage,
    MultiCellSpec,
    OnDemandMulticastService,
    partition_fleet,
)
from repro.phy import AirtimeModel, CoverageClass
from repro.service import CampaignHandle, CampaignService
from repro.rrc import ProcedureTimings, RandomAccessModel
from repro.scenarios import (
    ScenarioSpec,
    all_scenarios,
    register_scenario,
    run_scenario,
    run_sweep,
    scenario,
)
from repro.sim import (
    CampaignExecutor,
    CampaignResult,
    ResultCache,
)
from repro.traffic import (
    LONG_EDRX_MIXTURE,
    MODERATE_EDRX_MIXTURE,
    PAPER_DEFAULT_MIXTURE,
    SHORT_EDRX_MIXTURE,
    TrafficMixture,
    generate_fleet,
)

__all__ = [
    "__version__",
    # core
    "GroupingMechanism",
    "DrScMechanism",
    "DaScMechanism",
    "AdaptationStrategy",
    "DrSiMechanism",
    "UnicastBaseline",
    "MECHANISMS",
    "mechanism_by_name",
    "MulticastPlan",
    "DeviceDirective",
    "Transmission",
    "TransmissionTable",
    "WakeMethod",
    "PlanningContext",
    # grouping policies
    "GroupingPolicy",
    "GroupingDecision",
    "GROUPING_POLICIES",
    "grouping_policy_by_name",
    "register_grouping_policy",
    # devices / drx
    "DeviceIdentity",
    "DeviceCategory",
    "NbIotDevice",
    "Battery",
    "Fleet",
    "DrxCycle",
    "FULL_LADDER",
    "NB",
    # enb / phy / rrc / energy
    "CellConfig",
    "CoverageClass",
    "AirtimeModel",
    "ProcedureTimings",
    "RandomAccessModel",
    "PowerState",
    "EnergyProfile",
    "UptimeLedger",
    # multicast service
    "OnDemandMulticastService",
    "CampaignReport",
    "FirmwareImage",
    "MultiCellSpec",
    "partition_fleet",
    # live service
    "CampaignService",
    "CampaignHandle",
    # sim
    "CampaignExecutor",
    "CampaignResult",
    "ResultCache",
    # traffic
    "TrafficMixture",
    "PAPER_DEFAULT_MIXTURE",
    "SHORT_EDRX_MIXTURE",
    "MODERATE_EDRX_MIXTURE",
    "LONG_EDRX_MIXTURE",
    "generate_fleet",
    # experiments
    "ExperimentConfig",
    "run_fig6a",
    "run_fig6b",
    "run_fig7",
    # scenarios
    "ScenarioSpec",
    "scenario",
    "all_scenarios",
    "register_scenario",
    "run_scenario",
    "run_sweep",
    # errors
    "ReproError",
]
