"""Multi-region proxy fleet: regions, routing, chaos, and reports.

The robustness layer that takes the paper's single-vantage deployment
to fleet scale: N domestic regions (each behind its own divergent
:class:`~repro.gfw.GreatFirewall` instance) sharing M remote PoPs,
with rendezvous-hashed sticky session routing, a probe-driven failure
detector, fleet-scale chaos campaigns, session survival across a
regional blackout, and the availability report that grades them.
"""

from .chaos import FleetInjector, FleetSchedule
from .proxy import ProxyFleet, RegionEntrypoint
from .regions import (
    DEFAULT_REGIONS,
    RegionSpec,
    default_fleet_regions,
    region_by_name,
    region_gfw_config,
    region_policy,
)
from .report import FleetReport, RegionReport
from .router import ACTIVE, DOWN, FailureDetector, SessionRouter
from .survival import (
    SurvivalCampaignResult,
    SurvivalCoordinator,
    SurvivalEvent,
    SurvivalSession,
    run_survival_campaign,
    survival_document,
)
from .sweep import (
    FleetRegionResult,
    aggregate_fleet,
    fleet_points,
    fleet_sweep,
    run_fleet_region_point,
)
from .testbed import FleetTestbed, Region
from .verifier import InvariantResult, SurvivalVerifier, VerifierReport

__all__ = [
    "ACTIVE",
    "DEFAULT_REGIONS",
    "DOWN",
    "FailureDetector",
    "FleetInjector",
    "FleetRegionResult",
    "FleetReport",
    "FleetSchedule",
    "FleetTestbed",
    "InvariantResult",
    "ProxyFleet",
    "Region",
    "RegionEntrypoint",
    "RegionReport",
    "RegionSpec",
    "SessionRouter",
    "SurvivalCampaignResult",
    "SurvivalCoordinator",
    "SurvivalEvent",
    "SurvivalSession",
    "SurvivalVerifier",
    "VerifierReport",
    "aggregate_fleet",
    "default_fleet_regions",
    "fleet_points",
    "fleet_sweep",
    "region_by_name",
    "region_gfw_config",
    "region_policy",
    "run_fleet_region_point",
    "run_survival_campaign",
    "survival_document",
]
