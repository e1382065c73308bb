"""The fleet availability report.

Folds per-region experiment results into the operational summary a
fleet operator actually reads after a chaos campaign: per-region
availability over time (bucketed), fleet-wide availability, failover
counts, and session churn attributable to evictions — the quantities
the ISSUE's acceptance bar ("dip bounded, fully recovered") is stated
in.  ``render()`` emits the plain-text artifact the CI fleet job
uploads.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

from ..errors import MeasurementError
from ..measure.metrics import AvailabilitySeries, merge_series


@dataclass(frozen=True)
class RegionReport:
    """One region's slice of a campaign."""

    region: str
    series: AvailabilitySeries
    completed: int
    failed: int
    #: Endpoint-change events seen by this region's domestic proxy.
    failovers: int
    #: Sessions forcibly re-bound to a different PoP.
    remaps: int
    #: Edge-cache counters for this region's front door (zero when the
    #: fleet runs cacheless).
    cache_lookups: int = 0
    cache_hits: int = 0
    transpacific_bytes_avoided: int = 0

    @property
    def attempts(self) -> int:
        return self.completed + self.failed

    @property
    def success_rate(self) -> float:
        return self.completed / self.attempts if self.attempts else 0.0

    @property
    def cache_hit_rate(self) -> float:
        return (self.cache_hits / self.cache_lookups
                if self.cache_lookups else 0.0)


@dataclass(frozen=True)
class FleetReport:
    """A whole campaign, fleet-wide."""

    regions: t.Tuple[RegionReport, ...]
    #: Membership events: (time, verb, endpoint) — evict/reinstate/...
    events: t.Tuple[t.Tuple[float, str, str], ...] = ()
    evictions: int = 0
    reinstatements: int = 0

    @property
    def overall(self) -> AvailabilitySeries:
        if not self.regions:
            raise MeasurementError("fleet report with zero regions")
        return merge_series([region.series for region in self.regions])

    @property
    def total_failovers(self) -> int:
        return sum(region.failovers for region in self.regions)

    @property
    def total_remaps(self) -> int:
        return sum(region.remaps for region in self.regions)

    @property
    def total_cache_lookups(self) -> int:
        return sum(region.cache_lookups for region in self.regions)

    @property
    def total_cache_hits(self) -> int:
        return sum(region.cache_hits for region in self.regions)

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.total_cache_lookups
        return self.total_cache_hits / lookups if lookups else 0.0

    @property
    def total_transpacific_avoided(self) -> int:
        return sum(region.transpacific_bytes_avoided
                   for region in self.regions)

    def availability_dip(self) -> float:
        """The fleet-wide series' dip (:meth:`AvailabilitySeries.dip`)."""
        return self.overall.dip()

    def recovered(self) -> bool:
        """Did the fleet-wide series recover
        (:meth:`AvailabilitySeries.recovered`)?"""
        return self.overall.recovered()

    def render(self) -> str:
        """The plain-text artifact: one block per region, then the fleet."""
        lines: t.List[str] = ["fleet availability report", ""]
        for region in self.regions:
            line = (
                f"region {region.region}: {region.completed}/"
                f"{region.attempts} ({region.success_rate:.1%}), "
                f"failovers={region.failovers} remaps={region.remaps}")
            if region.cache_lookups:
                line += (f" cache-hit-rate={region.cache_hit_rate:.1%}"
                         f" avoided={region.transpacific_bytes_avoided}B")
            lines.append(line)
            lines.append(f"  {region.series}")
        lines.append("")
        lines.append(
            f"fleet: dip={self.availability_dip() * 100:.1f}pt "
            f"recovered={self.recovered()} "
            f"failovers={self.total_failovers} remaps={self.total_remaps} "
            f"evictions={self.evictions} reinstatements={self.reinstatements}")
        if self.total_cache_lookups:
            lines.append(
                f"  cache: hit-rate={self.cache_hit_rate:.1%} "
                f"({self.total_cache_hits}/{self.total_cache_lookups}) "
                f"transpacific-avoided={self.total_transpacific_avoided}B")
        lines.append(f"  {self.overall}")
        if self.events:
            lines.append("")
            lines.append("membership events:")
            for when, verb, endpoint in self.events:
                lines.append(f"  {when:10.3f}s {verb:>10} {endpoint}")
        return "\n".join(lines) + "\n"
