"""Fleet-scale chaos campaigns: faults sized to a multi-region fleet.

Extends :class:`~repro.faults.FaultSchedule` with three fleet-native
fault kinds:

* ``pop-blackout`` — a whole PoP dies (VM crash: listeners vanish,
  established connections abort) and later restarts.  The failure
  detector should evict it, the router should remap only its sessions,
  and reinstatement should restore the membership — the headline
  experiment's mid-sweep event.
* ``regional-escalation`` — one region's firewall escalates (extra
  keywords, scaled interference) while every
  other region's policy is untouched: regional GFW divergence as a
  *fault*, applied and reverted through the firewall's audited path.
* ``region-blackout`` — a region's border link goes down outright for
  a while: the Turkmenistan-style escalation endgame that forces
  sessions to migrate to another region.

The builders only *declare* events; :meth:`FleetSchedule.install` binds
them to a :class:`~repro.fleet.testbed.FleetTestbed` via a
:class:`FleetInjector`, which inherits the base kinds (link faults,
proxy crashes, DNS bursts) so mixed campaigns compose.  A PoP blackout
is a proxy crash with a restart and a region blackout is a link-down,
so both apply through the base handlers under their own kind names.
"""

from __future__ import annotations

import typing as t

from ..errors import FaultError
from ..faults import FaultEvent, FaultInjector, FaultSchedule

if t.TYPE_CHECKING:  # pragma: no cover
    from .testbed import FleetTestbed


class FleetSchedule(FaultSchedule):
    """A fault schedule that also speaks the fleet-scale kinds."""

    # -- builders ---------------------------------------------------------------

    def pop_blackout(self, pop: str, at: float, downtime: float) -> FaultEvent:
        """Kill the named PoP host outright; restart after ``downtime``."""
        if downtime <= 0:
            raise FaultError("pop_blackout needs a positive downtime "
                             "(a PoP that never returns is a decommission)")
        return self.add(FaultEvent(at, "pop-blackout", pop, downtime))

    def regional_escalation(
        self,
        region: str,
        at: float,
        duration: float,
        keywords: t.Sequence[str] = (),
        interference_scale: t.Optional[float] = None,
    ) -> FaultEvent:
        """One region's firewall tightens, then reverts.

        ``keywords`` should be keywords *new* to that region's policy —
        the revert removes them outright.
        """
        if not keywords and interference_scale is None:
            raise FaultError("regional_escalation needs keywords "
                             "and/or interference_scale")
        return self.add(FaultEvent(
            at, "regional-escalation", region, duration,
            {"keywords": tuple(keywords),
             "interference_scale": interference_scale}))

    def region_blackout(self, region: str, at: float,
                        downtime: float) -> FaultEvent:
        """Take a whole region dark: its border link goes down outright.

        The Turkmenistan-style escalation endgame (Nourin et al.): every
        transpacific flow from the region is severed — its domestic
        proxy can still be reached from inside, but can no longer dial
        any PoP.  Sessions survive only by migrating to another region
        (which needs the testbed's ``domestic_backbone``).
        """
        if downtime <= 0:
            raise FaultError("region_blackout needs a positive downtime "
                             "(a region that never returns is a secession)")
        return self.add(FaultEvent(at, "region-blackout",
                                   f"border-{region}", downtime))

    # -- installation -----------------------------------------------------------

    def install(self, testbed: "FleetTestbed") -> "FleetInjector":  # type: ignore[override]
        injector = FleetInjector(testbed, self)
        injector.start()
        return injector


class FleetInjector(FaultInjector):
    """Executes a :class:`FleetSchedule` against one fleet testbed."""

    # -- per-kind handlers ------------------------------------------------------

    _apply_pop_blackout = FaultInjector._apply_proxy_crash
    _apply_region_blackout = FaultInjector._apply_link_down

    def _apply_regional_escalation(self, event: FaultEvent):
        gfw = self.testbed.region(event.target).gfw
        keywords = tuple(event.params.get("keywords") or ())
        scale = event.params.get("interference_scale")
        saved_rates = dict(gfw.policy.class_interference)

        def escalate(fw) -> None:
            for keyword in keywords:
                fw.policy.block_keyword(keyword)
            if scale is not None:
                for label, rate in saved_rates.items():
                    fw.policy.set_interference(label, min(1.0, rate * scale))

        gfw.apply_policy(escalate, label=f"escalation:{event.target}")
        if not event.duration:
            return None

        def revert() -> None:
            def deescalate(fw) -> None:
                for keyword in keywords:
                    fw.policy.unblock_keyword(keyword)
                if scale is not None:
                    for label, rate in saved_rates.items():
                        fw.policy.set_interference(label, rate)
            gfw.apply_policy(deescalate,
                             label=f"escalation:{event.target}:revert")
        return revert
