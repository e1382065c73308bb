"""SurvivalVerifier: machine-checked invariants over chaos event logs.

A chaos campaign's headline claims — "no session was lost", "the dip
was bounded and recovered" — are exactly the kind of result that gets
hand-read off a plot and quietly rots.  The verifier replays the
campaign's :class:`~repro.fleet.survival.SurvivalEvent` log and checks
every claim mechanically:

1. **no-session-lost-while-healthy** — a ``session-lost`` event is a
   violation whenever at least one region was healthy at that instant
   (the log's ``region-degraded``/``region-recovered`` events define
   the healthy set over time).
2. **no-duplicate-delivery** — per session, chunk events must be
   exactly contiguous: each ``chunk`` starts at the previous offset's
   end (an overlap is a duplicate delivery after resume; a gap is
   silent loss), and a completed session must end at its announced
   total.
3. **migrations-within-budget** — no session's ``migrate`` count may
   exceed the campaign's per-session budget.
4. **availability-dip-bounded** — the availability series folded from
   session outcomes must dip no more than ``dip_ceiling`` from its best
   bucket and must end recovered
   (:meth:`~repro.measure.metrics.AvailabilitySeries.recovered`).
5. **no-session-unresolved** — every started session must reach
   exactly one terminal event (complete or lost); a hung session
   dodging invariant 1 is itself a violation, and so is a terminal
   event for a session that never started or had already ended.  Such
   an unmatched event counts toward neither ``completed`` nor
   ``lost``.

The verifier only reads event attributes (time/kind/session/region/
detail), so any log with that shape — live campaign, synthetic test
fixture, or a replayed artifact — verifies the same way.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

from ..errors import MeasurementError
from ..measure.metrics import availability_over_time

#: How many violating samples each invariant keeps verbatim in its
#: report; the count is always exact.
MAX_VIOLATIONS_SHOWN = 5


@dataclass(frozen=True)
class InvariantResult:
    """One invariant's verdict over a campaign log."""

    name: str
    passed: bool
    detail: str
    violations: t.Tuple[str, ...] = ()

    def __str__(self) -> str:
        marker = "PASS" if self.passed else "FAIL"
        return f"[{marker}] {self.name}: {self.detail}"


@dataclass(frozen=True)
class VerifierReport:
    """All invariant verdicts plus the replay's headline counts."""

    invariants: t.Tuple[InvariantResult, ...]
    sessions: int
    completed: int
    lost: int
    migrations: int
    dip: float
    recovering: bool

    @property
    def passed(self) -> bool:
        return all(invariant.passed for invariant in self.invariants)

    def failures(self) -> t.Tuple[InvariantResult, ...]:
        return tuple(invariant for invariant in self.invariants
                     if not invariant.passed)

    def invariant(self, name: str) -> InvariantResult:
        for invariant in self.invariants:
            if invariant.name == name:
                return invariant
        raise MeasurementError(f"no invariant named {name!r}")

    def render(self) -> str:
        lines = [
            "survival verifier report",
            f"  sessions={self.sessions} completed={self.completed} "
            f"lost={self.lost} migrations={self.migrations}",
            f"  availability dip={self.dip * 100:.1f}pt "
            f"recovering={'yes' if self.recovering else 'no'}",
        ]
        for invariant in self.invariants:
            lines.append(f"  {invariant}")
            for violation in invariant.violations:
                lines.append(f"      - {violation}")
        lines.append(f"  verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


class SurvivalVerifier:
    """Replays a survival event log and checks its invariants."""

    def __init__(self, migration_budget: int = 3,
                 dip_ceiling: float = 0.15,
                 bucket: float = 60.0) -> None:
        if migration_budget < 0:
            raise MeasurementError(
                f"migration budget must be >= 0, got {migration_budget}")
        if not 0.0 <= dip_ceiling <= 1.0:
            raise MeasurementError(
                f"dip ceiling must be in [0,1], got {dip_ceiling}")
        self.migration_budget = migration_budget
        self.dip_ceiling = dip_ceiling
        self.bucket = bucket

    # -- entry points ------------------------------------------------------------

    def verify_campaign(self, result) -> VerifierReport:
        """Verify a :class:`~repro.fleet.survival.SurvivalCampaignResult`."""
        verifier = SurvivalVerifier(
            migration_budget=result.migration_budget,
            dip_ceiling=self.dip_ceiling, bucket=self.bucket)
        return verifier.verify(result.events, result.regions,
                               horizon=result.duration)

    def verify(self, events: t.Sequence, regions: t.Sequence[str],
               horizon: t.Optional[float] = None) -> VerifierReport:
        """Replay ``events`` and return every invariant's verdict."""
        degraded: t.Dict[str, bool] = {region: False for region in regions}
        sessions: t.Dict[str, t.Dict[str, t.Any]] = {}
        migrations: t.Dict[str, int] = {}
        samples: t.List[t.Tuple[float, bool]] = []
        lost_while_healthy: t.List[str] = []
        continuity: t.List[str] = []
        unmatched: t.List[str] = []
        last_time: t.Optional[float] = None
        total_migrations = 0
        completed = lost = 0

        for event in events:
            if last_time is not None and event.time < last_time:
                raise MeasurementError(
                    f"event log out of order at t={event.time}")
            last_time = event.time
            kind = event.kind
            if kind == "region-degraded":
                degraded[event.region] = True
            elif kind == "region-recovered":
                degraded[event.region] = False
            elif kind == "session-start":
                sessions[event.session] = {
                    "expected": 0, "total": event.detail[1], "done": False}
            elif kind == "chunk":
                offset, size = event.detail
                session = sessions.get(event.session)
                if session is None:
                    continuity.append(
                        f"t={event.time:g} {event.session}: chunk before "
                        "session-start")
                    continue
                if offset < session["expected"]:
                    continuity.append(
                        f"t={event.time:g} {event.session}: duplicate "
                        f"delivery at {offset} (already have "
                        f"{session['expected']})")
                elif offset > session["expected"]:
                    continuity.append(
                        f"t={event.time:g} {event.session}: gap — chunk at "
                        f"{offset}, expected {session['expected']}")
                session["expected"] = max(session["expected"], offset + size)
            elif kind == "migrate":
                count = migrations.get(event.session, 0) + 1
                migrations[event.session] = count
                total_migrations += 1
            elif kind in ("session-complete", "session-lost"):
                session = sessions.get(event.session)
                if session is None or session["done"]:
                    unmatched.append(
                        f"t={event.time:g} {event.session}: {kind} "
                        + ("without a session-start" if session is None
                           else "after its terminal event"))
                    continue
                session["done"] = True
                samples.append((event.time, kind == "session-complete"))
                if kind == "session-complete":
                    completed += 1
                    if session["expected"] != session["total"]:
                        continuity.append(
                            f"t={event.time:g} {event.session}: completed "
                            f"with {session['expected']} of "
                            f"{session['total']} bytes")
                else:
                    lost += 1
                    healthy = sorted(region for region, is_degraded
                                     in degraded.items() if not is_degraded)
                    if healthy:
                        lost_while_healthy.append(
                            f"t={event.time:g} {event.session}: lost while "
                            f"{healthy} healthy")

        over_budget = [
            f"{session}: {count} migrations > budget {self.migration_budget}"
            for session, count in sorted(migrations.items())
            if count > self.migration_budget]
        unresolved = [session for session, state in sorted(sessions.items())
                      if not state["done"]]
        dip, recovering, dip_detail = self._availability(samples, horizon)

        invariants = (
            self._result(
                "no-session-lost-while-healthy", lost_while_healthy,
                ok_detail=f"{lost} losses, none with a healthy region up"),
            self._result(
                "no-duplicate-delivery", continuity,
                ok_detail=f"{len(sessions)} sessions, chunks contiguous"),
            self._result(
                "migrations-within-budget", over_budget,
                ok_detail=(f"{total_migrations} migrations, max per session "
                           f"<= {self.migration_budget}")),
            InvariantResult(
                "availability-dip-bounded",
                passed=(dip <= self.dip_ceiling and recovering),
                detail=dip_detail),
            self._result(
                "no-session-unresolved",
                unmatched + [f"{session}: no terminal event"
                             for session in unresolved],
                ok_detail=f"all {len(sessions)} sessions reached a terminal "
                          "event"),
        )
        return VerifierReport(
            invariants=invariants, sessions=len(sessions),
            completed=completed, lost=lost, migrations=total_migrations,
            dip=dip, recovering=recovering)

    # -- helpers -----------------------------------------------------------------

    @staticmethod
    def _result(name: str, violations: t.List[str],
                ok_detail: str) -> InvariantResult:
        if not violations:
            return InvariantResult(name, True, ok_detail)
        shown = tuple(violations[:MAX_VIOLATIONS_SHOWN])
        return InvariantResult(
            name, False, f"{len(violations)} violation(s)", shown)

    def _availability(self, samples: t.Sequence[t.Tuple[float, bool]],
                      horizon: t.Optional[float],
                      ) -> t.Tuple[float, bool, str]:
        if not samples:
            return 0.0, True, "no finished sessions (vacuously bounded)"
        series = availability_over_time(sorted(samples), self.bucket,
                                        horizon=horizon)
        dip, recovering = series.dip(), series.recovered()
        observed = series.observed
        return dip, recovering, (
            f"dip={dip * 100:.1f}pt (ceiling {self.dip_ceiling * 100:.0f}pt), "
            f"last bucket {observed[-1]:.0%} vs best {max(observed):.0%} "
            f"({'recovered' if recovering else 'NOT recovered'})")
