"""Survival gates: the escalation-to-blackout longitudinal campaign.

The acceptance bar for session survivability, machine-checked by the
:class:`~repro.fleet.verifier.SurvivalVerifier` rather than hand-read
off a plot:

* **Every affected session migrates and finishes.**  A session holding
  a mid-file checkpoint in the victim region when it degrades must
  migrate to a healthy region, resume from that checkpoint, and
  complete — zero sessions lost while at least one region is healthy.
* **The fleet availability dip is bounded and recovering** — at most
  15 points below the campaign's best bucket, ending recovered.
* **Byte-identical per seed.**  Each of the 3 campaign seeds
  reproduces its recorded event-log digest (blake2b), run after run,
  which is what makes the verifier's verdicts reproducible evidence
  rather than a lucky trace.  A change that moves a digest must
  record the new one here and say why.

Artifacts land in ``benchmarks/results/survival_*.txt``: the per-seed
verifier reports and the fleet availability series.  Both are
deterministic (wall time goes to stdout only), and the CI ``survival``
job fails if a run changes them.
"""

import time

from repro.fleet import SurvivalVerifier, run_survival_campaign
from repro.measure import availability_over_time

CAMPAIGN_SEEDS = (0, 1, 2)
#: Event-log digest of each campaign seed.
EXPECTED_DIGESTS = {
    0: "4f3ac53020aca0e39e90c5095c6e2309",
    1: "d5a5a719e9e85493c5f1fe081811b905",
    2: "d8b2c35ad2f743c4095a465e1f6f3e99",
}
#: The blackout must not cost more than 15 availability points.
DIP_CEILING = 0.15
BUCKET = 60.0


def _affected_sessions(result):
    """Sessions holding a victim-region checkpoint when it degraded.

    "Affected" means the hard case: at least one chunk already
    delivered through the victim's front door and no terminal event yet
    when the coordinator drained the region — checkpointed state exists
    and must survive the move.
    """
    degraded_at = next(
        event.time for event in result.events
        if event.kind == "region-degraded" and event.region == result.victim)
    chunked, finished = set(), set()
    for event in result.events:
        if event.time >= degraded_at:
            break
        if event.kind == "chunk" and event.region == result.victim:
            chunked.add(event.session)
        elif event.kind in ("session-complete", "session-lost"):
            finished.add(event.session)
    return chunked - finished


def test_escalation_to_blackout_survival(emit):
    verifier = SurvivalVerifier(dip_ceiling=DIP_CEILING, bucket=BUCKET)
    reports, series_lines, digests = [], [], {}
    for seed in CAMPAIGN_SEEDS:
        start = time.perf_counter()
        result = run_survival_campaign(seed=seed)
        print(f"seed {seed}: campaign ran in "
              f"{time.perf_counter() - start:.1f} s wall")
        digests[seed] = result.event_digest
        report = verifier.verify_campaign(result)

        affected = _affected_sessions(result)
        migrated = {event.session for event in result.events
                    if event.kind == "migrate"}
        completed = {event.session for event in result.events
                     if event.kind == "session-complete"}
        resumes = [event for event in result.events
                   if event.kind == "resume"]
        sessions = (len(result.regions) * result.clients_per_region
                    * result.cycles)

        assert report.passed, f"seed {seed}:\n{report.render()}"
        assert result.lost == 0
        assert result.completed == sessions
        assert affected, f"seed {seed}: blackout caught nobody in flight"
        assert affected <= migrated, (
            f"seed {seed}: {sorted(affected - migrated)} were caught by "
            f"the blackout but never migrated")
        assert affected <= completed
        assert resumes and all(event.detail[0] > 0 for event in resumes), (
            f"seed {seed}: a resume restarted from byte zero")
        assert report.dip <= DIP_CEILING
        assert result.event_digest == EXPECTED_DIGESTS[seed], (
            f"seed {seed}: event log moved")

        series = availability_over_time(sorted(result.samples()), BUCKET,
                                        horizon=result.duration)
        series_lines.append(f"seed {seed}: {series}")
        reports.append(
            f"seed {seed}: {result.completed}/{sessions} sessions, "
            f"{result.migrations} migrations "
            f"({len(affected)} affected, all resumed mid-file), "
            f"digest={result.event_digest}\n"
            + report.render())

    emit("survival_verifier", "\n\n".join(reports))
    emit("survival_availability",
         "fleet availability during escalation-to-blackout "
         f"(bucket {BUCKET:.0f}s)\n" + "\n".join(series_lines))

    # Byte-identity: the same seed reproduces the same event log,
    # event for event — across all 3 campaign seeds.
    for seed in CAMPAIGN_SEEDS:
        again = run_survival_campaign(seed=seed)
        assert again.event_digest == digests[seed], (
            f"seed {seed}: event log not reproducible")
