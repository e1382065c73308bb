"""Summary statistics for measurement series."""

from __future__ import annotations

import math
import typing as t
from dataclasses import dataclass

from ..errors import MeasurementError


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample series."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    stdev: float

    def __str__(self) -> str:
        return (f"n={self.count} mean={self.mean:.3f} "
                f"[{self.minimum:.3f}, {self.maximum:.3f}] "
                f"p50={self.p50:.3f} p95={self.p95:.3f}")


def percentile(sorted_values: t.Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of pre-sorted values."""
    if not sorted_values:
        raise MeasurementError("percentile of an empty series")
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = fraction * (len(sorted_values) - 1)
    lower = int(math.floor(position))
    upper = min(lower + 1, len(sorted_values) - 1)
    weight = position - lower
    interpolated = (sorted_values[lower] * (1 - weight)
                    + sorted_values[upper] * weight)
    # Clamp: float interpolation of near-equal neighbours can land a
    # ULP outside the sample range.
    return min(max(interpolated, sorted_values[0]), sorted_values[-1])


def summarize(values: t.Iterable[float]) -> Summary:
    """Summary statistics of a series."""
    series = sorted(float(v) for v in values)
    if not series:
        raise MeasurementError("cannot summarize an empty series")
    n = len(series)
    # Clamp: float summation of near-equal values can land the mean a
    # ULP outside the sample range (e.g. mean([0.95] * 3) < 0.95).
    mean = min(max(sum(series) / n, series[0]), series[-1])
    variance = sum((v - mean) ** 2 for v in series) / n if n > 1 else 0.0
    return Summary(
        count=n,
        mean=mean,
        minimum=series[0],
        maximum=series[-1],
        p50=percentile(series, 0.50),
        p95=percentile(series, 0.95),
        stdev=math.sqrt(variance),
    )


def goodput(completed: int, duration: float) -> float:
    """Useful completions per second over ``duration``.

    Goodput — not throughput — is the degradation metric that matters
    under overload: bytes moved for requests that ultimately failed or
    were abandoned count for nothing.
    """
    if completed < 0:
        raise MeasurementError(f"negative completion count: {completed}")
    if duration < 0:
        raise MeasurementError(f"negative duration: {duration}")
    if duration == 0:
        return 0.0
    return completed / duration


def shed_rate(shed: int, offered: int) -> float:
    """Fraction of offered work shed by admission control, in [0,1]."""
    if shed < 0 or offered < 0:
        raise MeasurementError("negative shed/offered counts")
    if offered == 0:
        return 0.0
    return min(1.0, shed / offered)


def queue_delay_percentiles(
    delays: t.Iterable[float],
    fractions: t.Sequence[float] = (0.50, 0.95, 0.99),
) -> t.Dict[float, float]:
    """Percentiles of a queueing-delay series; all-zero when empty.

    An empty series means nothing ever queued, for which "zero delay"
    is the honest summary — raising would force every caller to
    special-case the healthy, unqueued system.
    """
    series = sorted(float(d) for d in delays)
    if not series:
        return {fraction: 0.0 for fraction in fractions}
    return {fraction: percentile(series, fraction)
            for fraction in fractions}


@dataclass(frozen=True)
class OverloadReport:
    """Degradation summary of one overload experiment point."""

    offered: int
    admitted: int
    shed: int
    deadline_drops: int
    completed: int
    duration: float
    queue_delays: t.Tuple[float, ...] = ()

    @property
    def goodput(self) -> float:
        return goodput(self.completed, self.duration)

    @property
    def shed_rate(self) -> float:
        return shed_rate(self.shed, self.offered)

    def queue_delay(self, fraction: float) -> float:
        return queue_delay_percentiles(self.queue_delays,
                                       (fraction,))[fraction]

    def __str__(self) -> str:
        return (f"offered={self.offered} admitted={self.admitted} "
                f"shed={self.shed} ({self.shed_rate:.0%}) "
                f"drops={self.deadline_drops} "
                f"goodput={self.goodput:.3f}/s "
                f"qdelay p95={self.queue_delay(0.95):.3f}s")


@dataclass(frozen=True)
class CacheReport:
    """One edge-cache tier's hit/miss/coherence summary.

    Built by :meth:`repro.cache.ResponseCache.report`; the optional
    PLT summaries split page loads by whether every object came from
    the cache (the headline hit-vs-miss latency comparison).
    """

    hits: int
    misses: int
    insertions: int
    evictions: int
    expirations: int
    invalidations: int
    #: Live occupancy at report time.
    entries: int
    bytes_in_cache: int
    #: Response bytes served from the cache (browser-leg wire bytes).
    bytes_served: int
    #: Blinded transpacific bytes (request + response frames) that hits
    #: did not put on the border link.
    transpacific_bytes_avoided: int
    #: PLT of loads served entirely from cache / with at least one miss.
    plt_hit: t.Optional[Summary] = None
    plt_miss: t.Optional[Summary] = None
    #: Streaming digest of the event sequence (determinism assertions).
    event_digest: str = ""

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup; 0.0 when nothing was looked up."""
        return self.hits / self.lookups if self.lookups else 0.0

    def __str__(self) -> str:
        line = (f"lookups={self.lookups} hits={self.hits} "
                f"({self.hit_rate:.0%}) evict={self.evictions} "
                f"expire={self.expirations} "
                f"invalidate={self.invalidations} "
                f"served={self.bytes_served}B "
                f"transpacific_avoided={self.transpacific_bytes_avoided}B")
        if self.plt_hit is not None and self.plt_miss is not None:
            line += (f" plt(hit)p50={self.plt_hit.p50:.3f}s"
                     f" plt(miss)p50={self.plt_miss.p50:.3f}s")
        return line


#: Region-health component weights.  Breaker state dominates: an open
#: breaker means live dials are failing *now*, while the interference
#: rate is a leading indicator of pressure.  A full blackout (every
#: breaker open) lands the score at 0.40 — firmly below the 0.5
#: degradation threshold even with zero interference.
HEALTH_WEIGHT_INTERFERENCE = 0.15
HEALTH_WEIGHT_BREAKERS = 0.60
#: A region scoring below this is degraded (survival migrates away).
HEALTH_DEGRADED_BELOW = 0.5


@dataclass(frozen=True)
class RegionHealth:
    """One region's composite health sample.

    Two normalized pressure signals — the firewall interference rate
    and the fraction of transpacific circuit breakers currently open —
    fold into a single ``score`` in [0, 1] (1.0 = fully healthy).  The
    survival layer samples this per region to decide when a whole
    region is degraded enough to move its sessions away.
    """

    region: str
    interference_rate: float
    breaker_open_fraction: float

    @property
    def score(self) -> float:
        penalty = (HEALTH_WEIGHT_INTERFERENCE * self.interference_rate
                   + HEALTH_WEIGHT_BREAKERS * self.breaker_open_fraction)
        return max(0.0, 1.0 - min(1.0, penalty))

    def degraded(self) -> bool:
        return self.score < HEALTH_DEGRADED_BELOW

    def __str__(self) -> str:
        return (f"{self.region}: score={self.score:.2f} "
                f"(interference={self.interference_rate:.0%} "
                f"breakers={self.breaker_open_fraction:.0%})")


def region_health(
    region: str,
    interference_drops: int = 0,
    packets_seen: int = 0,
    breakers_open: int = 0,
    breakers_total: int = 0,
) -> RegionHealth:
    """Fold raw counters (usually interval deltas) into a health sample.

    Zero-denominator inputs read as "no evidence of trouble": a region
    that carried no packets saw no interference.
    """
    if min(interference_drops, packets_seen,
           breakers_open, breakers_total) < 0:
        raise MeasurementError("negative region-health counters")
    interference = (min(1.0, interference_drops / packets_seen)
                    if packets_seen else 0.0)
    breakers = (min(1.0, breakers_open / breakers_total)
                if breakers_total else 0.0)
    return RegionHealth(
        region=region,
        interference_rate=interference,
        breaker_open_fraction=breakers)


def loss_rate(dropped: int, sent: int) -> float:
    """Packet loss rate in [0,1]; zero traffic counts as zero loss."""
    if sent < 0 or dropped < 0:
        raise MeasurementError("negative packet counts")
    if sent == 0:
        return 0.0
    return min(1.0, dropped / sent)


@dataclass(frozen=True)
class Availability:
    """Session availability under faults.

    Computed from a series of timestamped session attempts: the success
    rate, the number of distinct outages the method recovered from, and
    the worst observed time-to-recovery (first failure of an outage to
    the next success; ``inf`` if the series ends mid-outage — the
    method never came back).
    """

    attempts: int
    successes: int
    recoveries: int
    worst_time_to_recovery: float

    @property
    def success_rate(self) -> float:
        if self.attempts == 0:
            return 0.0
        return self.successes / self.attempts

    def __str__(self) -> str:
        ttr = ("-" if self.worst_time_to_recovery == 0.0
               else f"{self.worst_time_to_recovery:.1f}s"
               if math.isfinite(self.worst_time_to_recovery) else "never")
        return (f"{self.successes}/{self.attempts} "
                f"({self.success_rate:.0%}), worst TTR {ttr}")


#: How far below its best bucket a series' last observed bucket may sit
#: and still count as recovered: one bucket's sampling noise.
RECOVERY_MARGIN = 0.02


@dataclass(frozen=True)
class AvailabilitySeries:
    """Availability over time: fixed buckets of session outcomes.

    ``attempts[i]``/``successes[i]`` cover simulated time
    ``[i * bucket, (i+1) * bucket)``.  Buckets with no attempts report
    a rate of ``None`` (no evidence, rather than a fake 0% or 100%).
    """

    bucket: float
    attempts: t.Tuple[int, ...]
    successes: t.Tuple[int, ...]

    @property
    def rates(self) -> t.Tuple[t.Optional[float], ...]:
        return tuple(
            (ok / n) if n else None
            for ok, n in zip(self.successes, self.attempts))

    @property
    def observed(self) -> t.Tuple[float, ...]:
        """Rates of the buckets that saw attempts, in time order."""
        return tuple(rate for rate in self.rates if rate is not None)

    def dip(self) -> float:
        """Best observed bucket rate minus the worst (0.0 with no data).

        0.08 means the worst bucket ran 8 points below the best — the
        "bounded dip" the blackout acceptance bars are stated in.
        """
        observed = self.observed
        return max(observed) - min(observed) if observed else 0.0

    def recovered(self) -> bool:
        """Did the last observed bucket climb back to within
        :data:`RECOVERY_MARGIN` of the best?  True with no data."""
        observed = self.observed
        return not observed or observed[-1] >= max(observed) - RECOVERY_MARGIN

    def __str__(self) -> str:
        cells = ["-" if rate is None else f"{rate:.0%}"
                 for rate in self.rates]
        return f"bucket={self.bucket:g}s [{' '.join(cells)}]"


def availability_over_time(
    samples: t.Sequence[t.Tuple[float, bool]],
    bucket: float,
    horizon: t.Optional[float] = None,
) -> AvailabilitySeries:
    """Fold ``(timestamp, succeeded)`` samples into fixed time buckets.

    ``horizon`` pads the series with empty buckets out to a common
    length, so per-region series from separate simulations align when a
    fleet report merges them.
    """
    if bucket <= 0:
        raise MeasurementError(f"bucket must be positive, got {bucket}")
    last = max((when for when, _ in samples), default=0.0)
    if horizon is not None:
        last = max(last, horizon)
    count = int(last // bucket) + 1
    attempts = [0] * count
    successes = [0] * count
    for when, succeeded in samples:
        if when < 0:
            raise MeasurementError(f"negative sample timestamp: {when}")
        index = int(when // bucket)
        attempts[index] += 1
        if succeeded:
            successes[index] += 1
    return AvailabilitySeries(bucket=bucket, attempts=tuple(attempts),
                              successes=tuple(successes))


def merge_series(series: t.Sequence[AvailabilitySeries]) -> AvailabilitySeries:
    """Sum aligned availability series (e.g. one per fleet region)."""
    if not series:
        raise MeasurementError("cannot merge zero availability series")
    buckets = {s.bucket for s in series}
    if len(buckets) != 1:
        raise MeasurementError(f"mismatched bucket widths: {sorted(buckets)}")
    length = max(len(s.attempts) for s in series)
    attempts = [0] * length
    successes = [0] * length
    for s in series:
        for index, (n, ok) in enumerate(zip(s.attempts, s.successes)):
            attempts[index] += n
            successes[index] += ok
    return AvailabilitySeries(bucket=series[0].bucket,
                              attempts=tuple(attempts),
                              successes=tuple(successes))


def availability(samples: t.Sequence[t.Tuple[float, bool]]) -> Availability:
    """Fold ``(timestamp, succeeded)`` session samples into Availability.

    Timestamps must be non-decreasing (they come straight out of a
    simulation run, so they are).
    """
    attempts = 0
    successes = 0
    recoveries = 0
    worst_ttr = 0.0
    outage_started: t.Optional[float] = None
    last_time: t.Optional[float] = None
    for when, succeeded in samples:
        if last_time is not None and when < last_time:
            raise MeasurementError("availability samples out of order")
        last_time = when
        attempts += 1
        if succeeded:
            successes += 1
            if outage_started is not None:
                recoveries += 1
                worst_ttr = max(worst_ttr, when - outage_started)
                outage_started = None
        elif outage_started is None:
            outage_started = when
    if outage_started is not None:
        worst_ttr = math.inf
    return Availability(attempts=attempts, successes=successes,
                        recoveries=recoveries,
                        worst_time_to_recovery=worst_ttr)
