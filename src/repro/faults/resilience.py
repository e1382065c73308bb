"""Resilience primitives: retry policy, circuit breaker, failover pool.

The paper's availability story (§4, Fig. 5c/7) is not that ScholarCloud's
path never fails — the transpacific leg is as lossy and censorable as
anyone's — but that the *service* absorbs failures: the domestic proxy
re-dials with backoff, fails over to a replica remote proxy, and stops
hammering a dead endpoint until it recovers.  These three classes are
that machinery, kept deliberately generic so connectors and proxies can
share them.

Everything here is deterministic: backoff jitter draws from a named
:class:`~repro.sim.rng.RngRegistry` stream, and breaker transitions are
timestamped with simulated time, so one seed yields one byte-identical
recovery trace.
"""

from __future__ import annotations

import random
import typing as t
from dataclasses import dataclass, field

from ..errors import TransportError
from ..net import IPv4Address
from ..sim import Simulator

if t.TYPE_CHECKING:  # pragma: no cover
    from ..transport import TransportLayer


@dataclass(frozen=True)
class Endpoint:
    """One dialable (address, port) pair in a failover pool.

    ``name`` is a display label only — identity (equality, hashing) is
    the (address, port) pair, so a labelled endpoint handed out by a
    router compares equal to the pool's own unlabelled one.
    """

    address: IPv4Address
    port: int
    name: str = field(default="", compare=False)

    def __str__(self) -> str:
        return self.name or f"{self.address}:{self.port}"


class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``delays()`` yields the pre-attempt delay for each attempt: 0.0 for
    the first try, then ``base * multiplier**k`` capped at ``cap``, each
    multiplied by a jitter factor in ``[1-jitter, 1+jitter]`` drawn from
    the injected rng stream.  Jitter draws are lazy — a dial that
    succeeds on its first attempt consumes no randomness — which keeps
    the fast path's rng trace identical to a world with no retries.

    A total budget bounds the *sum* of attempts: with ``budget`` set
    (and a ``clock`` supplied to :meth:`delays`), the iterator stops
    once the next nominal backoff would start an attempt past
    ``start + budget``; an explicit ``deadline`` (absolute time) does
    the same against the caller's deadline.  Retries stopping early
    never amplify an overload past what the caller will wait for.
    """

    def __init__(
        self,
        attempts: int = 4,
        base: float = 0.5,
        multiplier: float = 2.0,
        cap: float = 8.0,
        jitter: float = 0.1,
        rng: t.Optional[random.Random] = None,
        budget: t.Optional[float] = None,
    ) -> None:
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0,1), got {jitter}")
        if budget is not None and budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        self.attempts = attempts
        self.base = base
        self.multiplier = multiplier
        self.cap = cap
        self.jitter = jitter
        self.rng = rng
        self.budget = budget

    def delays(self, clock: t.Optional[t.Callable[[], float]] = None,
               deadline: t.Optional[float] = None) -> t.Iterator[float]:
        """Yield the delay to sleep *before* each attempt.

        ``clock`` (a zero-arg now() callable) enables the time bounds:
        the total ``budget`` counted from the first yield, and/or an
        absolute ``deadline``.  The bound is tested against the
        *un-jittered* backoff before any jitter is drawn, so stopping
        early consumes no randomness — the rng trace stays identical
        whether or not a bound was the reason the iterator ended.
        """
        limit: t.Optional[float] = None
        if clock is not None:
            if self.budget is not None:
                limit = clock() + self.budget
            if deadline is not None:
                limit = deadline if limit is None else min(limit, deadline)
        yield 0.0
        for exponent in range(self.attempts - 1):
            delay = min(self.cap, self.base * self.multiplier ** exponent)
            if limit is not None and clock() + delay >= limit:
                return
            if self.rng is not None and self.jitter > 0.0:
                delay *= 1.0 + self.jitter * (2.0 * self.rng.random() - 1.0)
            yield delay


class CircuitBreaker:
    """Per-endpoint breaker: CLOSED -> OPEN -> HALF_OPEN -> CLOSED.

    Opens after ``failure_threshold`` consecutive failures; after
    ``reset_timeout`` simulated seconds the next :meth:`allow` call
    flips it to HALF_OPEN, admitting exactly *one* in-flight trial —
    success closes the breaker, failure re-opens it.  While that trial
    is outstanding every other :meth:`allow` call is refused, so a
    recovering endpoint sees a single probe instead of the thundering
    herd that re-overloads it the moment the window elapses.  Every
    transition is recorded as ``(sim.now, from_state, to_state)`` so
    tests can assert the exact recovery trace.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, sim: Simulator, failure_threshold: int = 3,
                 reset_timeout: float = 30.0, name: str = "breaker") -> None:
        self.sim = sim
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.name = name
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at: t.Optional[float] = None
        #: True while the single HALF_OPEN trial is outstanding.
        self.trial_in_flight = False
        self.transitions: t.List[t.Tuple[float, str, str]] = []

    def _transition(self, to_state: str) -> None:
        self.transitions.append((self.sim.now, self.state, to_state))
        self.state = to_state

    def allow(self) -> bool:
        """May a request be attempted right now?

        In HALF_OPEN exactly one caller is admitted as the trial; the
        rest are refused until :meth:`record_success` or
        :meth:`record_failure` lands the trial's verdict.
        """
        if self.state == self.OPEN:
            assert self.opened_at is not None
            if self.sim.now - self.opened_at >= self.reset_timeout:
                self._transition(self.HALF_OPEN)
                self.trial_in_flight = True
                return True
            return False
        if self.state == self.HALF_OPEN:
            if self.trial_in_flight:
                return False
            self.trial_in_flight = True
            return True
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.trial_in_flight = False
        if self.state != self.CLOSED:
            self._transition(self.CLOSED)
            self.opened_at = None

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        self.trial_in_flight = False
        if self.state == self.HALF_OPEN or (
                self.state == self.CLOSED
                and self.consecutive_failures >= self.failure_threshold):
            self._transition(self.OPEN)
            self.opened_at = self.sim.now


class FailoverPool:
    """Priority-ordered endpoints, each guarded by a circuit breaker.

    :meth:`pick` returns the first endpoint whose breaker admits a
    request — the primary while it is healthy, a replica while the
    primary's breaker is open.  An optional health-check process dials
    each admissible endpoint on a timer so an open breaker is re-probed
    (and closed) without waiting for live traffic to gamble on it.
    """

    def __init__(self, sim: Simulator, endpoints: t.Sequence[Endpoint],
                 failure_threshold: int = 3,
                 reset_timeout: float = 30.0) -> None:
        if not endpoints:
            raise ValueError("failover pool needs at least one endpoint")
        self.sim = sim
        self.endpoints = list(endpoints)
        self.breakers: t.Dict[Endpoint, CircuitBreaker] = {
            endpoint: CircuitBreaker(
                sim, failure_threshold=failure_threshold,
                reset_timeout=reset_timeout, name=str(endpoint))
            for endpoint in self.endpoints
        }
        #: Endpoint-*change* events: bumped only when :meth:`pick`
        #: returns a different endpoint than the previous pick (failover
        #: to a replica, or failback to a recovered primary) — not on
        #: every pick made while the primary happens to be down, so
        #: "6 failovers" means six actual switches.
        self.failovers = 0
        self._current: Endpoint = self.endpoints[0]

    @property
    def primary(self) -> Endpoint:
        return self.endpoints[0]

    def pick(self) -> t.Optional[Endpoint]:
        """First endpoint whose breaker admits traffic; None if all open."""
        for endpoint in self.endpoints:
            if self.breakers[endpoint].allow():
                if endpoint is not self._current:
                    self.failovers += 1
                    self._current = endpoint
                return endpoint
        return None

    def record_success(self, endpoint: Endpoint) -> None:
        self.breakers[endpoint].record_success()

    def record_failure(self, endpoint: Endpoint) -> None:
        self.breakers[endpoint].record_failure()

    # -- health checks ---------------------------------------------------------

    def start_health_checks(self, transport: "TransportLayer",
                            interval: float = 15.0, timeout: float = 3.0,
                            features=None, rng=None):
        """Start one staggered probe process per endpoint.

        Each endpoint gets its own phase offset in ``[0, interval)``
        drawn from the ``failover.health`` rng stream (in endpoint
        order, so the stagger is seed-stable) instead of every endpoint
        being probed in the same tick of one fixed-interval timer —
        which would synchronize probe bursts across the pool exactly
        when a shared outage makes every breaker half-open at once.
        Returns the list of probe processes, in endpoint order.
        """
        if rng is None:
            rng = self.sim.rng.stream("failover.health")
        processes = []
        for endpoint in self.endpoints:
            offset = rng.uniform(0.0, interval)
            processes.append(self.sim.process(
                self._health_loop(endpoint, transport, offset, interval,
                                  timeout, features),
                name=f"failover-health:{endpoint}"))
        return processes

    def _health_loop(self, endpoint: Endpoint, transport: "TransportLayer",
                     offset: float, interval: float, timeout: float,
                     features):
        breaker = self.breakers[endpoint]
        yield self.sim.timeout(offset)
        while True:
            yield self.sim.timeout(interval)
            if not breaker.allow():
                continue  # open and inside its reset window
            try:
                conn = yield transport.connect_tcp(
                    endpoint.address, endpoint.port,
                    features=features, timeout=timeout)
            except TransportError:
                breaker.record_failure()
                continue
            breaker.record_success()
            conn.close()
