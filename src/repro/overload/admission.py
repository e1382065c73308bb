"""Admission control: who gets in when the proxy is saturated.

The domestic proxy admits *sessions* (one browser connection each).
Admission is sticky per source address: a client that already holds a
session is never shed mid-page-load — rejecting one subresource stream
of an otherwise-admitted page wastes everything the page already
fetched, which is exactly the congestion collapse admission control
exists to prevent.  Only *new* sources consume capacity.

Three policies, selected by :attr:`OverloadConfig.policy`:

* ``static`` — a fixed session cap with a small waiting room; waiters
  shed on occupancy.
* ``codel`` — the same cap, but shedding is driven by *queueing delay*:
  a generous waiting room where any waiter that has queued longer than
  ``queue_delay_threshold`` is dropped, CoDel-style ("if the standing
  queue is older than the target, the server is overloaded").
* ``aimd`` — an adaptive cap: multiplicative decrease on every shed,
  additive increase on every clean session completion, bounded below
  by ``aimd_min`` and above by ``max_sessions``.

Priority comes from the PAC whitelist (Scholar traffic preferred over
bulk); lower numbers are better.  ``bulk_share`` reserves headroom for
interactive traffic by refusing *new* bulk sessions once occupancy
passes that fraction of the cap.

Every decision is appended to :attr:`AdmissionController.decisions`
so tests can assert seed-robustness of the full admit/shed sequence.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

from ..errors import ConfigurationError, OverloadError
from ..sim import Simulator
from .deadline import Deadline
from .queues import ConcurrencyLimiter

#: Priority bands (lower is better).  Scholar document traffic is
#: interactive; whitelisted CDN/bulk fetches are shed first.
PRIORITY_INTERACTIVE = 0
PRIORITY_BULK = 1

_POLICIES = ("static", "codel", "aimd")


@dataclass(frozen=True)
class OverloadConfig:
    """Knobs for the overload-protection layer.  All default off-ish:
    the layer only exists when a config is passed at all, so calibrated
    paper traces never see it.
    """

    #: Concurrent admitted sessions at the domestic proxy.
    max_sessions: int = 128
    #: Admission waiting-room depth (0 = reject immediately at the cap).
    max_waiting: int = 0
    #: Longest a waiter may queue before being shed; also the bound the
    #: benchmark asserts every *admitted* request stayed under.
    queue_delay_threshold: t.Optional[float] = None
    #: Admission policy: ``static``, ``codel`` or ``aimd``.
    policy: str = "static"
    #: Fraction of the cap open to new bulk-priority sessions.
    bulk_share: float = 1.0
    #: AIMD floor / additive step / multiplicative factor.
    aimd_min: int = 4
    aimd_increase: float = 1.0
    aimd_decrease: float = 0.5
    #: Remote-proxy in-flight stream cap (None = unlimited).
    remote_max_streams: t.Optional[int] = None
    #: Remote-proxy accept-backlog bound (None = dispatch inline).
    remote_backlog: t.Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ConfigurationError(
                f"max_sessions must be >= 1, got {self.max_sessions}")
        if self.max_waiting < 0:
            raise ConfigurationError(
                f"max_waiting must be >= 0, got {self.max_waiting}")
        if self.max_waiting > 0 and self.queue_delay_threshold is None:
            raise ConfigurationError(
                "a waiting room (max_waiting > 0) requires a "
                "queue_delay_threshold, or waiters could queue forever")
        if (self.queue_delay_threshold is not None
                and self.queue_delay_threshold <= 0):
            raise ConfigurationError(
                f"queue_delay_threshold must be positive, "
                f"got {self.queue_delay_threshold}")
        if self.policy not in _POLICIES:
            raise ConfigurationError(
                f"unknown admission policy {self.policy!r}; "
                f"expected one of {_POLICIES}")
        if not 0.0 < self.bulk_share <= 1.0:
            raise ConfigurationError(
                f"bulk_share must be in (0, 1], got {self.bulk_share}")
        if self.policy == "aimd":
            if self.aimd_min < 1 or self.aimd_min > self.max_sessions:
                raise ConfigurationError(
                    f"aimd_min must be in [1, max_sessions], "
                    f"got {self.aimd_min}")
            if self.aimd_increase <= 0 or not 0.0 < self.aimd_decrease < 1.0:
                raise ConfigurationError("aimd_increase must be positive and "
                                         "aimd_decrease in (0, 1)")

    def make_policy(self) -> "AdmissionPolicy":
        if self.policy == "aimd":
            return AimdPolicy(self.max_sessions, floor=self.aimd_min,
                              increase=self.aimd_increase,
                              decrease=self.aimd_decrease)
        if self.policy == "codel":
            return QueueDelayPolicy(self.max_sessions)
        return StaticCapPolicy(self.max_sessions)


class AdmissionPolicy:
    """Decides the current session limit; observes sheds and successes."""

    def limit(self) -> int:
        raise NotImplementedError

    def on_shed(self) -> None:
        """A session was shed (rejected, evicted, or timed out)."""

    def on_success(self) -> None:
        """A session completed and released its slot cleanly."""


class StaticCapPolicy(AdmissionPolicy):
    """Fixed session cap; occupancy is the only shedding signal."""

    def __init__(self, cap: int) -> None:
        self.cap = cap

    def limit(self) -> int:
        return self.cap


class QueueDelayPolicy(StaticCapPolicy):
    """CoDel-style: the cap is fixed, but shedding is driven by sojourn
    time in the waiting room rather than occupancy.  The controller
    sizes the waiting room generously for this policy so queue delay —
    not queue length — is what sheds."""


class AimdPolicy(AdmissionPolicy):
    """Adaptive cap: multiplicative decrease on shed, additive increase
    on clean completion (congestion-avoidance style)."""

    def __init__(self, ceiling: int, floor: int = 4,
                 increase: float = 1.0, decrease: float = 0.5) -> None:
        self.ceiling = ceiling
        self.floor = floor
        self.increase = increase
        self.decrease = decrease
        self._limit = float(ceiling)

    def limit(self) -> int:
        return max(self.floor, int(self._limit))

    def on_shed(self) -> None:
        self._limit = max(float(self.floor), self._limit * self.decrease)

    def on_success(self) -> None:
        grown = self._limit + self.increase / max(1.0, self._limit)
        self._limit = min(float(self.ceiling), grown)


#: Waiting-room depth used for the codel policy, where queue *delay*
#: (not length) is the shedding signal.
_CODEL_WAITING_ROOM = 1024


class AdmissionController:
    """Sticky per-source session admission in front of a proxy."""

    def __init__(self, sim: Simulator, config: OverloadConfig,
                 name: str = "admission") -> None:
        self.sim = sim
        self.config = config
        self.name = name
        self.policy = config.make_policy()
        if config.policy == "codel":
            max_waiting = _CODEL_WAITING_ROOM
        else:
            max_waiting = config.max_waiting
        self.limiter = ConcurrencyLimiter(
            sim, config.max_sessions, max_waiting=max_waiting,
            max_wait=config.queue_delay_threshold, name=f"{name}-sessions")
        #: Active session count per source address.
        self._sessions: t.Dict[str, int] = {}
        self.offered = 0
        self.admitted = 0
        self.shed = 0
        self.deadline_drops = 0
        #: ``(time, source, outcome, priority)`` per decision, in order.
        #: Outcomes: ``admit``, ``admit-sticky``, ``shed``, ``expired``.
        self.decisions: t.List[t.Tuple[float, str, str, int]] = []

    @property
    def in_use(self) -> int:
        return self.limiter.in_use

    def admit(self, source: str, priority: int = PRIORITY_INTERACTIVE,
              deadline: t.Optional[Deadline] = None):
        """Generator: admit one session from ``source``.

        Returns the queueing delay in seconds.  Raises
        :class:`~repro.errors.OverloadError` when the session is shed.
        """
        self.offered += 1
        if self._sessions.get(source, 0) > 0:
            # Sticky: the source already holds a session; shedding one
            # stream of an in-flight page load only wastes the rest.
            self._sessions[source] += 1
            self.admitted += 1
            self.decisions.append((self.sim.now, source, "admit-sticky",
                                   priority))
            return 0.0
        self.limiter.capacity = self.policy.limit()
        if (priority > PRIORITY_INTERACTIVE
                and self.limiter.in_use >=
                self.config.bulk_share * self.limiter.capacity):
            self._record_shed(source, priority)
            raise OverloadError(
                f"{self.name}: bulk traffic shed at "
                f"{self.config.bulk_share:.0%} occupancy")
        try:
            wire_deadline = None if deadline is None else deadline.at
            delay = yield self.limiter.acquire(priority, wire_deadline)
        except OverloadError:
            self._record_shed(source, priority)
            raise
        self._sessions[source] = self._sessions.get(source, 0) + 1
        self.admitted += 1
        self.decisions.append((self.sim.now, source, "admit", priority))
        return delay

    def release(self, source: str, succeeded: bool = True) -> None:
        """Release one session held by ``source``."""
        count = self._sessions.get(source, 0)
        if count <= 0:
            raise ConfigurationError(
                f"{self.name}: release for {source!r} without an admit")
        if count == 1:
            del self._sessions[source]
            self.limiter.release()
            if succeeded:
                self.policy.on_success()
        else:
            self._sessions[source] = count - 1

    def record_expired(self, source: str, priority: int) -> None:
        """Count a request dropped because its deadline already passed."""
        self.deadline_drops += 1
        self.decisions.append((self.sim.now, source, "expired", priority))

    def _record_shed(self, source: str, priority: int) -> None:
        self.shed += 1
        self.policy.on_shed()
        self.decisions.append((self.sim.now, source, "shed", priority))

    @property
    def queue_delays(self) -> t.List[float]:
        """Queueing delay of every admitted session, in grant order."""
        return self.limiter.queue_delays
