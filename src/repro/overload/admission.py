"""Admission control: who gets in when the proxy is saturated.

The domestic proxy admits *sessions* (one browser connection each).
Admission is sticky per source address: a client that already holds a
session is never shed mid-page-load — rejecting one subresource stream
of an otherwise-admitted page wastes everything the page already
fetched, which is exactly the congestion collapse admission control
exists to prevent.  Only *new* sources consume capacity.

New sources get a fixed session cap (``max_sessions``) with a small
waiting room (``max_waiting``); a waiter still queued after
``queue_delay_threshold`` seconds is shed.  Priority comes from the
PAC whitelist (Scholar traffic preferred over bulk); lower numbers are
better, and a full waiting room evicts its worst waiter for a
strictly better newcomer.

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


class AdmissionController:
    """Sticky per-source session admission in front of a proxy."""

    def __init__(self, sim: Simulator, config: OverloadConfig,
                 name: str = "admission") -> None:
        self.sim = sim
        self.name = name
        self.limiter = ConcurrencyLimiter(
            sim, config.max_sessions, max_waiting=config.max_waiting,
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
        try:
            wire_deadline = None if deadline is None else deadline.at
            delay = yield self.limiter.acquire(priority, wire_deadline)
        except OverloadError:
            self.shed += 1
            self.decisions.append((self.sim.now, source, "shed", priority))
            raise
        self._sessions[source] = self._sessions.get(source, 0) + 1
        self.admitted += 1
        self.decisions.append((self.sim.now, source, "admit", priority))
        return delay

    def release(self, source: str) -> None:
        """Release one session held by ``source``."""
        count = self._sessions.get(source, 0)
        if count <= 0:
            raise ConfigurationError(
                f"{self.name}: release for {source!r} without an admit")
        if count == 1:
            del self._sessions[source]
            self.limiter.release()
        else:
            self._sessions[source] = count - 1

    def record_expired(self, source: str, priority: int) -> None:
        """Count a request dropped because its deadline already passed."""
        self.deadline_drops += 1
        self.decisions.append((self.sim.now, source, "expired", priority))

    @property
    def queue_delays(self) -> t.List[float]:
        """Queueing delay of every admitted session, in grant order."""
        return self.limiter.queue_delays
