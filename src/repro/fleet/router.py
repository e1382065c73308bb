"""Sticky session routing over a health-checked PoP membership.

Two pieces:

* :class:`SessionRouter` — assigns each session key to a remote PoP by
  rendezvous (highest-random-weight) hashing: every ``(key, pop)`` pair
  gets a weight from a keyed blake2b digest, and the key goes to the
  highest-weighted pop it is allowed to use.  The property that matters
  for a fleet is *minimal disruption*: removing one of M pops remaps
  only the sessions that were on it (each falls to its own second
  choice); every other session's top choice is untouched.  Python's
  builtin ``hash`` is salted per process, so weights come from blake2b —
  the assignment is identical across runs, seeds, and worker processes.

* :class:`FailureDetector` — a deterministic probe loop per pop:
  consecutive dial failures past a suspicion threshold evict the pop
  from the membership; ``reinstate_threshold`` consecutive successful
  probes afterwards reinstate it.  Reinstatement hysteresis matters
  under a flapping path: with a single healthy probe sufficing, every
  flap cycle would oscillate the membership — evict, reinstate,
  evict — churning sessions on each swing.  Probe phases are staggered
  per-endpoint from the ``fleet.detector`` rng stream so a fleet-wide
  outage does not synchronize every probe into the same tick.

A pop is either ACTIVE or DOWN; membership changes only through the
detector's evict and reinstate.
"""

from __future__ import annotations

import hashlib
import typing as t

from ..errors import FaultError, TransportError
from ..faults import Endpoint
from ..sim import Simulator

if t.TYPE_CHECKING:  # pragma: no cover
    from ..transport import TransportLayer

#: Membership states.
ACTIVE = "active"
DOWN = "down"


class SessionRouter:
    """Sticky session -> PoP assignment by rendezvous hashing."""

    def __init__(self, sim: Simulator, endpoints: t.Sequence[Endpoint],
                 name: str = "fleet-router") -> None:
        if not endpoints:
            raise FaultError("session router needs at least one endpoint")
        self.sim = sim
        self.name = name
        self.endpoints: t.List[Endpoint] = list(endpoints)
        self.status: t.Dict[Endpoint, str] = {
            endpoint: ACTIVE for endpoint in self.endpoints}
        #: Sticky assignment: session key -> endpoint.
        self._bindings: t.Dict[str, Endpoint] = {}
        #: Keys whose pop was evicted under them -> where they lived,
        #: kept so the rebind that follows is counted as a remap.
        self._displaced: t.Dict[str, Endpoint] = {}
        #: Forced reassignments: a key re-bound to a different endpoint.
        self.remaps = 0
        self.evictions = 0
        self.reinstatements = 0
        #: Session churn log: (time, key, old_endpoint, new_endpoint).
        self.churn: t.List[t.Tuple[float, str, str, str]] = []
        #: Membership events: (time, verb, endpoint).
        self.events: t.List[t.Tuple[float, str, str]] = []

    # -- rendezvous hashing ------------------------------------------------------

    @staticmethod
    def weight(key: str, endpoint: Endpoint) -> int:
        """Deterministic HRW weight of assigning ``key`` to ``endpoint``.

        blake2b, not builtin ``hash``: the latter is salted per process,
        which would scatter assignments across runner workers.
        """
        digest = hashlib.blake2b(
            f"{key}|{endpoint.address}:{endpoint.port}".encode(),
            digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def rank(self, key: str) -> t.List[Endpoint]:
        """All endpoints, best rendezvous weight first."""
        return sorted(self.endpoints,
                      key=lambda endpoint: self.weight(key, endpoint),
                      reverse=True)

    # -- routing -----------------------------------------------------------------

    def route(self, key: str,
              allow: t.Optional[t.Callable[[Endpoint], bool]] = None,
              ) -> t.Optional[Endpoint]:
        """The endpoint ``key`` should dial right now, or None.

        Sticky first: an existing binding is honoured while its pop is
        ACTIVE and passes ``allow``.  Otherwise the best-ranked ACTIVE
        endpoint that passes ``allow`` wins.  ``allow`` is only
        consulted until the first acceptance, so a circuit breaker's
        single half-open trial is never burned ranking endpoints the
        caller won't dial.
        """
        bound = self._bindings.get(key)
        if bound is not None and self.status.get(bound) == ACTIVE:
            if allow is None or allow(bound):
                return bound
        for endpoint in self.rank(key):
            if self.status.get(endpoint) != ACTIVE:
                continue
            if allow is None or allow(endpoint):
                return endpoint
        return None

    def binding(self, key: str) -> t.Optional[Endpoint]:
        """Current sticky endpoint for ``key``, or None if unbound."""
        return self._bindings.get(key)

    def bind(self, key: str, endpoint: Endpoint) -> None:
        """Record a successful dial: ``key`` now lives on ``endpoint``."""
        previous = self._bindings.get(key)
        if previous is None:
            previous = self._displaced.pop(key, None)
        if previous is not None and previous != endpoint:
            self.remaps += 1
            self.churn.append(
                (self.sim.now, key, str(previous), str(endpoint)))
        self._bindings[key] = endpoint

    def assignment(self) -> t.Dict[str, str]:
        """Snapshot of the sticky map (key -> endpoint name)."""
        return {key: str(endpoint)
                for key, endpoint in sorted(self._bindings.items())}

    def sessions_on(self, endpoint: Endpoint) -> t.List[str]:
        return sorted(key for key, bound in self._bindings.items()
                      if bound == endpoint)

    # -- membership (failure detector) -------------------------------------------

    def evict(self, endpoint: Endpoint) -> t.List[str]:
        """Remove a failed pop; invalidate (only) its sessions.

        Returns the session keys that lost their binding — the ~1/M of
        the fleet that must remap.  Everyone else's rendezvous top
        choice is unchanged, so nobody else moves.
        """
        self._require_member(endpoint)
        if self.status[endpoint] == DOWN:
            return []
        self.status[endpoint] = DOWN
        self.evictions += 1
        displaced = self.sessions_on(endpoint)
        for key in displaced:
            self._displaced[key] = self._bindings.pop(key)
        self.events.append((self.sim.now, "evict", str(endpoint)))
        return displaced

    def reinstate(self, endpoint: Endpoint) -> None:
        """A probed-healthy pop rejoins the ACTIVE set.

        Existing sessions stay where they failed over to (no flap-back
        churn); only *new* sessions whose rendezvous top choice is this
        pop land on it again.
        """
        self._require_member(endpoint)
        if self.status[endpoint] == ACTIVE:
            return
        self.status[endpoint] = ACTIVE
        self.reinstatements += 1
        self.events.append((self.sim.now, "reinstate", str(endpoint)))

    def _require_member(self, endpoint: Endpoint) -> None:
        if endpoint not in self.status:
            raise FaultError(f"{endpoint} is not a fleet member")


class FailureDetector:
    """Probe-driven membership: suspicion counting, evict, reinstate."""

    def __init__(
        self,
        sim: Simulator,
        router: SessionRouter,
        transport: "TransportLayer",
        interval: float = 10.0,
        timeout: float = 3.0,
        suspicion_threshold: int = 2,
        reinstate_threshold: int = 2,
    ) -> None:
        if suspicion_threshold < 1:
            raise FaultError(
                f"suspicion threshold must be >= 1, got {suspicion_threshold}")
        if reinstate_threshold < 1:
            raise FaultError(
                f"reinstate threshold must be >= 1, got {reinstate_threshold}")
        self.sim = sim
        self.router = router
        self.transport = transport
        self.interval = interval
        self.timeout = timeout
        self.suspicion_threshold = suspicion_threshold
        #: Reinstatement hysteresis: a DOWN pop must answer this many
        #: *consecutive* probes before it rejoins.  One flap-period of
        #: alternating ok/fail verdicts therefore never re-admits a pop
        #: the next flap would evict again.
        self.reinstate_threshold = reinstate_threshold
        self.rng = sim.rng.stream("fleet.detector")
        # Key space = the router's endpoint set, fixed at fleet launch.
        self.suspicion: t.Dict[Endpoint, int] = {}  # reprolint: disable=unbounded-cache-field
        self.healthy_streak: t.Dict[Endpoint, int] = {}  # reprolint: disable=unbounded-cache-field
        self.probes_sent = 0
        #: (time, endpoint, verdict) — every probe outcome, in order.
        self.log: t.List[t.Tuple[float, str, str]] = []
        self._started = False

    def start(self) -> t.List[t.Any]:
        """One staggered probe process per router endpoint (idempotent).

        Offsets are drawn in endpoint order from the ``fleet.detector``
        stream, so the stagger — like everything else — is a pure
        function of the seed.
        """
        if self._started:
            return []
        self._started = True
        processes = []
        for endpoint in self.router.endpoints:
            offset = self.rng.uniform(0.0, self.interval)
            processes.append(self.sim.process(
                self._probe_loop(endpoint, offset),
                name=f"fleet-detector:{endpoint}"))
        return processes

    def _probe_loop(self, endpoint: Endpoint, offset: float):
        yield self.sim.timeout(offset)
        while True:
            yield self.sim.timeout(self.interval)
            self.probes_sent += 1
            try:
                conn = yield self.transport.connect_tcp(
                    endpoint.address, endpoint.port, timeout=self.timeout)
            except TransportError:
                self._on_failure(endpoint)
                continue
            conn.close()
            self._on_success(endpoint)

    def _on_failure(self, endpoint: Endpoint) -> None:
        count = self.suspicion.get(endpoint, 0) + 1
        self.suspicion[endpoint] = count
        self.healthy_streak[endpoint] = 0
        self.log.append((self.sim.now, str(endpoint), "fail"))
        if (count >= self.suspicion_threshold
                and self.router.status.get(endpoint) == ACTIVE):
            self.router.evict(endpoint)

    def _on_success(self, endpoint: Endpoint) -> None:
        self.suspicion[endpoint] = 0
        streak = self.healthy_streak.get(endpoint, 0) + 1
        self.healthy_streak[endpoint] = streak
        self.log.append((self.sim.now, str(endpoint), "ok"))
        if (streak >= self.reinstate_threshold
                and self.router.status.get(endpoint) == DOWN):
            self.router.reinstate(endpoint)
