"""Deterministic fault injection against a running testbed.

A :class:`FaultSchedule` is a declarative list of timed fault events —
link flaps and degradations, proxy crashes with restarts, mid-session
GFW policy escalations, DNS-poison bursts.  ``install(testbed)``
returns a :class:`FaultInjector` whose processes apply each event at
its simulated time and revert the ones with a duration, appending every
action to a ``timeline`` of ``(time, kind, target, phase)`` tuples.

The schedule itself contains no randomness; scripts that want jittered
timing (see :mod:`repro.faults.scripts`) draw offsets from a named
:class:`~repro.sim.rng.RngRegistry` stream *while building* the
schedule, so one seed yields one byte-identical fault timeline.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass, field

from ..errors import FaultError, TransportError

if t.TYPE_CHECKING:  # pragma: no cover
    from ..gfw import GreatFirewall
    from ..measure.testbed import Testbed

#: Phases recorded in the injector timeline.
APPLY = "apply"
REVERT = "revert"


@dataclass
class FaultEvent:
    """One scripted fault: what, when, for how long, against whom."""

    at: float
    kind: str
    target: str
    duration: float = 0.0
    #: Kind-specific parameters (link loss, policy label, ...).
    params: t.Dict[str, t.Any] = field(default_factory=dict)

    def describe(self) -> str:
        tail = f" for {self.duration:.3f}s" if self.duration else ""
        return f"{self.kind}({self.target}) at {self.at:.3f}s{tail}"


class FaultSchedule:
    """A scripted, ordered set of fault events."""

    def __init__(self) -> None:
        self.events: t.List[FaultEvent] = []

    def add(self, event: FaultEvent) -> FaultEvent:
        if event.at < 0:
            raise FaultError(f"fault scheduled in the past: {event.describe()}")
        self.events.append(event)
        return event

    # -- builders ---------------------------------------------------------------

    def link_down(self, link: str, at: float, duration: float) -> FaultEvent:
        """Hard outage: the named link drops every packet while down."""
        return self.add(FaultEvent(at, "link-down", link, duration))

    def link_degrade(self, link: str, at: float, duration: float,
                     loss: float) -> FaultEvent:
        """Soft failure: the named link's loss rises, then reverts."""
        return self.add(FaultEvent(at, "link-degrade", link, duration,
                                   {"loss": loss}))

    def proxy_crash(self, host: str, at: float, downtime: float) -> FaultEvent:
        """Crash every service on ``host``; restart after ``downtime``.

        Models a process/VM crash: listeners vanish (new dials are
        refused), established connections are aborted with RSTs, and
        the restart re-registers the same services.
        """
        return self.add(FaultEvent(at, "proxy-crash", host, downtime))

    def gfw_policy(self, at: float, label: str,
                   mutation: t.Callable[["GreatFirewall"], t.Any],
                   revert: t.Optional[t.Callable[["GreatFirewall"], t.Any]] = None,
                   duration: float = 0.0) -> FaultEvent:
        """Mid-session policy escalation through the firewall's audited path."""
        if revert is None and duration:
            raise FaultError(f"gfw_policy {label!r} has a duration but no revert")
        return self.add(FaultEvent(
            at, "gfw-policy", label, duration,
            {"mutation": mutation, "revert": revert}))

    def dns_poison_burst(self, at: float, duration: float,
                         domain: str) -> FaultEvent:
        """Temporarily add ``domain`` to the poisoned-domain list."""
        return self.add(FaultEvent(at, "dns-poison", domain, duration))

    def load_spike(self, target: str, at: float, duration: float,
                   clients: int = 20, hostname: str = "scholar.google.com",
                   port: int = 443, proxy_port: int = 8080) -> FaultEvent:
        """A flash crowd against the proxy listening on ``target``.

        ``clients`` extra sessions arrive evenly spread over
        ``duration``, each opening a proxied stream for ``hostname``
        and holding it until the spike window ends.  Composes with the
        other fault kinds so overload and faults can hit simultaneously.
        """
        if clients < 1:
            raise FaultError(f"load_spike needs clients >= 1, got {clients}")
        if duration <= 0:
            raise FaultError("load_spike needs a positive duration")
        return self.add(FaultEvent(
            at, "load-spike", target, duration,
            {"clients": clients, "hostname": hostname, "port": port,
             "proxy_port": proxy_port}))

    # -- installation ------------------------------------------------------------

    def install(self, testbed: "Testbed") -> "FaultInjector":
        """Bind this schedule to a testbed and start its processes."""
        injector = FaultInjector(testbed, self)
        injector.start()
        return injector


class FaultInjector:
    """Executes a :class:`FaultSchedule` against one testbed."""

    def __init__(self, testbed: "Testbed", schedule: FaultSchedule) -> None:
        self.testbed = testbed
        self.schedule = schedule
        #: (time, kind, target, phase) tuples, in application order.
        self.timeline: t.List[t.Tuple[float, str, str, str]] = []
        self._started = False

    def start(self) -> None:
        """Spawn one process per event (idempotent)."""
        if self._started:
            return
        self._started = True
        sim = self.testbed.sim
        # Stable order: schedule ties resolve by insertion order.
        for index, event in enumerate(
                sorted(self.schedule.events, key=lambda e: e.at)):
            sim.process(self._run_event(event),
                        name=f"fault-{index}:{event.kind}")

    def _record(self, event: FaultEvent, phase: str) -> None:
        self.timeline.append(
            (round(self.testbed.sim.now, 9), event.kind, event.target, phase))
        trace = self.testbed.trace
        if trace is not None:
            trace.emit("fault." + phase, kind=event.kind,
                       target=event.target, duration=event.duration)

    def _run_event(self, event: FaultEvent):
        sim = self.testbed.sim
        if event.at > sim.now:
            yield sim.timeout(event.at - sim.now)
        revert = self._apply(event)
        self._record(event, APPLY)
        if revert is None:
            return
        yield sim.timeout(event.duration)
        revert()
        self._record(event, REVERT)

    # -- per-kind handlers -----------------------------------------------------

    def _apply(self, event: FaultEvent) -> t.Optional[t.Callable[[], None]]:
        handler = getattr(self, "_apply_" + event.kind.replace("-", "_"), None)
        if handler is None:
            raise FaultError(f"unknown fault kind {event.kind!r}")
        return handler(event)

    def _apply_link_down(self, event: FaultEvent):
        link = self.testbed.net.link_by_name(event.target)
        link.set_up(False)

        def revert() -> None:
            link.set_up(True)
        return revert

    def _apply_link_degrade(self, event: FaultEvent):
        link = self.testbed.net.link_by_name(event.target)
        saved_loss = link.loss
        link.set_conditions(event.params["loss"])

        def revert() -> None:
            link.set_conditions(saved_loss)
        return revert

    def _apply_proxy_crash(self, event: FaultEvent):
        host = self.testbed.net.node(event.target)
        transport = host.transport
        if transport is None:
            raise FaultError(f"{event.target} has no transport to crash")
        snapshot = transport.crash()

        def revert() -> None:
            transport.restore(snapshot)
        if not event.duration:
            return None  # a crash with no downtime never restarts
        return revert

    def _apply_gfw_policy(self, event: FaultEvent):
        gfw = self.testbed.gfw
        if gfw is None:
            raise FaultError("gfw-policy fault on a testbed with no firewall")
        gfw.apply_policy(event.params["mutation"], label=event.target)
        revert_mutation = event.params.get("revert")
        if revert_mutation is None:
            return None

        def revert() -> None:
            gfw.apply_policy(revert_mutation,
                             label=event.target + ":revert")
        return revert

    def _apply_load_spike(self, event: FaultEvent):
        testbed = self.testbed
        proxy_host = testbed.net.node(event.target)
        sources = list(getattr(testbed, "extra_clients", ())) or [testbed.client]
        clients = event.params["clients"]
        spacing = event.duration / clients
        for index in range(clients):
            source = sources[index % len(sources)]
            offset = index * spacing
            self.testbed.sim.process(
                self._spike_session(source, proxy_host.address,
                                    event.params["proxy_port"],
                                    event.params["hostname"],
                                    event.params["port"], offset,
                                    max(0.0, event.duration - offset)),
                name=f"spike-{index}")

        def spike_window_closed() -> None:
            return None  # sessions end on their own; this marks the timeline
        return spike_window_closed

    def _spike_session(self, source, address, proxy_port: int,
                       hostname: str, port: int, offset: float, hold: float):
        """One flash-crowd session: open a proxied stream, hold, leave."""
        sim = self.testbed.sim
        if offset > 0:
            yield sim.timeout(offset)
        transport = self.testbed.transport_of(source)
        try:
            conn = yield transport.connect_tcp(address, proxy_port,
                                               timeout=5.0)
        except TransportError:
            return
        try:
            conn.send_message(48, meta=("sc-connect", hostname, port))
            yield conn.recv_message()
        except TransportError:
            conn.close()
            return
        if hold > 0:
            yield sim.timeout(hold)
        conn.close()

    def _apply_dns_poison(self, event: FaultEvent):
        policy = self.testbed.policy
        policy.block_domain(event.target)

        def revert() -> None:
            policy.unblock_domain(event.target)
        return revert
