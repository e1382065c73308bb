"""The Great Firewall middlebox: the composed inspection pipeline.

Sits on the border link (the paper notes 99% of blocking happens at
the China–US border routers).  Per packet, in order:

1. **IP blocklist** — drop traffic to/from blocked addresses.
2. **DNS poisoning** — race forged answers for blocked names.
3. **Reset penalty** — during the post-keyword-hit window, all traffic
   between the offending pair is reset.
4. **Keyword filtering** — cleartext keyword hits trigger bidirectional
   RST injection plus a penalty window.
5. **DPI classification** — stateful per-flow labeling; labels map to
   interference (random drops at the configured rate), RST treatment
   (``blocked-sni``), or active-probe dispatch.

Everything is configurable via :class:`GfwConfig`, and the policy
object can be mutated mid-simulation — both knobs the arms-race
example and the ablation benches turn.
"""

from __future__ import annotations

import random
import typing as t
from dataclasses import dataclass, field

from ..net import Direction, Link, Middlebox, Packet, Verdict
from ..sim import Simulator, TraceLog
from ..transport.tcp import ACK_SIZE, RST_FLAGS, Segment
from .active_probing import ActiveProber
from .blocklist import BlockPolicy
from .dns_poisoning import DnsPoisoner
from .dpi import Classifier, default_classifiers
from .flow_table import FlowTable


@dataclass
class GfwConfig:
    """Feature switches and tunables for one firewall instance."""

    ip_blocking: bool = True
    dns_poisoning: bool = True
    keyword_filtering: bool = True
    dpi: bool = True
    active_probing: bool = False
    #: Seconds of all-traffic resets after a keyword hit.
    reset_penalty_seconds: float = 90.0
    #: Name of the node on the Chinese side of the monitored link.
    inside_name: str = "border-cn"


@dataclass
class GfwStats:
    """Observability counters."""

    packets_seen: int = 0
    ip_blocked: int = 0
    dns_injections: int = 0
    keyword_resets: int = 0
    sni_resets: int = 0
    interference_drops: int = 0
    probes_dispatched: int = 0
    flows_labeled: t.Dict[str, int] = field(default_factory=dict)


class GreatFirewall(Middlebox):
    """The composed GFW inspection pipeline."""

    name = "gfw"

    def __init__(
        self,
        sim: Simulator,
        policy: BlockPolicy,
        config: t.Optional[GfwConfig] = None,
        rng: t.Optional[random.Random] = None,
        trace: t.Optional[TraceLog] = None,
        prober: t.Optional[ActiveProber] = None,
        name: t.Optional[str] = None,
    ) -> None:
        # Per-instance name so multi-region deployments (one firewall
        # per border link) stay distinguishable in traces and logs.
        if name is not None:
            self.name = name
        self.sim = sim
        self.policy = policy
        self.config = config or GfwConfig()
        self.rng = rng if rng is not None else sim.rng.stream("gfw.interference")
        self.trace = trace
        self.prober = prober
        self.classifiers: t.List[Classifier] = default_classifiers()
        self.flows = FlowTable()
        self.poisoner = DnsPoisoner(sim, policy)
        self.stats = GfwStats()
        #: Audit log of mid-sim policy changes: (time, label) pairs.
        self.policy_log: t.List[t.Tuple[float, str]] = []
        # Tag-indexed classifier dispatch, built lazily per protocol tag
        # and guarded by a snapshot of the classifier list so direct
        # mutations of ``self.classifiers`` (the arms-race example
        # appends mid-sim) invalidate it on the next packet.
        self._dispatch_cache: t.Dict[str, t.List[Classifier]] = {}
        self._dispatch_snapshot: t.Optional[t.List[Classifier]] = None

    # -- mid-sim policy changes --------------------------------------------------------

    def apply_policy(self, mutation: t.Callable[["GreatFirewall"], t.Any],
                     label: str = "policy-change") -> None:
        """Apply ``mutation(self)`` now, through the audited path.

        All mid-simulation :class:`GfwConfig`/:class:`BlockPolicy`
        changes — arms-race escalations, fault scripts, ablations —
        should go through here so each change lands in ``policy_log``
        and the trace.
        """
        mutation(self)
        self._dispatch_snapshot = None  # mutation may have swapped classifiers
        fluid = getattr(self.sim, "fluid", None)
        if fluid is not None:
            # Fluidized flows were vetted against the *old* policy;
            # force them back to packet level to re-prove themselves.
            fluid.on_policy_change(label)
        caches = getattr(self.sim, "caches", None)
        if caches is not None:
            # Cached responses were fetched under the *old* policy; a
            # change in what is reachable must not be masked by a hit.
            caches.on_policy_change(label)
        self.policy_log.append((self.sim.now, label))
        self._trace_plain("gfw.policy-change", label=label)

    # -- middlebox entry point ---------------------------------------------------------

    def process(self, packet: Packet, direction: Direction, link: Link) -> Verdict:
        self.stats.packets_seen += 1

        if self.config.ip_blocking and (
                self.policy.ip_blocked(packet.src)
                or self.policy.ip_blocked(packet.dst)):
            self.stats.ip_blocked += 1
            self._trace("gfw.ip-block", packet)
            return Verdict.DROP

        # ``DnsPoisoner.inspect`` looks at UDP only, and ``keyword_hit``
        # finds nothing in no plaintext: both are skipped, not called.
        if self.config.dns_poisoning and packet.protocol == "udp":
            before = self.poisoner.injections
            self.poisoner.inspect(packet, direction, link)
            if self.poisoner.injections > before:
                self.stats.dns_injections += 1

        if self.config.keyword_filtering:
            if self.flows.penalized(packet.src, packet.dst, self.sim._now):
                self._reset_both_ways(packet, link)
                return Verdict.DROP
            plaintext = packet.features.plaintext
            keyword = self.policy.keyword_hit(plaintext) if plaintext else None
            if keyword is not None:
                self.stats.keyword_resets += 1
                self.flows.penalize(packet.src, packet.dst,
                                    self.sim._now + self.config.reset_penalty_seconds)
                self._trace("gfw.keyword", packet, keyword=keyword)
                self._reset_both_ways(packet, link)
                return Verdict.DROP

        if not self.config.dpi:
            return Verdict.PASS

        state = self.flows.observe(packet.flow, packet.size, self.sim._now)
        if state is None:
            return Verdict.PASS

        if state.label is None:
            for classifier in self._classifiers_for(packet.features.protocol_tag):
                result = classifier.classify(packet, state, self.policy)
                if result is not None:
                    state.label, state.confidence = result
                    self.stats.flows_labeled[state.label] = (
                        self.stats.flows_labeled.get(state.label, 0) + 1)
                    self._trace("gfw.classified", packet, label=state.label,
                                confidence=state.confidence)
                    break

        if state.label is None:
            return Verdict.PASS

        if state.label in self.policy.rst_classes:
            self.stats.sni_resets += 1
            self._reset_both_ways(packet, link)
            return Verdict.DROP

        self._maybe_dispatch_probe(packet, direction, state)

        loss_rate = self.policy.interference_for(state.label)
        if loss_rate > 0 and self.rng.random() < loss_rate:
            self.stats.interference_drops += 1
            self._trace("gfw.interference", packet, label=state.label)
            return Verdict.DROP
        return Verdict.PASS

    def _classifiers_for(self, tag: str) -> t.List[Classifier]:
        """Classifiers whose :attr:`~.dpi.Classifier.match_tags` admit ``tag``.

        Evaluation order within the returned list matches the full
        chain's, so dispatch is order-equivalent to running every
        classifier (non-matching ones return ``None`` by contract).
        """
        if self._dispatch_snapshot != self.classifiers:
            self._dispatch_cache = {}
            self._dispatch_snapshot = list(self.classifiers)
        matched = self._dispatch_cache.get(tag)
        if matched is None:
            matched = [classifier for classifier in self.classifiers
                       if classifier.match_tags is None
                       or tag in classifier.match_tags]
            self._dispatch_cache[tag] = matched
        return matched

    # -- actions ---------------------------------------------------------------------------

    def _reset_both_ways(self, packet: Packet, link: Link) -> None:
        """Inject forged RSTs toward both endpoints of a TCP flow."""
        if packet.protocol != "tcp":
            return
        segment = packet.payload
        if not isinstance(segment, Segment):
            return
        to_receiver = Packet(
            src=packet.src, dst=packet.dst, protocol="tcp",
            payload=Segment(segment.sport, segment.dport, seq=segment.seq,
                            ack=segment.ack, flags=RST_FLAGS),
            size=ACK_SIZE, flow=packet.flow)
        to_sender = Packet(
            src=packet.dst, dst=packet.src, protocol="tcp",
            payload=Segment(segment.dport, segment.sport, seq=segment.ack,
                            ack=segment.seq, flags=RST_FLAGS),
            size=ACK_SIZE, flow=packet.flow)
        link.inject(to_receiver, toward=self._node_toward(link, packet.dst))
        link.inject(to_sender, toward=self._node_toward(link, packet.src))

    @staticmethod
    def _node_toward(link: Link, address) -> t.Any:
        """Pick the link endpoint that leads toward ``address``.

        The endpoint whose route to the address does *not* go back
        across this very link is the one on the address's side.
        """
        from ..errors import RoutingError
        for node in (link.a, link.b):
            if node.owns(address):
                return node
            try:
                out = node.route_for(address)
            except RoutingError:
                continue
            if out is not link:
                return node
        return link.b

    def _maybe_dispatch_probe(self, packet: Packet, direction: Direction,
                              state) -> None:
        if (self.prober is None or not self.config.active_probing
                or state.probed or state.confidence >= 0.95
                or state.label != "shadowsocks"):
            return
        state.probed = True
        # The server side is the destination of outbound packets.
        outbound = direction.sender == self.config.inside_name
        server_addr = packet.dst if outbound else packet.src
        segment = packet.payload
        server_port = None
        if isinstance(segment, Segment):
            server_port = segment.dport if outbound else segment.sport
        if server_port is None:
            return
        self.stats.probes_dispatched += 1
        self.prober.suspect(server_addr, server_port,
                            on_confirm=self._on_probe_confirm)

    def _on_probe_confirm(self, address: str) -> None:
        self.policy.block_ip(address)
        fluid = getattr(self.sim, "fluid", None)
        if fluid is not None:
            fluid.on_policy_change("probe-confirmed")
        caches = getattr(self.sim, "caches", None)
        if caches is not None:
            caches.on_policy_change("probe-confirmed")
        self._trace_plain("gfw.probe-confirmed", address=address)

    # -- tracing -------------------------------------------------------------------------------

    def _trace(self, category: str, packet: Packet, **fields: t.Any) -> None:
        if self.trace is not None:
            self.trace.emit(category, packet_id=packet.packet_id,
                            src=str(packet.src), dst=str(packet.dst),
                            flow=packet.flow, **fields)

    def _trace_plain(self, category: str, **fields: t.Any) -> None:
        if self.trace is not None:
            self.trace.emit(category, **fields)
