"""Network builder: nodes, links, and automatic route computation.

:class:`Network` is the container a scenario assembles: add hosts and
routers, connect them with links, then call :meth:`build_routes` to
install latency-weighted shortest-path next hops everywhere.  Stub
nodes (one link) get a default route only; Dijkstra runs from each
node with two or more links, so route building scales with the few
routers and multi-homed hosts, not with the client population.
"""

from __future__ import annotations

import heapq
import typing as t

from ..errors import NetworkError
from ..sim import RngRegistry, Simulator, TraceLog
from .link import Link
from .node import Host, Node, Router


class Network:
    """A set of nodes and links under one simulator."""

    def __init__(
        self,
        sim: Simulator,
        rng: t.Optional[RngRegistry] = None,
        trace: t.Optional[TraceLog] = None,
    ) -> None:
        self.sim = sim
        self.rng = rng if rng is not None else sim.rng
        self.trace = trace if trace is not None else TraceLog(sim)
        # Topology tables: filled while the testbed is built, static
        # once traffic flows — bounded by the experiment's host count.
        self.nodes: t.Dict[str, Node] = {}  # reprolint: disable=unbounded-cache-field
        self.links: t.List[Link] = []

    # -- construction -----------------------------------------------------------

    def _register(self, node: Node, address: t.Optional[str]) -> None:
        if node.name in self.nodes:
            raise NetworkError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        if address is not None:
            node.add_address(address)

    def add_host(self, name: str, address: t.Optional[str] = None) -> Host:
        host = Host(self.sim, name, trace=self.trace)
        self._register(host, address)
        return host

    def add_router(self, name: str, address: t.Optional[str] = None) -> Router:
        router = Router(self.sim, name, trace=self.trace)
        self._register(router, address)
        return router

    def connect(
        self,
        a: t.Union[str, Node],
        b: t.Union[str, Node],
        latency: float,
        bandwidth: float,
        loss: float = 0.0,
        name: t.Optional[str] = None,
    ) -> Link:
        """Create a full-duplex link between two nodes."""
        node_a = self.node(a)
        node_b = self.node(b)
        link = Link(
            self.sim, node_a, node_b, latency, bandwidth, loss,
            rng=self.rng.stream(f"link:{name or (node_a.name + '-' + node_b.name)}"),
            name=name, trace=self.trace)
        self.links.append(link)
        return link

    # -- lookup -----------------------------------------------------------------

    def node(self, ref: t.Union[str, Node]) -> Node:
        if isinstance(ref, Node):
            return ref
        found = self.nodes.get(ref)
        if found is None:
            raise NetworkError(f"unknown node {ref!r}")
        return found

    def link_between(self, a: t.Union[str, Node], b: t.Union[str, Node]) -> Link:
        node_a, node_b = self.node(a), self.node(b)
        for link in node_a.links:
            if link.peer_of(node_a) is node_b:
                return link
        raise NetworkError(f"no link between {node_a.name} and {node_b.name}")

    def link_by_name(self, name: str) -> Link:
        """Find a link by its ``name=`` label (fault injection targets)."""
        for link in self.links:
            if link.name == name:
                return link
        raise NetworkError(f"no link named {name!r}")

    # -- routing ----------------------------------------------------------------

    def build_routes(self) -> None:
        """Install latency-weighted shortest-path next hops on all nodes.

        A stub node (single link) gets only a default route over that
        link: every first hop it could have is that link, so per-host
        routes would add nothing.  Traffic to unknown destinations
        (e.g. addresses forged by DNS poisoning) is carried toward the
        core and blackholed there rather than erroring at the sender —
        matching how real hosts behave behind a default gateway.  Nodes
        with two or more links get a host route to every address they
        can reach, from one Dijkstra run each.
        """
        for origin in self.nodes.values():
            origin.clear_routes()
            if len(origin.links) == 1:
                origin.set_default_route(origin.links[0])
                continue
            first_hop = self._dijkstra_first_hops(origin)
            for target, link in first_hop.items():
                for address in target.addresses:
                    origin.add_host_route(address, link)

    def _dijkstra_first_hops(self, origin: Node) -> t.Dict[Node, Link]:
        """Map every reachable node to the first link out of ``origin``."""
        dist: t.Dict[str, float] = {origin.name: 0.0}
        first: t.Dict[Node, Link] = {}
        counter = 0
        heap: t.List[t.Tuple[float, int, Node, t.Optional[Link]]] = [
            (0.0, counter, origin, None)]
        visited: t.Set[str] = set()
        while heap:
            cost, _tie, node, via = heapq.heappop(heap)
            if node.name in visited:
                continue
            visited.add(node.name)
            if via is not None:
                first[node] = via
            for link in node.links:
                peer = link.peer_of(node)
                next_cost = cost + link.latency
                if next_cost < dist.get(peer.name, float("inf")):
                    dist[peer.name] = next_cost
                    counter += 1
                    heapq.heappush(
                        heap,
                        (next_cost, counter, peer, via if via is not None else link))
        return first
