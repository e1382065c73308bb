"""Stateful flow tracking for the firewall.

The GFW is stateful: classification decisions are made from the first
packets of a flow and then remembered, so interference applies to the
whole flow.  The table also records per-flow timing used by the meek
poll-pattern detector and supports temporary penalty entries (the
post-keyword-hit connection-reset window).
"""

from __future__ import annotations

import typing as t
from collections import deque

from ..net import IPv4Address

FlowKey = t.Tuple[t.Any, ...]

#: Cap on per-flow timing samples.  The meek poll detector only ever
#: needs its front-seen sentinel plus ``min_polls`` recent timestamps,
#: but long-lived polling flows used to accumulate one entry per small
#: packet for the life of the connection — exactly the unbounded-queue
#: pattern reprolint polices.
RECENT_TIMES_MAX = 64
#: Flow-table size at which idle flows are evicted.
MAX_FLOWS = 100_000
#: Seconds without a packet after which a flow counts as idle.
IDLE_TIMEOUT = 120.0


def canonical_flow(flow: t.Optional[FlowKey]) -> t.Optional[FlowKey]:
    """Direction-independent flow key."""
    if flow is None:
        return None
    if len(flow) == 5:
        proto, src, sport, dst, dport = flow
        a, b = (str(src), sport), (str(dst), dport)
        return (proto,) + (a + b if a <= b else b + a)
    return flow


class FlowState:
    """Firewall-side state for one flow.

    Slotted: the table keeps one per flow for as long as it keeps the
    flow.  ``recent_times`` reads as an empty sequence until
    :meth:`record_time` first records a timestamp, so a flow that the
    poll detector never samples, almost every flow, carries no deque.
    """

    __slots__ = ("key", "first_seen", "packets", "bytes", "label",
                 "confidence", "recent_times", "probed", "last_seen")

    def __init__(self, key: FlowKey, first_seen: float) -> None:
        self.key = key
        self.first_seen = first_seen
        self.packets = 0
        self.bytes = 0
        #: Assigned traffic-class label, once a classifier fires.
        self.label: t.Optional[str] = None
        self.confidence = 0.0
        #: Timestamps of recent small upstream packets (poll detection);
        #: bounded — old samples fall off the left.
        self.recent_times: t.Sequence[float] = ()
        #: True once an active probe has been dispatched for this flow.
        self.probed = False
        self.last_seen = 0.0

    def record_time(self, timestamp: float) -> None:
        """Append a poll-detection sample, keeping the last
        :data:`RECENT_TIMES_MAX`."""
        times = self.recent_times
        if not isinstance(times, deque):
            times = self.recent_times = deque(maxlen=RECENT_TIMES_MAX)
        times.append(timestamp)


class FlowTable:
    """Bounded flow-state store with idle eviction.

    Each state is kept under its direction-independent key
    (:func:`canonical_flow`) and indexed by the flow tuple of each
    direction that has been seen, so a packet's lookup hashes the tuple
    it carries and builds no key.
    """

    def __init__(self) -> None:
        self._flows: t.Dict[FlowKey, FlowState] = {}
        #: Each direction's own flow tuple -> its flow's state.  None
        #: is never a key, so a packet without a flow finds nothing.
        self._index: t.Dict[t.Optional[FlowKey], FlowState] = {}
        #: (src, dst) address pairs under a temporary reset penalty,
        #: with expiry.
        self._penalties: t.Dict[t.Tuple[IPv4Address, IPv4Address], float] = {}

    def __len__(self) -> int:
        return len(self._flows)

    def observe(self, flow: t.Optional[FlowKey], size: int, now: float) -> t.Optional[FlowState]:
        state = self._index.get(flow)
        if state is None:
            state = self._state_for(flow, now)
            if state is None:
                return None
        state.packets += 1
        state.bytes += size
        state.last_seen = now
        return state

    def observe_bulk(self, flow: t.Optional[FlowKey], packets: int,
                     size: int, now: float) -> t.Optional[FlowState]:
        """Account a fluidized burst without per-packet ``observe`` calls.

        Timing samples (``recent_times``) are deliberately not touched:
        a flow only fluidizes once cadence-based classification is
        settled, so bulk traffic carries no per-packet timestamps.
        """
        state = self._index.get(flow)
        if state is None:
            state = self._state_for(flow, now)
            if state is None:
                return None
        state.packets += packets
        state.bytes += size
        state.last_seen = now
        return state

    def get(self, flow: t.Optional[FlowKey]) -> t.Optional[FlowState]:
        state = self._index.get(flow)
        if state is not None:
            return state
        key = canonical_flow(flow)
        if key is None:
            return None
        return self._flows.get(key)

    def _state_for(self, flow: t.Optional[FlowKey],
                   now: float) -> t.Optional[FlowState]:
        """The state of a direction not indexed yet, created if new."""
        key = canonical_flow(flow)
        if key is None:
            return None
        state = self._flows.get(key)
        if state is None:
            self._evict_if_needed(now)
            state = FlowState(key=key, first_seen=now)
            self._flows[key] = state
        self._index[flow] = state
        return state

    def _evict_if_needed(self, now: float) -> None:
        if len(self._flows) < MAX_FLOWS:
            return
        cutoff = now - IDLE_TIMEOUT
        self._flows = {key: state for key, state in self._flows.items()
                       if state.last_seen >= cutoff}
        self._index = {flow: state for flow, state in self._index.items()
                       if state.last_seen >= cutoff}

    # -- penalty window ----------------------------------------------------------

    def penalize(self, src: IPv4Address, dst: IPv4Address, until: float) -> None:
        """All (src, dst) traffic is reset until ``until`` (keyword hit)."""
        self._penalties[(src, dst)] = until
        self._penalties[(dst, src)] = until

    def penalized(self, src: IPv4Address, dst: IPv4Address, now: float) -> bool:
        if not self._penalties:
            return False
        expiry = self._penalties.get((src, dst))
        if expiry is None:
            return False
        if expiry < now:
            del self._penalties[(src, dst)]
            self._penalties.pop((dst, src), None)
            return False
        return True
