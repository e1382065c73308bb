"""A packet-level TCP model.

Faithful enough that the paper's mechanisms emerge:

* 3-way handshake with SYN retransmission (exponential backoff) — the
  GFW's SYN-eating and RST injection manifest as connect latency or
  :class:`~repro.errors.ConnectionReset`.
* Sliding-window transfer with slow start / AIMD congestion avoidance,
  RFC 6298-style RTO estimation, timeout retransmission, and
  triple-duplicate-ACK fast retransmit — random loss inflates transfer
  time the way it does for real flows, which is how GFW-added loss
  turns into the paper's PLT differences.
* Application *messages*: the app enqueues (length, meta) payloads;
  the receiver gets each meta back once all its bytes arrive in order.
  This gives byte-accurate traffic accounting without simulating
  payload bytes.

* Delayed ACKs (RFC 1122): ack every second segment or within 40 ms,
  with immediate ACKs on out-of-order data so fast retransmit works.

The model deliberately omits: SACK, window scaling (windows here are
already in segments), and Nagle.
"""

from __future__ import annotations

import functools
import typing as t

from ..errors import (
    ConnectionReset,
    ConnectionTimeout,
    TransportError,
)
from ..net import IP_HEADER, MSS, TCP_HEADER, IPv4Address, Packet, WireFeatures
from ..net.packet import DEFAULT_FEATURES
from ..sim import Event, LazyTimer, Simulator, Store

if t.TYPE_CHECKING:  # pragma: no cover
    from .sockets import TransportLayer

#: Handshake segment size (IP + TCP with options).
SYN_SIZE = IP_HEADER + TCP_HEADER + 12
#: Pure-ACK segment size.
ACK_SIZE = IP_HEADER + TCP_HEADER
#: Initial congestion window in segments (RFC 6928).
INITIAL_CWND = 10
#: Initial retransmission timeout (RFC 6298).
INITIAL_RTO = 1.0
#: Floor for the computed RTO.
MIN_RTO = 0.2
#: Ceiling for backed-off RTOs.
MAX_RTO = 30.0
#: SYN retry limit before the connect attempt fails.
SYN_RETRIES = 6
#: FIN retransmissions before giving up on confirming EOF delivery.
FIN_RETRIES = 6

#: Segment flag sets, shared by every segment that carries them.
ACK_FLAGS = frozenset({"ACK"})
SYN_FLAGS = frozenset({"SYN"})
SYN_ACK_FLAGS = frozenset({"SYN", "ACK"})
FIN_ACK_FLAGS = frozenset({"FIN", "ACK"})
RST_FLAGS = frozenset({"RST"})


@functools.lru_cache(maxsize=256)
def _syn_features(protocol_tag: str, sni: t.Optional[str]) -> WireFeatures:
    """Wire features of a SYN (with the SNI its connection names) or a
    SYN+ACK (``sni`` None) of a connection with this protocol tag.

    One shared value per pair: ``WireFeatures`` is frozen, and nothing
    compares features by identity.
    """
    return WireFeatures(protocol_tag=protocol_tag, sni=sni, handshake=True,
                        entropy=0.5)


class Segment:
    """TCP segment carried as a packet payload.

    ``message_ends`` holds the ``(end_offset, meta)`` pairs of the
    application messages ending inside this segment, ascending.  Slotted,
    and built with positional arguments on the hot path; ``==`` compares
    the fields, as a dataclass's does, so a segment is unhashable.
    """

    __slots__ = ("sport", "dport", "seq", "ack", "flags", "length",
                 "message_ends")

    def __init__(self, sport: int, dport: int, seq: int, ack: int,
                 flags: t.FrozenSet[str], length: int = 0,
                 message_ends: t.Tuple[t.Tuple[int, t.Any], ...] = ()) -> None:
        self.sport = sport
        self.dport = dport
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.length = length
        self.message_ends = message_ends

    def wire_size(self) -> int:
        return IP_HEADER + TCP_HEADER + self.length

    def _fields(self) -> t.Tuple[t.Any, ...]:
        return (self.sport, self.dport, self.seq, self.ack, self.flags,
                self.length, self.message_ends)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == t.cast(Segment, other)._fields()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Segment({self.sport}->{self.dport} seq={self.seq} "
                f"ack={self.ack} {sorted(self.flags)} len={self.length})")


class _SendBuffer:
    """Outgoing byte stream with message boundaries.

    Only boundaries past the oldest unacknowledged byte are kept:
    :meth:`acked` drops the rest, so the state is bounded by the bytes
    in flight or still queued, not by everything the connection ever
    sent.  Every (re)transmission starts at or above ``snd_una``, so a
    dropped boundary can never fall inside a segment still to be sent.
    """

    __slots__ = ("length", "_boundaries", "_features")

    def __init__(self) -> None:
        self.length = 0  # total bytes ever enqueued
        # (end_offset, meta) and (end_offset, features), ascending.
        # Lists, not deques: they hold a few entries, and every live
        # connection keeps its buffer.
        self._boundaries: t.List[t.Tuple[int, t.Any]] = []
        self._features: t.List[t.Tuple[int, WireFeatures]] = []

    def enqueue(self, length: int, meta: t.Any,
                features: t.Optional[WireFeatures]) -> None:
        """Append an application message: ``length`` bytes, ``meta``."""
        self.length += length
        self._boundaries.append((self.length, meta))
        if features is not None:
            self._features.append((self.length, features))

    def acked(self, snd_una: int) -> None:
        """Forget boundaries at or below ``snd_una`` (now acknowledged).

        Every features entry sits at the offset of a boundary, so when
        the first boundary lies past ``snd_una`` there is nothing to do.
        """
        _drop_through(self._boundaries, snd_una)
        _drop_through(self._features, snd_una)

    def ends_in(self, start: int, end: int) -> t.Tuple[t.Tuple[int, t.Any], ...]:
        ends = []
        for entry in self._boundaries:
            if entry[0] > end:
                break
            if entry[0] > start:
                ends.append(entry)
        return tuple(ends)

    def features_for(self, start: int) -> t.Optional[WireFeatures]:
        for end_offset, features in self._features:
            if start < end_offset:
                return features
        return None

    def skip(self, length: int) -> None:
        """Account ``length`` bytes carried out-of-band (fluid fast path).

        No boundary is recorded: the fluid path delivers the message
        meta directly, so the packet machinery must never see it.
        """
        self.length += length


def _drop_through(entries: t.List[t.Tuple[int, t.Any]], offset: int) -> None:
    """Delete the leading entries whose end offset is at most ``offset``."""
    count = 0
    for end_offset, _value in entries:
        if end_offset > offset:
            break
        count += 1
    del entries[:count]


class _InFlight:
    """A sent segment awaiting its ACK."""

    __slots__ = ("segment", "sent_at", "retransmitted")

    def __init__(self, segment: Segment, sent_at: float) -> None:
        self.segment = segment
        self.sent_at = sent_at
        self.retransmitted = False


class TcpConnection:
    """One endpoint of an established (or establishing) TCP connection.

    Slotted, so what a live connection keeps is small.  Its transport
    forgets it when it ends (:meth:`_end`): once its own FIN is acked
    and the peer's FIN has arrived, once it gives up on its FIN, on a
    reset, or when a connect fails.  It holds no reference cycle after
    that, so reference counting frees it as soon as the application
    and the queued timers let go.
    """

    __slots__ = (
        "transport", "sim", "local_addr", "local_port", "remote_addr",
        "remote_port", "flow", "features", "state", "cache_served",
        # Sender.
        "_send_buffer", "_snd_una", "_snd_nxt", "_cwnd", "_ssthresh",
        "_dup_acks", "_in_flight",
        # RTO estimation and the handshake.
        "_srtt", "_rttvar", "_rto", "_rto_timer", "_rto_timer_version",
        "_syn_sent_at", "_syn_tries", "_connect_event", "_connect_timeout",
        # Receiver and orderly close.
        "_rcv_nxt", "_ooo", "_inbox", "_peer_closed",
        "_fin_seq", "_fin_acked", "_fin_tries", "_unacked_segments",
        "_delack_timer",
        # Accounting.
        "bytes_sent", "bytes_received", "packets_sent", "retransmissions",
        # Fluid fast path.
        "_fluid_horizon", "_fluid_pending", "_fluid_block", "_fluid_epoch",
        "_fluid_peer", "_fluid_path",
    )

    # Connection states.
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    CLOSED = "CLOSED"
    RESET = "RESET"

    def __init__(
        self,
        transport: "TransportLayer",
        local_addr: IPv4Address,
        local_port: int,
        remote_addr: IPv4Address,
        remote_port: int,
        features: t.Optional[WireFeatures] = None,
    ) -> None:
        self.transport = transport
        self.sim: Simulator = transport.sim
        self.local_addr = local_addr
        self.local_port = local_port
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        #: The 5-tuple every packet of this connection carries; the
        #: addresses and ports never change after construction.
        self.flow: t.Tuple[t.Any, ...] = (
            "tcp", str(local_addr), local_port, str(remote_addr), remote_port)
        #: Default wire features for data segments of this connection;
        #: one opened without any shares ``DEFAULT_FEATURES``.
        self.features = features or DEFAULT_FEATURES
        self.state = self.CLOSED
        #: Set by an edge cache that answers this stream itself: its
        #: plaintext features then no longer keep the fluid path off.
        self.cache_served = False

        # Sender state.
        self._send_buffer = _SendBuffer()
        self._snd_una = 0      # oldest unacknowledged byte
        self._snd_nxt = 0      # next byte to send
        self._cwnd = float(INITIAL_CWND)      # in segments
        self._ssthresh = 64.0
        self._dup_acks = 0
        # Keyed by seq, in insertion order, which is sequence order:
        # only new data is inserted, always at ``_snd_nxt``.
        self._in_flight: t.Dict[int, _InFlight] = {}

        # RTO estimation (RFC 6298).
        self._srtt: t.Optional[float] = None
        self._rttvar = 0.0
        self._rto = INITIAL_RTO
        self._rto_timer = LazyTimer(self.sim, self._on_rto)
        # Versions the SYN timer only: it is armed again only after it
        # fired, so there is no chain of re-arms for laziness to fold.
        self._rto_timer_version = 0
        self._syn_sent_at = 0.0
        self._syn_tries = 0
        self._connect_event: t.Optional[Event] = None
        #: A connect timeout longer than the first SYN timer, until
        #: that timer queues its deadline (see :meth:`start_connect`).
        self._connect_timeout: t.Optional[float] = None

        # Receiver state.
        self._rcv_nxt = 0
        self._ooo: t.Dict[int, Segment] = {}     # out-of-order segments by seq
        self._inbox: Store = Store(self.sim)
        self._peer_closed = False
        # Orderly-close state: the FIN occupies one sequence number and
        # is retransmitted until the peer acknowledges it — a single
        # lost FIN must not strand a reader waiting for EOF forever.
        self._fin_seq: t.Optional[int] = None
        self._fin_acked = False
        self._fin_tries = 0
        # Delayed-ACK state (RFC 1122: ack at least every 2nd segment
        # or within 40 ms).
        self._unacked_segments = 0
        self._delack_timer = LazyTimer(self.sim, self._on_delack_timer)

        # Accounting.
        self.bytes_sent = 0
        self.bytes_received = 0
        self.packets_sent = 0
        self.retransmissions = 0

        # Fluid fast-path state (see repro.perf.fluid); inert in packet
        # mode — nothing below is touched unless sim.fluid is installed.
        self._fluid_horizon = 0.0       # latest scheduled fluid delivery
        self._fluid_pending = 0         # bytes in fluid flight
        self._fluid_block = 0           # packets_sent gate after de-fluidization
        self._fluid_epoch: t.Optional[int] = None
        self._fluid_peer: t.Optional["TcpConnection"] = None
        self._fluid_path: t.Optional[t.Any] = None

    # -- public API --------------------------------------------------------------

    def send_message(self, length: int, meta: t.Any = None,
                     features: t.Optional[WireFeatures] = None) -> None:
        """Enqueue an application message for transmission."""
        if self.state == self.RESET:
            raise ConnectionReset(f"{self.flow}: connection was reset")
        if length <= 0:
            raise TransportError(f"message length must be positive: {length}")
        fluid = self.sim.fluid
        if fluid is not None and fluid.try_transfer(self, length, meta, features):
            return
        self._send_buffer.enqueue(length, meta, features)
        self._pump()

    def recv_message(self) -> Event:
        """Event that fires with the next (length, meta) delivered in order.

        Fails with :class:`ConnectionReset` if the connection is reset
        while waiting; fires with ``None`` on orderly close (EOF).
        """
        if self.state == self.RESET:
            failed = self.sim.event()
            failed.fail(ConnectionReset(f"{self.flow}: connection was reset"))
            return failed
        return self._inbox.get()

    def close(self) -> None:
        """Orderly close (modeled as a FIN that delivers EOF at the peer)."""
        if self.state in (self.CLOSED, self.RESET):
            return
        self.state = self.CLOSED
        # A fluid delivery still in flight must reach the peer before
        # EOF; defer the FIN to the fluid horizon (packet mode: 0.0,
        # so the FIN goes out synchronously as it always did).
        delay = self._fluid_horizon - self.sim._now
        if delay > 0:
            self.sim.schedule(delay, self._emit_fin)
        else:
            self._emit_fin()

    def _emit_fin(self) -> None:
        """Send (or resend) the FIN; rearm until the peer acks it.

        The FIN consumes one sequence number past the data stream, so
        the peer's cumulative ACK of ``_fin_seq + 1`` confirms EOF
        delivery.  Links drop packets; without this a close racing a
        drop leaves the peer blocked on ``recv_message`` forever.
        """
        if self.state != self.CLOSED or self._fin_acked:
            return  # reset in the meantime, or EOF already confirmed
        if self._fin_tries >= FIN_RETRIES:
            self._end()  # peer unreachable; give up like a real stack
            return
        if self._fin_seq is None:
            self._fin_seq = self._snd_nxt
        self._fin_tries += 1
        if self._fin_tries > 1:
            self.retransmissions += 1
        fin = Segment(self.local_port, self.remote_port, self._fin_seq,
                      self._rcv_nxt, FIN_ACK_FLAGS)
        self._emit(fin, ACK_SIZE, self.features)
        backoff = min(self._rto * (2 ** (self._fin_tries - 1)), MAX_RTO)
        self.sim.schedule(backoff, self._emit_fin)

    def abort(self) -> None:
        """Send a RST and tear down immediately."""
        if self.state == self.RESET:
            return
        rst = Segment(self.local_port, self.remote_port, self._snd_nxt,
                      self._rcv_nxt, RST_FLAGS)
        self._emit(rst, ACK_SIZE, self.features)
        self._enter_reset(local=True)

    # -- connection establishment ---------------------------------------------------

    def start_connect(self, timeout: t.Optional[float] = None) -> Event:
        """Client side: send SYN; event fires with self when established.

        A connect that outlives ``timeout`` fails with
        :class:`ConnectionTimeout` at exactly ``now + timeout``.  A
        deadline longer than the first SYN timer (``INITIAL_RTO``) is
        queued only when that timer fires with the connect still in
        SYN_SENT, so the connect that is established within a second,
        almost every one, queues no deadline.  A shorter one, or one of
        exactly ``INITIAL_RTO``, is queued now: it would fall at or
        before the first SYN timer, and at that very instant a deadline
        queued late would run after every event queued there since.
        """
        if self.state != self.CLOSED:
            raise TransportError(f"connect() in state {self.state}")
        self.state = self.SYN_SENT
        self._connect_event = Event(self.sim)
        self._send_syn()
        if timeout is not None:
            if timeout > INITIAL_RTO:
                self._connect_timeout = timeout
            else:
                self.sim.schedule(timeout, self._on_connect_deadline)
        return self._connect_event

    def _on_connect_deadline(self) -> None:
        connect_event = self._connect_event
        if connect_event is None or connect_event._decided:
            return
        self.state = self.CLOSED
        connect_event.fail(ConnectionTimeout(
            f"connect to {self.remote_addr}:{self.remote_port} timed out"))
        self._end()

    def _send_syn(self) -> None:
        self._syn_tries += 1
        self._syn_sent_at = self.sim._now
        syn = Segment(self.local_port, self.remote_port, 0, 0, SYN_FLAGS)
        features = self.features
        self._emit(syn, SYN_SIZE,
                   _syn_features(features.protocol_tag, features.sni))
        backoff = INITIAL_RTO * (2 ** (self._syn_tries - 1))
        version = self._bump_timer()
        self.sim.schedule(backoff, self._on_syn_timer, version)

    def _on_syn_timer(self, version: int) -> None:
        if version != self._rto_timer_version or self.state != self.SYN_SENT:
            return
        timeout = self._connect_timeout
        if timeout is not None:
            # The connect outlived its first SYN timer: queue its
            # deadline, ahead of the retransmission's timer.  The first
            # SYN went out at the connect, so ``_syn_sent_at + timeout``
            # is the float an eager deadline would have fired at.
            self._connect_timeout = None
            self.sim.schedule_at(self._syn_sent_at + timeout,
                                 self._on_connect_deadline)
        if self._syn_tries >= SYN_RETRIES:
            self.state = self.CLOSED
            if self._connect_event and not self._connect_event.triggered:
                self._connect_event.fail(ConnectionTimeout(
                    f"SYN retries exhausted to {self.remote_addr}:{self.remote_port}"))
            self._end()
            return
        self.retransmissions += 1
        self._send_syn()

    def accept_from_syn(self) -> None:
        """Server side: a SYN arrived; reply SYN+ACK."""
        self.state = self.SYN_RCVD
        synack = Segment(self.local_port, self.remote_port, 0, 0,
                         SYN_ACK_FLAGS)
        self._emit(synack, SYN_SIZE,
                   _syn_features(self.features.protocol_tag, None))

    # -- segment processing ------------------------------------------------------------

    def handle_segment(self, segment: Segment) -> None:
        """Demuxed inbound segment for this connection."""
        if segment.flags is ACK_FLAGS and self.state == self.ESTABLISHED:
            # The common case, with the general path's checks in its
            # order: no RST, no handshake, no SYN, an ACK, no FIN.
            self._process_ack(segment.ack)
            if segment.length > 0:
                self._process_data(segment)
            if self._fin_acked and self._peer_closed:
                self._end()
            return
        if "RST" in segment.flags:
            self._enter_reset(local=False)
            return
        if self.state == self.SYN_SENT:
            if segment.flags >= SYN_ACK_FLAGS:
                self._establish_client(segment)
            return
        if self.state == self.SYN_RCVD:
            if "ACK" in segment.flags and "SYN" not in segment.flags:
                self.state = self.ESTABLISHED
                self.transport._on_established(self)
            # fall through: the ACK may carry data
        if "SYN" in segment.flags:
            # Duplicate SYN/SYN+ACK (retransmission); re-ack politely.
            if self.state == self.SYN_RCVD:
                self.accept_from_syn()
            elif self.state == self.ESTABLISHED and "ACK" in segment.flags:
                self._send_ack()
            return
        if "ACK" in segment.flags:
            self._process_ack(segment.ack)
        if segment.length > 0:
            self._process_data(segment)
        if "FIN" in segment.flags:
            if not self._peer_closed:
                self._peer_closed = True
                self._inbox.put(None)  # EOF
            if segment.seq <= self._rcv_nxt:
                # Everything before the FIN has arrived: acknowledge the
                # FIN itself (cumulative ack past it) so the closer can
                # stop retransmitting.  Re-acking duplicates covers a
                # lost FIN-ack.
                fin_ack = Segment(self.local_port, self.remote_port,
                                  self._snd_nxt, segment.seq + 1, ACK_FLAGS)
                self._emit(fin_ack, ACK_SIZE, self.features)
        if self._fin_acked and self._peer_closed:
            # Both directions have ended: our FIN is acked (so it was
            # sent, and we are CLOSED) and the peer's FIN has arrived.
            self._end()

    def _establish_client(self, segment: Segment) -> None:
        self.state = self.ESTABLISHED
        sample = self.sim._now - self._syn_sent_at
        if self._syn_tries == 1:  # Karn's rule: only unambiguous samples
            self._update_rtt(sample)
        self._bump_timer()
        self._send_ack()
        if self._connect_event and not self._connect_event.triggered:
            self._connect_event.succeed(self)
        self._pump()

    # -- sender machinery -----------------------------------------------------------------

    def _pump(self) -> None:
        """Send as much buffered data as the congestion window allows."""
        if self.state != self.ESTABLISHED:
            return
        window_bytes = int(self._cwnd) * MSS
        while (self._snd_nxt < self._send_buffer.length
               and self._snd_nxt - self._snd_una < window_bytes):
            chunk = min(MSS,
                        self._send_buffer.length - self._snd_nxt,
                        window_bytes - (self._snd_nxt - self._snd_una))
            self._transmit_range(self._snd_nxt, chunk, retransmission=False)
            self._snd_nxt += chunk

    def _transmit_range(self, start: int, length: int, retransmission: bool) -> None:
        buffer = self._send_buffer
        segment = Segment(self.local_port, self.remote_port, start,
                          self._rcv_nxt, ACK_FLAGS, length,
                          buffer.ends_in(start, start + length))
        features = buffer.features_for(start) or self.features
        if not retransmission:
            self._in_flight[start] = _InFlight(segment, self.sim._now)
        else:
            entry = self._in_flight.get(start)
            if entry is not None:
                entry.retransmitted = True
                entry.sent_at = self.sim._now
            self.retransmissions += 1
        self._emit(segment, segment.wire_size(), features)
        self._arm_rto()

    def _process_ack(self, ack: int) -> None:
        if self._fin_seq is not None and ack > self._fin_seq:
            self._fin_acked = True  # EOF confirmed delivered
        if ack > self._snd_una:
            # New data acknowledged.  ``_in_flight`` is in sequence
            # order, so the segments the ACK covers are a prefix of it:
            # walk it and stop at the first segment the ACK does not
            # cover.
            newly_acked = []
            for seq, entry in self._in_flight.items():
                if seq + entry.segment.length > ack:
                    break
                newly_acked.append(seq)
            youngest_sent_at = None
            cwnd = self._cwnd
            ssthresh = self._ssthresh
            for seq in newly_acked:
                entry = self._in_flight.pop(seq)
                if not entry.retransmitted:
                    # Karn's rule: only a segment sent once gives a sample.
                    youngest_sent_at = entry.sent_at
                # Congestion window growth.
                if cwnd < ssthresh:
                    cwnd += 1.0                      # slow start
                else:
                    cwnd += 1.0 / cwnd               # congestion avoidance
            self._cwnd = cwnd
            if youngest_sent_at is not None:
                # A cumulative ACK delayed by loss recovery would yield
                # wildly inflated samples for the older segments it
                # covers; the youngest segment (minimum sample: the
                # segments were sent in sequence order) is the honest
                # path-RTT measurement, akin to what TCP timestamps give
                # real stacks.
                self._update_rtt(self.sim._now - youngest_sent_at)
            self._snd_una = ack
            boundaries = self._send_buffer._boundaries
            if boundaries and boundaries[0][0] <= ack:
                self._send_buffer.acked(ack)
            self._dup_acks = 0
            # Forward progress cancels exponential RTO backoff (RFC 6298
            # §5.7 behaviour): re-derive the timeout from the estimator.
            if self._srtt is not None:
                self._rto = min(MAX_RTO, max(MIN_RTO, self._srtt + 4.0 * self._rttvar))
            else:
                self._rto = INITIAL_RTO
            self._arm_rto()
            self._pump()
        elif ack == self._snd_una and self._snd_nxt > self._snd_una:
            self._dup_acks += 1
            if self._dup_acks == 3:
                self._fast_retransmit()

    def _fast_retransmit(self) -> None:
        entry = self._in_flight.get(self._snd_una)
        if entry is None:
            return
        self._ssthresh = max(self._cwnd / 2.0, 2.0)
        self._cwnd = self._ssthresh
        self._transmit_range(self._snd_una, entry.segment.length, retransmission=True)

    def _arm_rto(self) -> None:
        if not self._in_flight:
            self._rto_timer.cancel()
            return
        self._rto_timer.arm(self._rto)

    def _on_rto(self) -> None:
        if not self._in_flight or self.state != self.ESTABLISHED:
            return
        # Timeout: multiplicative backoff, shrink to one segment.
        self._ssthresh = max(self._cwnd / 2.0, 2.0)
        self._cwnd = 1.0
        self._rto = min(self._rto * 2.0, MAX_RTO)
        oldest = min(self._in_flight)
        self._transmit_range(oldest, self._in_flight[oldest].segment.length,
                             retransmission=True)

    def _bump_timer(self) -> int:
        self._rto_timer_version += 1
        return self._rto_timer_version

    def _update_rtt(self, sample: float) -> None:
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2.0
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - sample)
            self._srtt = 0.875 * self._srtt + 0.125 * sample
        self._rto = min(MAX_RTO, max(MIN_RTO, self._srtt + 4.0 * self._rttvar))

    # -- receiver machinery ------------------------------------------------------------------

    def _process_data(self, segment: Segment) -> None:
        if segment.seq > self._rcv_nxt:
            # Out of order: buffer and send an immediate duplicate ACK
            # (required for the sender's fast retransmit).
            self._ooo[segment.seq] = segment
            self._send_ack()
            return
        if segment.seq + segment.length <= self._rcv_nxt:
            # Pure duplicate: re-ack immediately.
            self._send_ack()
            return
        delivered_message = self._admit(segment)
        # Drain any now-contiguous buffered segments.
        filled_hole = False
        while self._rcv_nxt in self._ooo:
            delivered_message |= self._admit(self._ooo.pop(self._rcv_nxt))
            filled_hole = True
        # Delayed ACK: ack at once on every 2nd segment, when a hole was
        # just filled, or when an app message completed (push); else arm
        # a 40 ms timer.
        self._unacked_segments += 1
        if self._unacked_segments >= 2 or filled_hole or delivered_message:
            self._send_ack()
        else:
            self._delack_timer.arm(0.04)

    def _on_delack_timer(self) -> None:
        if self._unacked_segments == 0:
            return
        self._send_ack()

    def _admit(self, segment: Segment) -> bool:
        """Accept in-order data; True if an app message completed.

        Every message end a segment carries lies at or below the
        segment's end, which becomes ``_rcv_nxt``, so each one is
        delivered straight from the segment, in order.
        """
        end = segment.seq + segment.length
        self.bytes_received += end - self._rcv_nxt
        self._rcv_nxt = end
        message_ends = segment.message_ends
        for _end_offset, meta in message_ends:
            self._inbox.put(meta)
        return bool(message_ends)

    def _send_ack(self) -> None:
        self._unacked_segments = 0
        self._delack_timer.cancel()
        ack = Segment(self.local_port, self.remote_port, self._snd_nxt,
                      self._rcv_nxt, ACK_FLAGS)
        self._emit(ack, ACK_SIZE, self.features)

    # -- plumbing ---------------------------------------------------------------------------

    def _emit(self, segment: Segment, size: int, features: WireFeatures) -> None:
        self.packets_sent += 1
        self.bytes_sent += size
        self.transport.host.send(Packet(
            self.local_addr, self.remote_addr, "tcp", segment, size,
            features, self.flow))

    def _enter_reset(self, local: bool) -> None:
        self.state = self.RESET
        fluid = self.sim.fluid
        if fluid is not None:
            fluid.on_reset(self)
        error = ConnectionReset(
            f"{self.flow}: reset {'locally' if local else 'by peer or on-path injection'}")
        if self._connect_event and not self._connect_event.triggered:
            self._connect_event.fail(error)
        self._end()
        # Fail all blocked receivers.
        self._inbox.fail_getters(lambda: ConnectionReset(str(error)))

    def _end(self) -> None:
        """The connection is over: its transport forgets it, and it
        drops every reference that would form a cycle back to it (its
        timers' bound methods, its connect event, whose value is the
        connection, and its fluid peer), so reference counting frees
        it.  Nothing arms its timers again: no segment reaches a
        forgotten connection, and a CLOSED or RESET one neither pumps
        data nor acts on an RTO."""
        self.transport._forget(self)
        self._rto_timer.release()
        self._delack_timer.release()
        self._connect_event = None
        self._fluid_peer = None
        self._fluid_path = None

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<TcpConnection {self.local_addr}:{self.local_port}"
                f"->{self.remote_addr}:{self.remote_port} {self.state}>")
