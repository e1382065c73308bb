"""Simulated transport layer: TCP, UDP, ICMP ping, and simplified TLS."""

from .channel import MessageChannel
from .sockets import (
    Acceptor,
    Datagram,
    PING_SIZE,
    TransportLayer,
    UdpHandler,
    install_transport,
)
from .tcp import (
    ACK_SIZE,
    INITIAL_CWND,
    INITIAL_RTO,
    Segment,
    SYN_SIZE,
    TcpConnection,
)
from .tls import (
    RECORD_OVERHEAD,
    TlsSession,
    handshake_features,
)

__all__ = [
    "ACK_SIZE",
    "Acceptor",
    "Datagram",
    "INITIAL_CWND",
    "INITIAL_RTO",
    "MessageChannel",
    "PING_SIZE",
    "RECORD_OVERHEAD",
    "SYN_SIZE",
    "Segment",
    "TcpConnection",
    "TlsSession",
    "TransportLayer",
    "UdpHandler",
    "handshake_features",
    "install_transport",
]
