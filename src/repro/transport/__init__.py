"""Simulated transport layer: TCP, UDP, ICMP ping, and simplified TLS."""

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
    app_features,
    handshake_features,
)

__all__ = [
    "ACK_SIZE",
    "Acceptor",
    "Datagram",
    "INITIAL_CWND",
    "INITIAL_RTO",
    "PING_SIZE",
    "RECORD_OVERHEAD",
    "SYN_SIZE",
    "Segment",
    "TcpConnection",
    "TlsSession",
    "TransportLayer",
    "UdpHandler",
    "app_features",
    "handshake_features",
    "install_transport",
]
