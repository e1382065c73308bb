"""Tor over meek: relays, domain-fronted transport, client."""

from .cells import CELL_PAYLOAD, CELL_SIZE, cells_for, wire_bytes
from .client import DIRECTORY_BYTES, FRONT_DOMAIN, TorConnector, TorMethod, TorNetwork
from .meek import CdnFront, MeekChannel, POLL_INTERVAL
from .relay import OR_PORT, TorRelay

__all__ = [
    "CELL_PAYLOAD",
    "CELL_SIZE",
    "CdnFront",
    "DIRECTORY_BYTES",
    "FRONT_DOMAIN",
    "MeekChannel",
    "OR_PORT",
    "POLL_INTERVAL",
    "TorConnector",
    "TorMethod",
    "TorNetwork",
    "TorRelay",
    "cells_for",
    "wire_bytes",
]
