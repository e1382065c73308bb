"""The one duplex interface from the browser down to the relays."""

from __future__ import annotations

import typing as t

from ..net import WireFeatures
from ..sim import Event


class MessageChannel:
    """Duck-typed protocol: one duplex stream of application messages.

    A :class:`~repro.transport.TcpConnection` speaks it, and so does a
    :class:`~repro.transport.TlsSession` over any channel, the
    plain-HTTP channel and every relayed endpoint in
    ``repro.middleware``.  Connectors hand the browser a channel; relays
    read one and write another.
    """

    def send_message(self, length: int, meta: t.Any = None,
                     features: t.Optional[WireFeatures] = None) -> None:
        raise NotImplementedError

    def recv_message(self) -> Event:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    @property
    def state(self) -> str:
        """``"ESTABLISHED"`` while the channel can carry messages."""
        raise NotImplementedError
