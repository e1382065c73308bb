"""Binary framing for the live loopback proxies.

Frames are ``uint32_be length ‖ body``; the body (and, for blinded
channels, the length prefix too) is passed through a
:class:`~repro.core.blinding.BlindingCodec`, so what travels the socket
is genuinely blinded bytes — the same codecs the simulator models.
"""

from __future__ import annotations

import asyncio
import struct
import typing as t

from ..core.blinding import BlindingCodec
from ..errors import BlindingError

#: Refuse absurd frames rather than allocating unbounded buffers.
MAX_FRAME = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class FramedStream:
    """Length-prefixed frames over an asyncio stream, optionally blinded.

    When ``cipher_key`` is given, each frame body is first encrypted
    with AES-CTR (nonce = frame counter per direction) and *then*
    blinded — mirroring the paper's layering: HTTPS between the proxies,
    blinding on top so the GFW can't even see the TLS framing.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 codec: t.Optional[BlindingCodec] = None,
                 cipher_key: t.Optional[bytes] = None) -> None:
        self.reader = reader
        self.writer = writer
        self.codec = codec
        self.cipher_key = cipher_key
        self._send_counter = 0
        self._recv_counter = 0

    def _crypt(self, body: bytes, counter: int) -> bytes:
        from ..crypto import CtrCipher
        assert self.cipher_key is not None
        nonce = counter.to_bytes(16, "big")
        return CtrCipher(self.cipher_key, nonce).process(body)

    #: Nonce-space offset separating header encryption from bodies.
    _HEADER_NONCE_BASE = 1 << 64

    async def send(self, body: bytes) -> None:
        if self.cipher_key is not None:
            body = self._crypt(body, self._send_counter)
        if self.codec is not None:
            body = self.codec.encode(body)
        header = _LENGTH.pack(len(body))
        if self.cipher_key is not None:
            # Headers are mostly-zero and would blind to a constant
            # prefix — itself a wire fingerprint — so they get their
            # own keystream before blinding.
            header = self._crypt(header,
                                 self._HEADER_NONCE_BASE + self._send_counter)
            self._send_counter += 1
        if self.codec is not None:
            # Fixed-size, so only the codec's length-preserving core.
            header = self.codec.header_codec().encode(header)
        self.writer.write(header + body)
        await self.writer.drain()

    async def recv(self) -> t.Optional[bytes]:
        """Next frame body, or None on clean EOF."""
        try:
            header = await self.reader.readexactly(_LENGTH.size)
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return None
        if self.codec is not None:
            header = self.codec.header_codec().decode(header)
        if self.cipher_key is not None:
            header = self._crypt(header,
                                 self._HEADER_NONCE_BASE + self._recv_counter)
        (length,) = _LENGTH.unpack(header)
        if length > MAX_FRAME:
            raise BlindingError(f"frame too large: {length} bytes "
                                "(wrong codec or corrupted stream?)")
        try:
            body = await self.reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return None
        if self.codec is not None:
            body = self.codec.decode(body)
        if self.cipher_key is not None:
            body = self._crypt(body, self._recv_counter)
            self._recv_counter += 1
        return body

    def close(self) -> None:
        self.writer.close()
