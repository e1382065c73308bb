"""The live ScholarCloud split proxy over loopback.

Real sockets, real blinded bytes: the domestic proxy accepts plain
HTTP requests (absolute-URI, as browsers send to a configured proxy),
checks the whitelist, and relays through a byte-map-blinded framed
channel to the remote proxy, which performs the actual origin fetch.
A packet sniffer between the proxies would see only the blinded
stream — run ``repro.crypto.shannon_entropy`` over it to check.
"""

from __future__ import annotations

import asyncio
import typing as t

from ..core.blinding import default_codec
from ..core.whitelist import Whitelist
from ..crypto import hkdf_like
from ..errors import MiddlewareError
from .framing import FramedStream

#: Shared inter-proxy tunnel key (both halves are operated by one
#: party; a deployment would provision this out of band).
def tunnel_key(secret: bytes = b"scholarcloud-tunnel") -> bytes:
    return hkdf_like(secret, b"inter-proxy-aes-ctr", 32)


class RemoteProxyServer:
    """Outside-the-wall end: deblinds requests, fetches, blinds replies."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 cipher_key: t.Optional[bytes] = None) -> None:
        self.codec = default_codec()
        self.cipher_key = cipher_key or tunnel_key()
        self.host = host
        self.port = port
        self._server: t.Optional[asyncio.base_events.Server] = None
        self.requests_relayed = 0

    async def start(self) -> "RemoteProxyServer":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        channel = FramedStream(reader, writer, codec=self.codec,
                               cipher_key=self.cipher_key)
        try:
            request = await channel.recv()
            if request is None:
                return
            target_host, target_port, payload = self._parse(request)
            origin_reader, origin_writer = await asyncio.open_connection(
                target_host, target_port)
            origin_writer.write(payload)
            await origin_writer.drain()
            response = await origin_reader.read(-1)
            self.requests_relayed += 1
            await channel.send(response)
            origin_writer.close()
        except (MiddlewareError, OSError):
            try:
                await channel.send(b"HTTP/1.1 502 Bad Gateway\r\n\r\n")
            except OSError:
                pass
        finally:
            channel.close()

    @staticmethod
    def _parse(request: bytes) -> t.Tuple[str, int, bytes]:
        """Split ``host:port\\n<raw http bytes>``."""
        header, _, payload = request.partition(b"\n")
        host_text, _, port_text = header.decode().partition(":")
        if not host_text or not port_text.isdigit():
            raise MiddlewareError(f"malformed relay header: {header!r}")
        return host_text, int(port_text), payload


class DomesticProxyServer:
    """Inside-the-wall end: a plain HTTP proxy with a whitelist."""

    def __init__(self, whitelist: Whitelist, remote_host: str,
                 remote_port: int,
                 host: str = "127.0.0.1", port: int = 0,
                 resolve: t.Optional[t.Callable[[str], t.Tuple[str, int]]] = None,
                 cipher_key: t.Optional[bytes] = None) -> None:
        """
        ``resolve`` maps a whitelisted hostname to the (address, port)
        the remote proxy should actually dial — the loopback harness
        points scholar.google.com at the local fake origin.
        """
        self.whitelist = whitelist
        self.remote_host = remote_host
        self.remote_port = remote_port
        self.codec = default_codec()
        self.cipher_key = cipher_key or tunnel_key()
        self.host = host
        self.port = port
        self.resolve = resolve or (lambda name: (name, 80))
        self._server: t.Optional[asyncio.base_events.Server] = None
        self.refused = 0

    async def start(self) -> "DomesticProxyServer":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, ConnectionResetError):
            writer.close()
            return
        hostname, path = self._parse_proxy_request(request)
        if hostname is None or not self.whitelist.allows(hostname):
            self.refused += 1
            writer.write(b"HTTP/1.1 403 Forbidden\r\n"
                         b"Content-Length: 24\r\n\r\n"
                         b"not on service whitelist\n")
            await writer.drain()
            writer.close()
            return
        address, port = self.resolve(hostname)
        rewritten = (f"GET {path} HTTP/1.1\r\nHost: {hostname}\r\n"
                     "Connection: close\r\n\r\n").encode()
        try:
            remote_reader, remote_writer = await asyncio.open_connection(
                self.remote_host, self.remote_port)
            channel = FramedStream(remote_reader, remote_writer,
                                   codec=self.codec,
                                   cipher_key=self.cipher_key)
            await channel.send(f"{address}:{port}\n".encode() + rewritten)
            response = await channel.recv()
            channel.close()
        except OSError:
            response = None
        if response is None:
            writer.write(b"HTTP/1.1 502 Bad Gateway\r\n\r\n")
        else:
            writer.write(response)
        await writer.drain()
        writer.close()

    @staticmethod
    def _parse_proxy_request(request: bytes) -> t.Tuple[t.Optional[str], str]:
        """Extract (host, path) from an absolute-URI proxy request."""
        request_line = request.split(b"\r\n", 1)[0].decode(errors="replace")
        parts = request_line.split()
        if len(parts) < 2:
            return None, "/"
        url = parts[1]
        if url.startswith("http://"):
            rest = url[len("http://"):]
            hostname, slash, path = rest.partition("/")
            hostname = hostname.split(":")[0]
            return hostname, "/" + path if slash else "/"
        return None, "/"


async def fetch_via_proxy(proxy_host: str, proxy_port: int,
                          url: str) -> bytes:
    """A minimal proxy-configured HTTP client (what the PAC sets up)."""
    reader, writer = await asyncio.open_connection(proxy_host, proxy_port)
    writer.write(f"GET {url} HTTP/1.1\r\nHost: proxy\r\n\r\n".encode())
    await writer.drain()
    response = await reader.read(-1)
    writer.close()
    return response
