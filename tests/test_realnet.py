"""Tests for the live loopback proxies (real sockets on 127.0.0.1)."""

import asyncio

import pytest

from repro.core import default_codec, scholar_whitelist
from repro.crypto import shannon_entropy
from repro.errors import BlindingError
from repro.realnet import (
    DomesticProxyServer,
    FramedStream,
    RemoteProxyServer,
    ScholarOrigin,
    SsLiveLocal,
    SsLiveServer,
    fetch_via_proxy,
    socks5_fetch,
)


def run(coro):
    return asyncio.run(coro)


# -- framing ---------------------------------------------------------------------

def test_framed_roundtrip_plain_and_blinded():
    async def scenario():
        for codec in (None, default_codec()):
            server_got = []

            async def handle(reader, writer):
                stream = FramedStream(reader, writer, codec=codec)
                frame = await stream.recv()
                server_got.append(frame)
                await stream.send(b"pong:" + frame)
                stream.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            stream = FramedStream(reader, writer, codec=codec)
            await stream.send(b"ping-payload")
            reply = await stream.recv()
            assert server_got == [b"ping-payload"]
            assert reply == b"pong:ping-payload"
            stream.close()
            server.close()
            await server.wait_closed()

    run(scenario())


def test_wrong_codec_detected_not_garbage():
    async def scenario():
        async def handle(reader, writer):
            stream = FramedStream(reader, writer, codec=default_codec(b"A"))
            await stream.send(b"hello")
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        stream = FramedStream(reader, writer, codec=default_codec(b"B"))
        with pytest.raises(BlindingError):
            await stream.recv()
        stream.close()
        server.close()
        await server.wait_closed()

    run(scenario())


# -- full split-proxy chain -----------------------------------------------------------

class LiveWorld:
    async def __aenter__(self):
        self.origin = await ScholarOrigin().start()
        self.remote = await RemoteProxyServer().start()
        self.domestic = await DomesticProxyServer(
            scholar_whitelist(), "127.0.0.1", self.remote.port,
            resolve=lambda name: ("127.0.0.1", self.origin.port)).start()
        return self

    async def __aexit__(self, *exc):
        for server in (self.origin, self.remote, self.domestic):
            await server.stop()


def test_live_scholarcloud_chain_serves_whitelisted_page():
    async def scenario():
        async with LiveWorld() as world:
            response = await fetch_via_proxy(
                "127.0.0.1", world.domestic.port, "http://scholar.google.com/")
            assert response.startswith(b"HTTP/1.1 200")
            assert b"shoulders of giants" in response
            assert world.remote.requests_relayed == 1

    run(scenario())


def test_live_chain_refuses_non_whitelisted():
    async def scenario():
        async with LiveWorld() as world:
            response = await fetch_via_proxy(
                "127.0.0.1", world.domestic.port, "http://www.youtube.com/")
            assert response.startswith(b"HTTP/1.1 403")
            assert world.domestic.refused == 1
            assert world.remote.requests_relayed == 0

    run(scenario())


def test_live_chain_search_endpoint():
    async def scenario():
        async with LiveWorld() as world:
            response = await fetch_via_proxy(
                "127.0.0.1", world.domestic.port,
                "http://scholar.google.com/scholar?q=censorship")
            assert b"Results for censorship" in response

    run(scenario())


def test_inter_proxy_bytes_are_actually_blinded():
    """Sniff the domestic->remote leg: no plaintext, high entropy."""
    async def scenario():
        captured = []

        async def sniffing_remote(reader, writer):
            data = await reader.read(4096)
            captured.append(data)
            writer.close()

        sniffer = await asyncio.start_server(sniffing_remote, "127.0.0.1", 0)
        port = sniffer.sockets[0].getsockname()[1]
        domestic = await DomesticProxyServer(
            scholar_whitelist(), "127.0.0.1", port).start()
        response = await fetch_via_proxy(
            "127.0.0.1", domestic.port, "http://scholar.google.com/")
        assert response.startswith(b"HTTP/1.1 502")  # sniffer never answers
        blob = captured[0]
        assert b"scholar" not in blob
        assert b"GET" not in blob
        # Short samples can't reach 8 bits/byte; judge against a
        # same-length uniform-random baseline instead.
        import os
        baseline = shannon_entropy(os.urandom(len(blob)))
        assert shannon_entropy(blob) > baseline - 0.5
        await domestic.stop()
        sniffer.close()
        await sniffer.wait_closed()

    run(scenario())


# -- live shadowsocks -------------------------------------------------------------------

def test_live_shadowsocks_roundtrip():
    async def scenario():
        origin = await ScholarOrigin().start()
        server = await SsLiveServer("correct horse").start()
        local = await SsLiveLocal("correct horse", "127.0.0.1",
                                  server.port).start()
        request = (b"GET / HTTP/1.1\r\nHost: scholar\r\n"
                   b"Connection: close\r\n\r\n")
        response = await socks5_fetch("127.0.0.1", local.port,
                                      "127.0.0.1", origin.port, request)
        assert response.startswith(b"HTTP/1.1 200")
        assert server.relays == 1
        for s in (origin, server, local):
            await s.stop()

    run(scenario())


def test_live_shadowsocks_hangs_on_garbage():
    """The probe-resistance tell the GFW fingerprints."""
    async def scenario():
        server = await SsLiveServer("pw").start()
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(b"\xde\xad\xbe\xef" * 16)  # not a valid IV+header
        await writer.drain()
        writer.close()
        await asyncio.sleep(0.05)
        assert server.hung_connections == 1
        assert server.relays == 0
        await server.stop()

    run(scenario())


def test_live_shadowsocks_wrong_password_never_relays():
    async def scenario():
        origin = await ScholarOrigin().start()
        server = await SsLiveServer("right").start()
        local = await SsLiveLocal("wrong", "127.0.0.1", server.port).start()
        request = b"GET / HTTP/1.1\r\n\r\n"
        try:
            response = await asyncio.wait_for(
                socks5_fetch("127.0.0.1", local.port, "127.0.0.1",
                             origin.port, request),
                timeout=0.5)
        except asyncio.TimeoutError:
            response = b""
        assert b"200" not in response
        assert server.relays == 0
        for s in (origin, server, local):
            await s.stop()

    run(scenario())
