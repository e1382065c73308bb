"""A fake Google Scholar origin: a tiny real HTTP/1.1 server.

Serves the home page and a search endpoint on 127.0.0.1 so the live
proxy chain has something genuine to fetch.
"""

from __future__ import annotations

import asyncio
import typing as t

HOME_BODY = b"""<!doctype html>
<html><head><title>Google Scholar</title></head>
<body>
<h1>Google Scholar (reproduction origin)</h1>
<p>Stand on the shoulders of giants.</p>
<form action="/scholar"><input name="q"></form>
</body></html>
"""

RESULT_TEMPLATE = """<!doctype html>
<html><head><title>{query} - Google Scholar</title></head>
<body><h1>Results for {query}</h1>
<div class="result">Accessing Google Scholar under Extreme Internet
Censorship: A Legal Avenue &mdash; Middleware 2017</div>
</body></html>
"""


def _http_response(status: str, body: bytes,
                   content_type: str = "text/html; charset=utf-8") -> bytes:
    headers = (
        f"HTTP/1.1 {status}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return headers.encode() + body


class ScholarOrigin:
    """``await ScholarOrigin().start()`` then fetch ``/`` or ``/scholar?q=``."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self._server: t.Optional[asyncio.base_events.Server] = None

    async def start(self) -> "ScholarOrigin":
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
            request_line = await reader.readline()
            while True:  # drain headers
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.split()
            path = parts[1].decode() if len(parts) >= 2 else "/"
            if path.startswith("/scholar"):
                _, _, query = path.partition("q=")
                body = RESULT_TEMPLATE.format(query=query or "everything").encode()
                writer.write(_http_response("200 OK", body))
            elif path == "/":
                writer.write(_http_response("200 OK", HOME_BODY))
            else:
                writer.write(_http_response("404 Not Found", b"not here\n",
                                            "text/plain"))
            await writer.drain()
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
