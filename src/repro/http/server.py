"""Origin web server over the simulated stack.

Serves :class:`~repro.http.page.Page` documents and their objects on
ports 80 (plain, answering with an HTTPS redirect for HTTPS-only sites
— the paper's TCP 2) and 443 (TLS).  First-visit requests to pages
that record accounts get ``record_account=True`` in the response,
prompting the browser to open the side-channel connection the paper
labels TCP 4.

Request handling consumes CPU on a processor-sharing core so that
server-side queueing exists (it matters for the proxies in Figure 7;
origin servers get enough capacity not to be the bottleneck).
"""

from __future__ import annotations

import typing as t

from ..errors import ConnectionReset, HttpError
from ..net import Host
from ..sim import ProcessorSharingServer, Simulator
from ..transport import TcpConnection, TlsSession, TransportLayer
from .messages import HttpRequest, HttpResponse
from .page import Page, PageObject

#: CPU work-units consumed per request, plus per response byte.
BASE_REQUEST_DEMAND = 0.0015
PER_BYTE_DEMAND = 2e-8
#: Size of the account-recording response body (TCP 4 payload).
ACCOUNT_RECORD_BODY = 60
#: Path of the account-recording endpoint.
ACCOUNT_RECORD_PATH = "/gen_204"
#: Capacity of an origin's processor-sharing CPU: enough that origins
#: are never the bottleneck.
CPU_CAPACITY = 8.0


class WebServer:
    """Serves one or more virtual hosts from a simulated host machine."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        https_only: bool = True,
    ) -> None:
        self.sim = sim
        self.host = host
        self.cpu = ProcessorSharingServer(sim, capacity=CPU_CAPACITY,
                                          name=f"{host.name}-cpu")
        self.https_only = https_only
        self._documents: t.Dict[t.Tuple[str, str], Page] = {}
        self._objects: t.Dict[t.Tuple[str, str], PageObject] = {}
        self._hostnames: t.Set[str] = set()
        self.accounts_recorded: t.List[t.Tuple[str, str]] = []
        transport = t.cast(TransportLayer, host.transport)
        transport.listen_tcp(80, self._accept_plain)
        transport.listen_tcp(443, self._accept_tls)

    # -- content registration -----------------------------------------------------

    def add_page(self, page: Page) -> None:
        self._hostnames.add(page.host)
        self._documents[(page.host, page.path)] = page
        for obj in page.objects:
            object_host = obj.host or page.host
            self._hostnames.add(object_host)
            self._objects[(object_host, obj.path)] = obj

    # -- connection handling --------------------------------------------------------

    def _accept_plain(self, conn: TcpConnection) -> None:
        self.sim.process(self._serve_plain(conn), name="http-plain")

    def _accept_tls(self, conn: TcpConnection) -> None:
        self.sim.process(self._serve_tls(conn), name="http-tls")

    def _serve_plain(self, conn: TcpConnection):
        try:
            while True:
                request = yield conn.recv_message()
                if request is None:
                    conn.close()  # the client closed: close our half
                    return
                if not isinstance(request, HttpRequest):
                    raise HttpError(f"unexpected payload on port 80: {request!r}")
                response = self._redirect_or_serve_plain(request)
                yield self.cpu.submit(BASE_REQUEST_DEMAND)
                conn.send_message(response.size(), meta=response)
        except ConnectionReset:
            return

    def _serve_tls(self, conn: TcpConnection):
        session = TlsSession(conn)
        try:
            yield from session.server_handshake()
            while True:
                request = yield session.recv()
                if request is None:
                    conn.close()  # the client closed: close our half
                    return
                if not isinstance(request, HttpRequest):
                    raise HttpError(f"unexpected payload on port 443: {request!r}")
                response = self._respond(request)
                yield self.cpu.submit(
                    BASE_REQUEST_DEMAND + PER_BYTE_DEMAND * response.body_size)
                session.send(response.size(), meta=response)
        except ConnectionReset:
            return

    # -- request logic ------------------------------------------------------------------

    def _redirect_or_serve_plain(self, request: HttpRequest) -> HttpResponse:
        if self.https_only and request.host in self._hostnames:
            return HttpResponse(
                status=301, path=request.path, body_size=220, cacheable=False,
                redirect_to=request.path, redirect_scheme="https")
        return self._respond(request)

    def _respond(self, request: HttpRequest) -> HttpResponse:
        if request.path == ACCOUNT_RECORD_PATH:
            self.accounts_recorded.append((request.host, request.path))
            return HttpResponse(status=204, path=request.path,
                                body_size=ACCOUNT_RECORD_BODY, cacheable=False)
        page = self._documents.get((request.host, request.path))
        if page is not None:
            return HttpResponse(
                status=200, path=request.path, body_size=page.document_size,
                cacheable=page.document_cacheable,
                record_account=page.records_account and request.first_visit)
        obj = self._objects.get((request.host, request.path))
        if obj is not None:
            return HttpResponse(status=200, path=request.path,
                                body_size=obj.size, cacheable=obj.cacheable)
        return HttpResponse(status=404, path=request.path,
                            body_size=300, cacheable=False)
