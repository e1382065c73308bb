"""Browser model: connection pool, caches, and page-load timing.

Reproduces the client-side mechanics the paper's PLT numbers hinge on:

* **DNS cache** — the connector's resolver caches answers, so only
  first-time loads pay resolution latency.
* **Content cache** — cacheable subresources are not re-fetched on
  subsequent loads.
* **HTTPS redirect** (TCP 2) — a first visit starts with a plain HTTP
  request and follows the 301 to TLS; later visits go straight to 443.
* **Account recording** (TCP 4) — when the origin asks, the browser
  opens one extra connection to the recording endpoint.
* **Connection pool** — at most six parallel persistent connections
  per origin, with keep-alive expiry.

Every access method is driven through this same browser; only the
:class:`~repro.http.client.Connector` differs.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass, field

from ..errors import HttpError, OverloadError, ReproError, TransportError
from ..overload import Deadline
from ..sim import Resource, Simulator
from .client import Connector, Stream, fetch
from .messages import HttpRequest, HttpResponse
from .page import Page, PageObject
from .server import ACCOUNT_RECORD_PATH

#: Chrome's per-origin connection limit.
MAX_CONNECTIONS_PER_ORIGIN = 6
#: Idle keep-alive horizon after which pooled connections are discarded.
KEEPALIVE_SECONDS = 30.0
#: Backoff before the first retry of a failed fetch; each later retry
#: doubles it.
RETRY_BACKOFF = 1.0


@dataclass
class PageLoadResult:
    """Outcome of one page load."""

    url: str
    started_at: float
    plt: float
    first_visit: bool
    objects_fetched: int
    app_bytes: int
    connections_opened: int
    error: t.Optional[str] = None
    #: Objects answered by an edge cache (``HttpResponse.from_cache``).
    cache_hits: int = 0

    @property
    def all_from_cache(self) -> bool:
        """Every fetched object was served from an edge cache."""
        return self.objects_fetched > 0 and self.cache_hits == self.objects_fetched

    @property
    def succeeded(self) -> bool:
        return self.error is None


@dataclass
class _Origin:
    """Pool state for one (connector, host, port, tls) tuple."""

    slots: Resource
    idle: t.List[t.Tuple[Stream, float]] = field(default_factory=list)


class Browser:
    """A simulated web browser bound to a connector."""

    def __init__(
        self,
        sim: Simulator,
        connector: Connector,
        name: str = "browser",
        retries: int = 0,
        read_timeout: t.Optional[float] = None,
        total_deadline: t.Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.connector = connector
        self.name = name
        #: Per-object transport retries (0 = a failure fails the load,
        #: the historical behaviour).  Fault-tolerance experiments turn
        #: this up so the browser degrades gracefully.
        self.retries = retries
        #: Response deadline per request (None = wait forever).  Without
        #: it a stream whose far leg silently blackholes (e.g. a mid-path
        #: IP block) stalls a load until the fault lifts; with it the
        #: fetch aborts, the stream is dropped, and the retry dials fresh.
        self.read_timeout = read_timeout
        #: Total time budget per *request*, covering every retry attempt
        #: and its backoff.  Without it, ``retries`` x ``read_timeout``
        #: can exceed any deadline a caller had in mind; with it the
        #: browser stamps a :class:`~repro.overload.Deadline` when the
        #: request starts, stops retrying once the next attempt could
        #: not start in time, and hands the deadline to connectors that
        #: can propagate it (``supports_deadline``).
        self.total_deadline = total_deadline
        #: Optional per-URL connector routing (PAC-style). Receives the
        #: URL, returns a Connector; default routes everything to
        #: ``self.connector``.
        self.route: t.Callable[[str], Connector] = lambda _url: self.connector
        self._origins: t.Dict[t.Tuple[str, str, int, bool], _Origin] = {}
        self._visited: t.Set[str] = set()
        self._cached_objects: t.Set[t.Tuple[str, str]] = set()
        self.connections_opened = 0

    # -- cache control ---------------------------------------------------------------

    def clear_caches(self) -> None:
        """Forget history, content cache, and pooled connections."""
        self._visited.clear()
        self._cached_objects.clear()
        for origin in self._origins.values():
            for stream, _idle_since in origin.idle:
                stream.close()
            origin.idle.clear()
        self._origins.clear()

    # -- page loading ------------------------------------------------------------------

    def load(self, page: Page):
        """Generator process: load ``page``; returns PageLoadResult."""
        started = self.sim.now
        first_visit = page.url not in self._visited
        counters = {"bytes": 0, "objects": 0, "connections": 0,
                    "cache_hits": 0}
        try:
            document = yield from self._load_document(page, first_visit, counters)
            yield self.sim.timeout(page.parse_time)
            yield from self._load_subresources(page, document, first_visit, counters)
            error = None
        except ReproError as exc:
            error = f"{type(exc).__name__}: {exc}"
        result = PageLoadResult(
            url=page.url,
            started_at=started,
            plt=self.sim.now - started,
            first_visit=first_visit,
            objects_fetched=counters["objects"],
            app_bytes=counters["bytes"],
            connections_opened=counters["connections"],
            error=error,
            cache_hits=counters["cache_hits"],
        )
        if error is None:
            self._visited.add(page.url)
        return result

    def _load_document(self, page: Page, first_visit: bool,
                       counters: t.Dict[str, int]):
        """Fetch the main document, following the HTTP->HTTPS redirect."""
        scheme = "http" if first_visit else "https"
        path = page.path
        for _hop in range(3):
            use_tls = scheme == "https"
            request = HttpRequest(page.host, path, scheme=scheme,
                                  first_visit=first_visit)
            response = yield from self._fetch_on_origin(
                page.host, 443 if use_tls else 80, use_tls, request, counters)
            if response.redirect_to is not None:
                scheme = response.redirect_scheme
                path = response.redirect_to
                continue
            return response
        raise ReproError(f"{page.url}: redirect loop")

    def _load_subresources(self, page: Page, document: HttpResponse,
                           first_visit: bool, counters: t.Dict[str, int]):
        """Fetch uncached objects (and TCP 4) in parallel."""
        tasks = []
        for obj in page.objects:
            object_host = obj.host or page.host
            if obj.cacheable and (object_host, obj.path) in self._cached_objects:
                continue
            tasks.append(self.sim.process(
                self._object_task(object_host, obj, counters),
                name=f"fetch:{obj.path}"))
        if document.record_account:
            tasks.append(self.sim.process(
                self._account_record_task(page.host, counters),
                name="account-record"))
        if tasks:
            yield self.sim.all_of(tasks)

    def _object_task(self, host: str, obj: PageObject,
                     counters: t.Dict[str, int]):
        request = HttpRequest(host, obj.path, scheme="https")
        response = yield from self._fetch_on_origin(host, 443, True, request,
                                                    counters)
        if response.cacheable:
            self._cached_objects.add((host, obj.path))
        return response

    def _account_record_task(self, host: str, counters: t.Dict[str, int]):
        """The paper's TCP 4: a dedicated, non-pooled connection."""
        connector = self.route(f"https://{host}{ACCOUNT_RECORD_PATH}")
        stream = yield from connector.open(host, 443, True)
        counters["connections"] += 1
        self.connections_opened += 1
        request = HttpRequest(host, ACCOUNT_RECORD_PATH, scheme="https",
                              first_visit=True)
        response = yield from fetch(stream, request)
        counters["bytes"] += request.size() + response.size()
        stream.close()
        return response

    # -- pooled fetching -----------------------------------------------------------------

    def _fetch_on_origin(self, host: str, port: int, use_tls: bool,
                         request: HttpRequest, counters: t.Dict[str, int]):
        connector = self.route(request.url)
        origin = self._origin_for(connector, host, port, use_tls)
        yield origin.slots.acquire()
        deadline = (None if self.total_deadline is None
                    else Deadline(self.sim.now + self.total_deadline))
        try:
            attempt = 0
            while True:
                stream: t.Optional[Stream] = None
                try:
                    stream = yield from self._checkout(
                        origin, connector, host, port, use_tls, counters,
                        deadline)
                    response = yield from self._fetch_with_deadline(
                        stream, request, deadline)
                except OverloadError:
                    # A shed is the service telling us to go away; an
                    # immediate retry would feed the retry storm the
                    # shed exists to prevent.
                    if stream is not None:
                        stream.close()
                    raise
                except (TransportError, HttpError):
                    if stream is not None:
                        stream.close()
                    attempt += 1
                    if attempt > self.retries:
                        raise
                    backoff = RETRY_BACKOFF * (2 ** (attempt - 1))
                    if (deadline is not None
                            and deadline.expired(self.sim.now + backoff)):
                        # The next attempt could not even start in time.
                        raise
                    # Every pooled stream shares the failed path and a
                    # close may not have propagated yet; drop them all
                    # so the retry dials fresh.
                    for idle_stream, _idle_since in origin.idle:
                        idle_stream.close()
                    origin.idle.clear()
                    yield self.sim.timeout(backoff)
                    continue
                counters["bytes"] += request.size() + response.size()
                counters["objects"] += 1
                if getattr(response, "from_cache", False):
                    counters["cache_hits"] += 1
                self._checkin(origin, stream)
                break
        except GeneratorExit:
            return None  # finalized, not failed: wake no slot waiter
        except BaseException:
            origin.slots.release()
            raise
        origin.slots.release()
        return response

    def _fetch_with_deadline(self, stream: Stream, request: HttpRequest,
                             deadline: t.Optional[Deadline] = None):
        timeout = self.read_timeout
        if deadline is not None:
            timeout = deadline.clamp(timeout, self.sim.now)
        if timeout is None:
            return (yield from fetch(stream, request))
        task = self.sim.process(fetch(stream, request),
                                name=f"fetch:{request.path}")
        timer = self.sim.timeout(timeout)
        yield self.sim.any_of([task, timer])
        if task.triggered:
            return task.value
        task.interrupt("read-deadline")
        raise TransportError(
            f"{request.url}: no response within {timeout:g}s")

    def _origin_for(self, connector: Connector, host: str, port: int,
                    use_tls: bool) -> _Origin:
        key = (connector.name, host, port, use_tls)
        origin = self._origins.get(key)
        if origin is None:
            origin = _Origin(slots=Resource(self.sim, MAX_CONNECTIONS_PER_ORIGIN))
            self._origins[key] = origin
        return origin

    def _checkout(self, origin: _Origin, connector: Connector, host: str,
                  port: int, use_tls: bool, counters: t.Dict[str, int],
                  deadline: t.Optional[Deadline] = None):
        while origin.idle:
            stream, idle_since = origin.idle.pop()
            if stream.alive and self.sim.now - idle_since <= KEEPALIVE_SECONDS:
                return stream
            stream.close()
        if deadline is not None and getattr(connector, "supports_deadline",
                                            False):
            stream = yield from connector.open(host, port, use_tls,
                                               deadline=deadline)
        else:
            stream = yield from connector.open(host, port, use_tls)
        counters["connections"] += 1
        self.connections_opened += 1
        return stream

    def _checkin(self, origin: _Origin, stream: Stream) -> None:
        if stream.alive:
            origin.idle.append((stream, self.sim.now))
