"""Simulated HTTP: messages, origin servers, connectors, and a browser."""

from .browser import (
    Browser,
    KEEPALIVE_SECONDS,
    MAX_CONNECTIONS_PER_ORIGIN,
    PageLoadResult,
)
from .client import Connector, DirectConnector, PlainHttpChannel, fetch
from .messages import (
    HttpRequest,
    HttpResponse,
    REQUEST_SIZE,
    RESPONSE_HEADER_SIZE,
    parse_url,
)
from .page import (
    Page,
    PageObject,
    google_scholar_home,
    google_scholar_results,
    scholar_pdf,
    plain_site_page,
)
from .server import ACCOUNT_RECORD_PATH, WebServer

__all__ = [
    "ACCOUNT_RECORD_PATH",
    "Browser",
    "Connector",
    "DirectConnector",
    "HttpRequest",
    "HttpResponse",
    "KEEPALIVE_SECONDS",
    "MAX_CONNECTIONS_PER_ORIGIN",
    "Page",
    "PageLoadResult",
    "PageObject",
    "PlainHttpChannel",
    "REQUEST_SIZE",
    "RESPONSE_HEADER_SIZE",
    "WebServer",
    "fetch",
    "google_scholar_home",
    "google_scholar_results",
    "scholar_pdf",
    "parse_url",
    "plain_site_page",
]
