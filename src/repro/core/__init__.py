"""ScholarCloud: the paper's primary contribution.

Split-proxy architecture, message blinding, PAC-based whitelist
routing, and service legalization.
"""

from .blinding import (
    AffineCodec,
    BlindingAgility,
    BlindingCodec,
    ByteMapCodec,
    PaddedCodec,
    blind_unwrap,
    blind_wrap,
    default_codec,
)
from .deployment import (
    DeploymentReport,
    PAPER_DEPLOYMENT,
    UserPopulation,
    VmSpec,
    evaluate_deployment,
)
from .domestic_proxy import DOMESTIC_PROXY_PORT, DomesticProxy
from .pac import DIRECT, PacFile, proxy_decision
from .remote_proxy import REMOTE_PROXY_PORT, RemoteProxy
from .scholarcloud import ICP_NUMBER, ScConnector, ScholarCloud
from .whitelist import Whitelist, WhitelistEntry, scholar_whitelist

__all__ = [
    "AffineCodec",
    "BlindingAgility",
    "BlindingCodec",
    "ByteMapCodec",
    "DIRECT",
    "DOMESTIC_PROXY_PORT",
    "DeploymentReport",
    "DomesticProxy",
    "ICP_NUMBER",
    "PAPER_DEPLOYMENT",
    "PacFile",
    "PaddedCodec",
    "REMOTE_PROXY_PORT",
    "RemoteProxy",
    "ScConnector",
    "ScholarCloud",
    "UserPopulation",
    "VmSpec",
    "Whitelist",
    "WhitelistEntry",
    "blind_unwrap",
    "blind_wrap",
    "default_codec",
    "evaluate_deployment",
    "proxy_decision",
    "scholar_whitelist",
]
