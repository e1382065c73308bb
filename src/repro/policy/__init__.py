"""Non-technical regulation: agencies, ICP registration, investigations."""

from .agencies import (
    Investigation,
    MIIT,
    RegulatoryEnvironment,
    SecurityMinistry,
    ServiceListing,
    TCA,
)
from .icp import (
    APPROVED,
    IcpRegistration,
    IcpRegistry,
    REQUIRED_DOCUMENTS,
    REVOKED,
    SUBMITTED,
    UNDER_REVIEW,
)

__all__ = [
    "APPROVED",
    "IcpRegistration",
    "IcpRegistry",
    "Investigation",
    "MIIT",
    "REQUIRED_DOCUMENTS",
    "REVOKED",
    "RegulatoryEnvironment",
    "SUBMITTED",
    "SecurityMinistry",
    "ServiceListing",
    "TCA",
    "UNDER_REVIEW",
]
