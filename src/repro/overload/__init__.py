"""Overload protection: admission control, deadlines.

The paper's Figure 7 shows ScholarCloud degrading gently where
Shadowsocks collapses; this package supplies the mechanism behind a
gentle knee — shed a little excess load early and deterministically so
everything admitted still completes fast.  All of it is opt-in: the
domestic proxy constructs none of these objects unless handed an
:class:`OverloadConfig`, so calibrated paper traces are untouched.
"""

from .admission import (
    PRIORITY_BULK,
    PRIORITY_INTERACTIVE,
    AdmissionController,
    OverloadConfig,
)
from .deadline import Deadline, deadline_from_wire
from .queues import ConcurrencyLimiter

__all__ = [
    "AdmissionController",
    "ConcurrencyLimiter",
    "Deadline",
    "OverloadConfig",
    "PRIORITY_BULK",
    "PRIORITY_INTERACTIVE",
    "deadline_from_wire",
]
