"""Discrete-event simulation kernel.

Public surface::

    from repro.sim import Simulator

    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.5)
        return "done"

    result = sim.run(until=sim.process(proc(sim)))
"""

from .events import AllOf, AnyOf, Call, Event, FlowEvent, Timeout
from .kernel import LazyTimer, Process, Simulator
from .monitor import TraceLog, TraceRecord
from .resources import ProcessorSharingServer, Resource, Store
from .rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "Call",
    "Event",
    "FlowEvent",
    "LazyTimer",
    "Process",
    "ProcessorSharingServer",
    "Resource",
    "RngRegistry",
    "Simulator",
    "Store",
    "Timeout",
    "TraceLog",
    "TraceRecord",
]
