"""The registry of named RNG streams and who may draw them.

Variance isolation (see :mod:`repro.sim.rng`) only holds if stream
names are globally unique and owned: two components sharing a name
silently couple their draws, and a typo silently *decouples* a
component from the stream its experiment config seeds.  This manifest
is the single source of truth the ``rng-stream-registry`` rule checks
against; add a line here when introducing a stream.
"""

from __future__ import annotations

import typing as t

#: Stream name -> dotted module prefixes allowed to draw it.
STREAM_MANIFEST: t.Dict[str, t.Tuple[str, ...]] = {
    "link.loss": ("repro.net",),
    "fluid.loss": ("repro.perf",),
    "gfw.interference": ("repro.gfw", "repro.measure"),
    "mps": ("repro.policy",),
    "faults.schedule": ("repro.measure",),
    "scalability-offsets": ("repro.measure",),
    "cache.zipf": ("repro.measure", "repro.fleet"),
    "survey.population": ("repro.measure",),
    "resilience.sc-client": ("repro.core",),
    "resilience.sc-domestic": ("repro.core",),
    "failover.health": ("repro.faults",),
    "fleet.detector": ("repro.fleet",),
    "fleet.offsets": ("repro.fleet",),
    "survival.retry": ("repro.fleet",),
    "survival.offsets": ("repro.fleet",),
}

#: Dynamic (f-string) stream name prefixes -> allowed module prefixes.
#: ``f"link:{src}->{dst}"`` streams are per-edge and owned by the
#: network substrate.
DYNAMIC_STREAM_PREFIXES: t.Dict[str, t.Tuple[str, ...]] = {
    "link:": ("repro.net",),
    #: Per-region firewall interference streams (multi-region fleets
    #: keep each region's draws variance-isolated).
    "gfw.interference:": ("repro.fleet",),
}

#: Modules allowed to construct an RngRegistry.  Everyone else must
#: draw streams from a Simulator-owned registry (``sim.rng``) so one
#: experiment seed governs every draw.
REGISTRY_OWNERS: t.Tuple[str, ...] = (
    "repro.sim",
    "repro.measure.testbed",
)
