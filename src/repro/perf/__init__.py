"""``repro.perf`` — the hot-path optimization layer and its harnesses.

The reproduction's north star is a system that runs as fast as the
hardware allows, yet the seed implementation moved every relayed byte
through per-byte Python loops (``ByteMapCodec``, the pure-Python AES),
re-ran the full DPI classifier chain on every packet, and swept the
Figure 4–7 grids one simulation at a time.  This package holds the
machinery that keeps the optimized paths honest and the sweeps fast:

* :mod:`repro.perf.reference` — frozen copies of the original slow
  paths.  They are the *equivalence oracles*: the optimized codec, AES,
  and stream-mode implementations must stay byte-identical to them on
  every input (asserted in ``tests/test_perf_equivalence.py``), and
  ``benchmarks/test_perf_gates.py`` requires the codec and AES fast
  paths to beat them at least 5x.
* :mod:`repro.perf.runner` — a parallel experiment runner that fans
  independent ``(method, load, seed)`` simulation points across worker
  processes and merges results in deterministic point order.  Results
  are byte-identical to the serial runner: each point is a hermetic
  simulation keyed only by its arguments.
* :mod:`repro.perf.fluid` — the fluid-flow fast path: steady-state
  connections collapse per-packet transfers into single analytic
  :class:`~repro.sim.FlowEvent` deliveries (``mode="hybrid"``), held
  to declared tolerance bands against packet mode.
"""

from .fluid import (
    MODES,
    TOLERANCE_BANDS,
    FluidRegistry,
    aggregate_overload,
    band_failures,
)
from .runner import (
    SweepPoint,
    run_points,
    serial_map,
)

__all__ = [
    "FluidRegistry",
    "MODES",
    "SweepPoint",
    "TOLERANCE_BANDS",
    "aggregate_overload",
    "band_failures",
    "run_points",
    "serial_map",
]
