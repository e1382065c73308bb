"""Parallel experiment runner: fan independent simulation points out.

The Figure 4–7 sweeps, the fault matrix, and the overload sweep are all
grids of *hermetic* simulation points: each ``(method, load, seed)``
cell builds its own :class:`~repro.measure.testbed.Testbed`, owns its
own :class:`~repro.sim.rng.RngRegistry`, and shares no state with any
other cell.  That makes them embarrassingly parallel — the same
discipline that lets measurement platforms like ICLab or the
Ensafi et al. GFW probing study reach their coverage.

:func:`run_points` maps a list of :class:`SweepPoint` cells over a
process pool and merges results back in *point order* (the order the
caller listed them), so the output is byte-identical to the serial
runner: parallelism changes wall-clock time and nothing else.  The
equivalence suite asserts this, not assumes it.

Workers are plain OS processes; each point is re-executed from its
pickled ``(function, kwargs)`` description, so functions must be
module-level (picklable) and fully determined by their arguments —
which is exactly the determinism contract the scenario functions
already honour (one ``seed`` kwarg fixes the whole trace).
"""

from __future__ import annotations

import os
import typing as t
from dataclasses import dataclass, field

from ..errors import MeasurementError

T = t.TypeVar("T")


@dataclass(frozen=True)
class SweepPoint:
    """One hermetic experiment cell: ``function(**kwargs)``.

    ``label`` names the point in merged results (e.g. ``("shadowsocks",
    60, 0)`` for a Figure 7 cell); it is also the merge key, so labels
    must be unique within a sweep.
    """

    label: t.Tuple[t.Any, ...]
    function: t.Callable[..., t.Any]
    kwargs: t.Dict[str, t.Any] = field(default_factory=dict)

    def run(self) -> t.Any:
        return self.function(**self.kwargs)


def _invoke(payload: t.Tuple[int, SweepPoint]) -> t.Tuple[int, t.Any]:
    """Worker entry point: execute one point, tag it with its index."""
    index, point = payload
    return index, point.run()


def serial_map(points: t.Sequence[SweepPoint]) -> t.List[t.Any]:
    """The serial runner: execute points in order on this process."""
    return [point.run() for point in points]


def default_workers() -> int:
    """Worker count: one per CPU, at least 1."""
    return max(1, os.cpu_count() or 1)


def run_points(
    points: t.Sequence[SweepPoint],
    workers: t.Optional[int] = None,
) -> t.List[t.Any]:
    """Execute every point; return results in point order.

    With more than one worker available, points fan out across a
    process pool (fork start method where the platform offers it) and
    results are merged back by point index — a deterministic,
    seed-keyed ordered merge.  Any worker exception propagates to the
    caller.  With one worker or one point this degrades to
    :func:`serial_map`, so callers never need two code paths.
    """
    labels = [point.label for point in points]
    if len(set(labels)) != len(labels):
        raise MeasurementError("sweep points must have unique labels")
    count = default_workers() if workers is None else max(1, int(workers))
    count = min(count, len(points))
    if count <= 1 or len(points) <= 1:
        return serial_map(points)

    # The runner is host-side orchestration: every worker runs a whole,
    # self-contained simulation, so no simulated state ever crosses a
    # process boundary (see the sim-forbidden-import exemption in
    # pyproject.toml).
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else None)
    results: t.List[t.Any] = [None] * len(points)
    with context.Pool(processes=count) as pool:
        for index, value in pool.imap_unordered(
                _invoke, list(enumerate(points))):
            results[index] = value
    return results


def merge_by_label(points: t.Sequence[SweepPoint],
                   results: t.Sequence[t.Any]) -> t.Dict[t.Tuple[t.Any, ...], t.Any]:
    """Zip points back up with their results, keyed by label."""
    return {point.label: value for point, value in zip(points, results)}


# -- canonical sweeps ----------------------------------------------------------


def scalability_points(
    methods: t.Sequence[str],
    levels: t.Sequence[int],
    cycles: int = 1,
    seed: int = 0,
) -> t.List[SweepPoint]:
    """The Figure 7 grid as sweep points (one per method × level)."""
    from ..measure.scenarios import run_scalability_point

    return [
        SweepPoint(label=(method, int(level), int(seed)),
                   function=run_scalability_point,
                   kwargs={"method": method, "clients": int(level),
                           "cycles": cycles, "seed": seed})
        for method in methods
        for level in levels
    ]
