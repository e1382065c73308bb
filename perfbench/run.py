"""ScholarCloud benchmark: one workload under one seed, timed and checked.

Run from the repository root::

    python3 perfbench/run.py --workload home-hybrid --seed 1 --seconds 12 --trace 0

With ``--trace 0`` the run repeats set-up + measured episodes of the
workload, as many as fill ``--seconds`` of measuring at the reference
host speed (at least three, the same number on every run), and prints
the end-to-end metrics: medians of the phase times (scaled to the
reference host speed, see ``hostspeed.py``), peak RSS, and the
simulated metrics every episode must agree on.
With ``--trace 1`` it does the same untraced work, then runs one traced
episode of the same workload and seed in a child process and prints the
per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
in this directory for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import typing as t
from pathlib import Path

from hostspeed import HostSpeed
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Fewest episodes a run medians over.
MIN_EPISODES = 3
#: No episode starts after this many host seconds of a run.
EPISODE_BUDGET_S = 60.0
#: The traced child must finish within this many seconds.
CHILD_TIMEOUT_S = 90.0

#: Layers whose self time is reported; the rest is ``other``.
LAYERS = ("sim", "net", "transport", "gfw", "perf.fluid", "core", "http",
          "cache")

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB",
    "plt_p50_s": "sim_s", "plt_p95_s": "sim_s", "completed_share": "share",
    "border_kb_per_load": "KiB",
}
PER_LAYER_UNITS = {
    **{name: "count" for name in (
        "sim.events", "sim.trace_records", "net.hops", "net.copies",
        "net.drops", "transport.segments", "transport.connections",
        "transport.retransmissions", "gfw.packets", "gfw.interference_drops",
        "perf.fluid.attempts", "perf.fluid.transfers",
        "perf.fluid.fallback.small-message", "core.streams",
        "core.dials_failed", "http.loads", "http.objects", "cache.lookups",
        "cache.insertions", "cache.evictions", "overload.offered",
        "overload.shed", "overload.decisions")},
    **{f"{layer}.self_share": "share" for layer in LAYERS + ("other",)},
    "perf.fluid.byte_share": "share",
    "cache.hit_ratio": "share",
    "overload.queue_delay_p95_s": "sim_s",
    "trace.overhead": "ratio",
}


def _load_program() -> None:
    """Put the checkout's program sources first on the import path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: program sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def percentile(sorted_values: t.Sequence[float], percent: int) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, (percent * len(sorted_values) + 99) // 100)
    return sorted_values[rank - 1]


def end_to_end(episodes: t.List[t.Any]) -> t.Dict[str, float]:
    outcome = episodes[0].outcome
    return {
        "setup_s": statistics.median(e.setup_s for e in episodes),
        "wall_s": statistics.median(e.wall_s for e in episodes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "plt_p50_s": percentile(outcome.plts, 50),
        "plt_p95_s": percentile(outcome.plts, 95),
        "completed_share": outcome.succeeded / outcome.attempted,
        "border_kb_per_load": outcome.border_bytes / 1024 / outcome.attempted,
    }


def check_episode(plan: t.Any, episode: t.Any) -> t.List[str]:
    """Output checks of one episode: accounting and workload paths."""
    problems = []
    outcome = episode.outcome
    expected = [len(steps) for steps in plan.steps]
    if outcome.per_client != expected or outcome.attempted != plan.loads:
        problems.append(
            f"{outcome.attempted} measured loads recorded for {plan.loads} "
            f"planned, or a client recorded a load twice or not at all")
    if outcome.succeeded + outcome.failed != outcome.attempted:
        problems.append(
            f"{outcome.succeeded} succeeded + {outcome.failed} failed loads "
            f"!= {outcome.attempted} attempted")
    if plan.spec.cache:
        evictions = episode.delta("cache.evictions")
        if evictions is not None and evictions <= 0:
            problems.append("the edge cache evicted nothing")
        if outcome.shed <= 0:
            problems.append("admission shed no measured load")
    if plan.spec.mode == "packet":
        if episode.after.get("perf.fluid.transfers"):
            problems.append("the fluid fast path ran in packet mode")
    else:
        transfers = episode.delta("perf.fluid.transfers")
        fallbacks = episode.delta("perf.fluid.fallbacks")
        if transfers is not None and fallbacks is not None \
                and transfers + fallbacks <= 0:
            problems.append("the fluid fast path was never attempted")
    return problems


def per_layer(episode: t.Any, tracer: t.Any) -> t.Dict[str, float]:
    """Per-layer counts and self-time shares of one traced episode."""
    calls = tracer.calls
    wall = episode.wall_host_s
    selfs = tracer.self_times()

    def delta(name: str) -> float:
        value = episode.delta(name)
        return 0.0 if value is None else value

    metrics: t.Dict[str, float] = {
        "sim.events": calls.get("repro.sim:Simulator.step", 0),
        "sim.trace_records": calls.get("repro.sim:TraceLog.emit", 0),
        "net.hops": calls.get("repro.net:Link.transmit", 0),
        "net.copies": calls.get("repro.net:Packet.copy", 0),
        "net.drops": delta("net.drops"),
        "transport.segments": calls.get(
            "repro.transport:TcpConnection.handle_segment", 0),
        "transport.connections": calls.get(
            "repro.transport:TransportLayer.connect_tcp", 0),
        "transport.retransmissions": tracer.retransmissions(),
        "gfw.packets": delta("gfw.packets"),
        "gfw.interference_drops": delta("gfw.interference_drops"),
        "perf.fluid.attempts": calls.get(
            "repro.perf.fluid:FluidRegistry.try_transfer", 0),
        "perf.fluid.transfers": delta("perf.fluid.transfers"),
        "perf.fluid.byte_share": (delta("perf.fluid.bytes")
                                  / tracer.fluid_offered
                                  if tracer.fluid_offered else 0.0),
        "perf.fluid.fallback.small-message": delta(
            "perf.fluid.fallback.small-message"),
        "core.streams": delta("core.streams"),
        "core.dials_failed": delta("core.dials_failed"),
        "http.loads": episode.outcome.attempted,
        "http.objects": episode.outcome.objects,
        "cache.insertions": delta("cache.insertions"),
        "cache.evictions": delta("cache.evictions"),
        "overload.offered": delta("overload.offered"),
        "overload.shed": delta("overload.shed"),
        "overload.decisions": episode.after.get("overload.decisions") or 0,
        "overload.queue_delay_p95_s": percentile(
            sorted(episode.queue_delays), 95),
    }
    lookups = delta("cache.hits") + delta("cache.misses")
    metrics["cache.lookups"] = lookups
    metrics["cache.hit_ratio"] = delta("cache.hits") / lookups if lookups else 0.0
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = selfs.get(layer, 0.0) / wall
    metrics["other.self_share"] = 1.0 - sum(
        metrics[f"{layer}.self_share"] for layer in LAYERS)
    return metrics


def traced_child(workload: str, seed: int) -> None:
    """The traced run: one episode with every entry point wrapped."""
    import workloads
    plan = workloads.make_plan(workload, seed)
    speed = HostSpeed()
    tracer = Tracer().install()
    try:
        episode = workloads.run_episode(plan, speed, tracer)
    finally:
        tracer.uninstall()
    missing = tracer.missing + sorted(
        name for name, value in episode.after.items() if value is None)
    print(json.dumps({
        "digest": episode.outcome.digest(),
        "wall_s": episode.wall_s,
        "metrics": per_layer(episode, tracer),
        "missing": missing,
        "spans": tracer.span_table(),
    }))


def run_traced_child(args: argparse.Namespace) -> t.Dict[str, t.Any]:
    command = [sys.executable, str(HERE / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--traced-child"]
    try:
        child = subprocess.run(command, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: traced run exceeded {CHILD_TIMEOUT_S:.0f} s")
    if child.returncode != 0 or not child.stdout.strip():
        sys.exit(f"perfbench: traced run failed:\n{child.stderr}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def main(argv: t.Optional[t.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _load_program()
    import workloads
    if args.workload not in workloads.SPECS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"pick one of {sorted(workloads.SPECS)}")
    if args.traced_child:
        traced_child(args.workload, args.seed)
        return 0

    plan = workloads.make_plan(args.workload, args.seed)
    problems = workloads.check_plan(plan)
    if problems:
        sys.exit("perfbench: the plan cannot exercise its workload: "
                 + "; ".join(problems))

    speed = HostSpeed()
    # A fixed count, not "until --seconds have passed": the median must
    # cover the same episodes on a faster or slower program.
    count = max(MIN_EPISODES, round(args.seconds / plan.spec.measured_s))
    started = time.perf_counter()
    episodes: t.List[t.Any] = []
    while len(episodes) < count:
        if episodes and time.perf_counter() - started > EPISODE_BUDGET_S:
            break
        episodes.append(workloads.run_episode(plan, speed))

    problems = []
    for episode in episodes:
        problems.extend(check_episode(plan, episode))
    digests = [e.outcome.digest() for e in episodes]
    if len(set(digests)) != 1:
        problems.append(f"same-seed episodes disagree: {digests}")
    outcome = episodes[0].outcome
    beyond_p95 = sum(1 for plt in outcome.plts
                     if plt > percentile(outcome.plts, 95))
    print(f"workload={args.workload} seed={args.seed} episodes={len(episodes)} "
          f"digest={digests[0]} border_bytes={outcome.border_bytes}")
    print("setup_s=" + " ".join(f"{e.setup_s:.3f}" for e in episodes)
          + "  wall_s=" + " ".join(f"{e.wall_s:.3f}" for e in episodes)
          + "  host setup_s=" + " ".join(f"{e.setup_host_s:.3f}"
                                        for e in episodes)
          + "  host wall_s=" + " ".join(f"{e.wall_host_s:.3f}"
                                       for e in episodes)
          + f"  probe_ms={statistics.median(speed.probes) * 1000:.3f}")
    print(f"loads={outcome.attempted} succeeded={outcome.succeeded} "
          f"shed={outcome.shed} other_failures={outcome.unexpected_failures} "
          f"plt_samples={len(outcome.plts)} beyond_p95={beyond_p95} "
          f"warmups_failed={outcome.warmups_failed}")

    if args.trace:
        traced = run_traced_child(args)
        if traced["digest"] != digests[0]:
            problems.append(f"traced run digest {traced['digest']} differs "
                            f"from untraced {digests[0]}")
        metrics = traced["metrics"]
        metrics["trace.overhead"] = traced["wall_s"] / statistics.median(
            e.wall_s for e in episodes)
        for line in traced["spans"]:
            print("span " + line)
        if traced["missing"]:
            print("missing: " + " ".join(traced["missing"]))
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(episodes)
        units = END_TO_END_UNITS
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(e.outcome.attempted for e in episodes),
        "failed": sum(e.outcome.unexpected_failures for e in episodes),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
