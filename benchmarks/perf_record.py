"""Write ``BENCH_perf.json``: the perfbench record of every workload.

Run from the repository root, with no arguments::

    python3 benchmarks/perf_record.py

For each workload that ``BENCHMARK.json`` names, it runs
``perfbench/run.py`` in a child process, as CI does:

* seed 1, ``--seconds <run_seconds> --trace 0``, five times;
* held-out seed 1009, ``--seconds 3 --trace 0``, once;
* seed 1, ``--seconds 3 --trace 1``, once.

It exits non-zero, and writes nothing, unless every run reports
``"correct": true``, the traced run names nothing ``missing:``, and the
runs of one seed agree on the digest.
For each workload the record holds the seed-1 and seed-1009 digests,
every traced metric whose unit is ``count``, and the medians over the
five timed runs of ``setup_s``, ``wall_s`` and ``peak_rss_mb``.

The digests and counts are exact, and CI's perfbench job checks its
runs against them.  The timings describe the host they were measured on
(``cpu_count`` and ``python`` say which); they are a record, not a gate.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "BENCH_perf.json"
TIMED_RUNS = 5
SHORT_SECONDS = 3
TIMINGS = ("setup_s", "wall_s", "peak_rss_mb")


def perfbench(workload, seed, seconds, trace):
    """One checked run: its digest and its metrics by name."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    print(" ".join(command[1:]), flush=True)
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                         check=False)
    lines = run.stdout.splitlines()
    result = json.loads(lines[-1]) if run.returncode == 0 and lines else {}
    # A traced run that lost an entry point or counter reads 0 for it.
    missing = any(line.startswith("missing:") for line in lines)
    if not result.get("correct") or missing:
        sys.exit(f"perf_record: this run is not correct:\n"
                 f"{run.stdout}{run.stderr}")
    digest = lines[0].split(" digest=")[1].split()[0]
    return digest, result["metrics"]


def record(workload, run_seconds):
    timed = [perfbench(workload, 1, run_seconds, 0) for _ in range(TIMED_RUNS)]
    held_out, _ = perfbench(workload, 1009, SHORT_SECONDS, 0)
    traced_digest, traced = perfbench(workload, 1, SHORT_SECONDS, 1)
    seed_1 = {digest for digest, _ in timed} | {traced_digest}
    if len(seed_1) != 1:
        sys.exit(f"perf_record: {workload} seed-1 runs disagree: "
                 f"{sorted(seed_1)}")
    entry = {"digest_seed_1": traced_digest, "digest_seed_1009": held_out,
             "counts": {name: metric["value"]
                        for name, metric in traced.items()
                        if metric["unit"] == "count"}}
    for name in TIMINGS:
        entry[name] = round(statistics.median(
            metrics[name]["value"] for _, metrics in timed), 3)
    return entry


def main():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {spec["name"]: record(spec["name"], benchmark["run_seconds"])
                 for spec in benchmark["workloads"]}
    report = {"cpu_count": os.cpu_count(),
              "python": platform.python_version(),
              "workloads": workloads}
    RECORD.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {RECORD.name}")


if __name__ == "__main__":
    main()
