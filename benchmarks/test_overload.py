"""Overload: the Figure 7 sweep extended past its knee.

The paper stops at 180 concurrent clients — about where the single
remote VM's CPU saturates.  This bench keeps going: with the overload
knobs on (admission cap + small waiting room + a fixed bound on each
waiter's queueing delay), ScholarCloud's *goodput* — completed page
loads per second of simulated time — must plateau at the cap rather
than collapse, with the excess absorbed by explicit sheds and every
admitted request's queueing delay held under the configured bound.

With the knobs off the harness is event-for-event the Figure 7 one —
asserted here against :func:`run_scalability_point` — so the paper's
calibrated traces never see the overload layer.
"""

import os

import pytest

from repro.measure import format_table, queue_delay_percentiles
from repro.measure.scenarios import run_overload_point, run_scalability_point
from repro.overload import OverloadConfig

#: Past-the-knee sweep (the paper's axis ends at 180), trimmed when
#: REPRO_FAST is set.
LEVELS = ((60, 120, 240, 300)
          if not os.environ.get("REPRO_FAST") else (60, 240))

#: The bench's reference knobs: a 120-session cap (the knee the sweep
#: crosses), a small waiting room, and a 2 s queue-delay bound.
CONFIG = OverloadConfig(max_sessions=120, max_waiting=16,
                        queue_delay_threshold=2.0)


@pytest.fixture(scope="module")
def overload_results():
    return {level: run_overload_point("scholarcloud", clients=level,
                                      cycles=1, seed=0, overload=CONFIG)
            for level in LEVELS}


def test_overload_degradation(benchmark, emit, overload_results):
    benchmark.pedantic(run_overload_point,
                       kwargs={"clients": 60, "cycles": 1, "seed": 1,
                               "overload": CONFIG},
                       rounds=1, iterations=1)
    rows = []
    for level in LEVELS:
        result = overload_results[level]
        percentiles = queue_delay_percentiles(result.report.queue_delays)
        p50, p95 = percentiles[0.50], percentiles[0.95]
        rows.append((
            level,
            str(result.completed),
            str(result.client_sheds),
            f"{result.goodput:.3f}",
            f"{result.shed_rate:.1%}",
            f"{p50:.3f}/{p95:.3f}",
        ))
    emit("overload_degradation", format_table(
        ("clients", "completed", "shed", "goodput/s", "shed rate",
         "queue p50/p95 (s)"),
        rows, title="Figure 7 extended — graceful degradation past the knee"))

    results = overload_results
    peak = max(results[level].goodput for level in LEVELS)
    top = results[max(LEVELS)]
    # Graceful degradation: past the knee, goodput holds >= 90% of the
    # sweep's peak instead of collapsing (Fig. 7's Shadowsocks shape).
    assert top.goodput >= 0.9 * peak
    # The excess load was absorbed by explicit sheds, not queueing.
    assert top.shed_rate > 0.0
    assert top.client_sheds > 0
    # Every *admitted* request's queueing delay stayed within the
    # configured bound (<= because a waiter shed exactly at the
    # threshold and one granted exactly there are the same instant).
    for level in LEVELS:
        delays = overload_results[level].report.queue_delays
        assert all(d <= CONFIG.queue_delay_threshold for d in delays), level
    # Below the knee nothing is shed: the knobs are invisible to a
    # healthy load.
    assert results[min(LEVELS)].client_sheds == 0
    assert results[min(LEVELS)].shed_rate == 0.0


def test_overload_off_matches_figure7_harness():
    """overload=None is event-for-event the Figure 7 experiment."""
    plain = run_scalability_point("scholarcloud", clients=30, cycles=1,
                                  seed=0)
    off = run_overload_point("scholarcloud", clients=30, cycles=1, seed=0,
                             overload=None)
    assert off.plt == plain
    assert off.decisions == []
    assert off.report.offered == 0 and off.report.shed == 0


def test_overload_sweep_is_seed_deterministic(overload_results):
    level = max(LEVELS)
    again = run_overload_point("scholarcloud", clients=level, cycles=1,
                               seed=0, overload=CONFIG)
    baseline = overload_results[level]
    assert again.decisions == baseline.decisions
    assert again.report == baseline.report
    assert again.plt == baseline.plt

    other = run_overload_point("scholarcloud", clients=level, cycles=1,
                               seed=7, overload=CONFIG)
    assert other.decisions != baseline.decisions
