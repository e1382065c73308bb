"""Tests for the measurement harness: metrics, survey, resources,
and light versions of the per-figure scenarios."""

import pytest

from repro.errors import MeasurementError
from repro.fleet.sweep import run_fleet_region_point
from repro.measure import (
    ClientLoadSample,
    Testbed,
    browser_cpu_percent,
    expected_counts,
    extra_client_cpu_percent,
    figure3_distribution,
    format_table,
    loss_rate,
    memory_after_extra_bytes,
    memory_before_bytes,
    percentile,
    sample_population,
    summarize,
    tabulate,
)
from repro.measure import scenarios
from repro.units import MiB


# -- metrics --------------------------------------------------------------------

def test_summarize_basic():
    summary = summarize([1.0, 2.0, 3.0, 4.0])
    assert summary.count == 4
    assert summary.mean == pytest.approx(2.5)
    assert summary.minimum == 1.0 and summary.maximum == 4.0
    assert summary.p50 == pytest.approx(2.5)


def test_summarize_empty_rejected():
    with pytest.raises(MeasurementError):
        summarize([])


def test_percentile_interpolates():
    assert percentile([0.0, 10.0], 0.5) == pytest.approx(5.0)
    assert percentile([5.0], 0.95) == 5.0
    with pytest.raises(MeasurementError):
        percentile([], 0.5)


def test_loss_rate():
    assert loss_rate(0, 0) == 0.0
    assert loss_rate(1, 100) == pytest.approx(0.01)
    with pytest.raises(MeasurementError):
        loss_rate(-1, 10)


def test_format_table_aligns():
    text = format_table(("a", "bbb"), [(1, 2), (333, 4)], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[2] and "bbb" in lines[2]
    assert len({len(l) for l in lines[3:]}) >= 1


# -- survey (Figure 3) -----------------------------------------------------------------

def test_expected_counts_sum_to_total():
    counts = expected_counts()
    assert sum(counts.values()) == pytest.approx(371)


def test_sampled_population_matches_marginals():
    population = sample_population(total=40_000, seed=7)
    distribution = figure3_distribution(population)
    assert distribution["bypass-share"] == pytest.approx(0.26, abs=0.01)
    assert distribution["vpn"] == pytest.approx(0.43, abs=0.02)
    assert distribution["shadowsocks"] == pytest.approx(0.21, abs=0.02)
    assert distribution["tor"] == pytest.approx(0.02, abs=0.01)
    assert distribution["native-vpn-within-vpn"] == pytest.approx(0.93, abs=0.02)


def test_sample_population_deterministic():
    assert tabulate(sample_population(seed=1)) == tabulate(sample_population(seed=1))


def test_sample_population_validation():
    with pytest.raises(MeasurementError):
        sample_population(total=0)


# -- resource models (Figure 6b/6c) --------------------------------------------------------

def test_cpu_model_ordering_matches_paper():
    """Native VPN lightest, Tor heaviest (Figure 6b)."""
    def cpu(method):
        sample = ClientLoadSample(method, wire_bytes=30_000,
                                  cycle_seconds=60, connections=6)
        return browser_cpu_percent(sample)

    values = {m: cpu(m) for m in
              ("native-vpn", "openvpn", "tor", "shadowsocks", "scholarcloud")}
    assert values["tor"] == max(values.values())
    assert min(values, key=values.get) in ("scholarcloud", "native-vpn")
    # The paper: the spread is real but not dramatic (~18%).
    assert values["tor"] / values["native-vpn"] < 1.5


def test_extra_client_cpu_is_trivial():
    assert extra_client_cpu_percent("openvpn") < 0.5
    assert extra_client_cpu_percent("native-vpn") == 0.0


def test_memory_model_before_and_after():
    assert memory_before_bytes("tor") > 1.5 * memory_before_bytes("native-vpn")
    def extra(method, conns=6):
        return memory_after_extra_bytes(
            ClientLoadSample(method, 30_000, 60, conns))
    assert extra("tor") == max(extra(m) for m in
                               ("native-vpn", "openvpn", "tor",
                                "shadowsocks", "scholarcloud"))
    assert extra("native-vpn") < extra("tor")
    assert extra("native-vpn") >= MiB(20)


def test_unknown_method_rejected():
    with pytest.raises(MeasurementError):
        browser_cpu_percent(ClientLoadSample("ftp-bounce", 1, 1, 1))


# -- scenarios (light versions of the figure experiments) ------------------------------------

def test_build_method_unknown():
    with pytest.raises(MeasurementError):
        scenarios.build_method(Testbed(), "carrier-pigeon")


def test_plt_experiment_first_exceeds_subsequent():
    result = scenarios.run_plt_experiment("scholarcloud", samples=3)
    assert result.first_time > result.subsequent.mean
    assert result.errors == 0


def test_rtt_experiment_reasonable_range():
    summary = scenarios.run_rtt_experiment("native-vpn", probes=5)
    assert 0.15 < summary.mean < 0.40  # a Pacific round trip


def test_plr_tor_worse_than_vpn():
    tor = scenarios.run_plr_experiment("tor", loads=6)
    vpn = scenarios.run_plr_experiment("native-vpn", loads=6)
    assert tor.rate > vpn.rate


def test_us_baseline_plr_is_tiny():
    baseline = scenarios.run_us_baseline_plr(loads=6)
    assert baseline.rate < 0.005


def test_traffic_native_vpn_heavier_than_openvpn():
    native = scenarios.run_traffic_experiment("native-vpn")
    open_vpn = scenarios.run_traffic_experiment("openvpn")
    assert native.cycle_bytes > open_vpn.cycle_bytes


def test_scalability_point_runs():
    summary = scenarios.run_scalability_point("scholarcloud", clients=3,
                                              cycles=1)
    assert summary.count >= 2
    assert summary.mean > 0


# -- the load driver's workload registry ------------------------------------------------------

def test_overload_point_runs_the_fleet_query_workload():
    result = scenarios.run_overload_point(clients=2, cycles=1,
                                          workload="queries")
    assert result.completed == 2 and result.failed == 0


def test_fleet_point_runs_query_bursts():
    result = run_fleet_region_point("beijing", pops=1, clients=2, cycles=1,
                                    mode="packet", workload="query-bursts")
    assert result.completed >= 1


def test_unknown_workload_rejected_by_both_entry_points():
    with pytest.raises(MeasurementError):
        scenarios.run_overload_point(clients=1, cycles=1,
                                     workload="citation-crawl")
    with pytest.raises(MeasurementError):
        run_fleet_region_point("beijing", pops=1, clients=1, cycles=1,
                               mode="packet", workload="citation-crawl")
