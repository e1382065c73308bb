"""Tests for kernel support modules: RNG streams, trace log, units."""

import pytest

from repro import units
from repro.sim import RngRegistry, Simulator, TraceLog


# -- RNG registry ---------------------------------------------------------------

def test_streams_are_deterministic_per_seed():
    a = RngRegistry(1).stream("gfw")
    b = RngRegistry(1).stream("gfw")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_streams_are_independent_by_name():
    registry = RngRegistry(1)
    gfw = [registry.stream("gfw").random() for _ in range(5)]
    registry2 = RngRegistry(1)
    registry2.stream("other").random()  # interleave another stream
    gfw2 = [registry2.stream("gfw").random() for _ in range(5)]
    assert gfw == gfw2


def test_stream_identity_is_cached():
    registry = RngRegistry(0)
    assert registry.stream("x") is registry.stream("x")


def test_fork_derives_different_streams():
    parent = RngRegistry(3)
    child = parent.fork("client-1")
    assert parent.stream("a").random() != child.stream("a").random()


def test_reset_reseeds():
    registry = RngRegistry(5)
    first = registry.stream("s").random()
    registry.reset()
    assert registry.stream("s").random() == first


# -- trace log ---------------------------------------------------------------------

def test_trace_records_and_selects():
    sim = Simulator()
    trace = TraceLog(sim)
    trace.emit("link.drop", link="border", reason="gfw")
    sim.timeout(5.0)
    sim.run()
    trace.emit("link.drop", link="campus", reason="noise")
    drops = trace.select("link.drop", link="border")
    assert len(drops) == 1
    assert drops[0]["reason"] == "gfw"
    assert drops[0].time == 0.0


def test_trace_subscribers_fire():
    sim = Simulator()
    trace = TraceLog(sim)
    seen = []
    trace.subscribe(lambda record: seen.append(record.category))
    trace.emit("a")
    trace.emit("b")
    assert seen == ["a", "b"]


def test_trace_clear_keeps_subscribers():
    sim = Simulator()
    trace = TraceLog(sim)
    seen = []
    trace.subscribe(lambda record: seen.append(1))
    trace.emit("x")
    trace.clear()
    assert trace.records == []
    trace.emit("y")
    assert len(seen) == 2


# -- units ------------------------------------------------------------------------------

def test_time_units():
    assert units.ms(330) == pytest.approx(0.330)
    assert units.us(250) == pytest.approx(0.00025)
    assert units.minutes(2) == 120
    assert units.hours(1) == 3600


def test_size_units():
    assert units.KB(19) == 19_000
    assert units.MB(1.5) == 1_500_000
    assert units.MiB(2) == 2 * 1024 * 1024


def test_bandwidth_units():
    assert units.Mbps(100) == pytest.approx(12_500_000)  # bytes/second
