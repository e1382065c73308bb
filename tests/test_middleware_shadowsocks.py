"""Tests for Shadowsocks: protocol framing, sessions, GFW interaction."""

import pytest

from repro.crypto import shannon_entropy
from repro.errors import MiddlewareError
from repro.gfw.dpi import SS_FIRST_FRAME_RANGE
from repro.measure import Testbed
from repro.transport import TcpConnection
from repro.middleware.shadowsocks import (
    SS_PORT,
    ShadowsocksMethod,
    SsLocal,
    address_block,
    derive_key,
    first_frame,
    first_frame_features,
)
from repro.middleware.shadowsocks.server import AUTH_DEMAND


def ss_world(**kwargs):
    testbed = Testbed()
    method = ShadowsocksMethod(testbed, **kwargs)
    testbed.run_process(method.setup())
    return testbed, method


# -- protocol framing ------------------------------------------------------------

def test_key_derivation_matches_openssl_convention():
    key = derive_key("scholar-tunnel")
    assert len(key) == 32
    assert key == derive_key("scholar-tunnel")
    assert key != derive_key("other-password")


def test_address_block_layout():
    block = address_block("scholar.google.com", 443)
    assert block[0] == 3  # ATYP domain
    assert block[1] == len("scholar.google.com")
    assert block[-2:] == (443).to_bytes(2, "big")


def test_first_frame_is_real_ciphertext():
    frame = first_frame("pw", "scholar.google.com", 443, iv=b"\x00" * 16)
    assert frame[:16] == b"\x00" * 16
    # The encrypted part must not contain the plaintext hostname.
    assert b"scholar" not in frame


def test_first_frame_features_match_dpi_expectations():
    features = first_frame_features("pw", "scholar.google.com", 443)
    low, high = SS_FIRST_FRAME_RANGE
    assert low <= features.length_signature <= high
    assert features.entropy > 7.5
    assert features.protocol_tag == "unknown-stream"


def test_longer_hostname_longer_signature():
    short = first_frame_features("pw", "a.io", 443)
    long = first_frame_features("pw", "very-long-hostname.google.com", 443)
    assert long.length_signature > short.length_signature


def test_first_frame_features_are_memoized_in_a_bounded_cache():
    first = first_frame_features("pw", "memo.example.org", 443)
    assert first_frame_features("pw", "memo.example.org", 443) is first
    other = first_frame_features("pw", "a-much-longer-memo.example.org", 443)
    assert other.length_signature != first.length_signature
    maxsize = first_frame_features.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 1024


# -- end-to-end behaviour -----------------------------------------------------------

def test_shadowsocks_reaches_blocked_scholar():
    testbed, method = ss_world()
    browser = testbed.browser(connector=method.connector())
    result = testbed.run_process(browser.load(testbed.scholar_page))
    assert result.succeeded, result.error


def test_connector_requires_setup():
    with pytest.raises(MiddlewareError):
        ShadowsocksMethod(Testbed()).connector()


def test_keepalive_forces_reauthentication():
    testbed, method = ss_world()
    browser = testbed.browser(connector=method.connector())
    testbed.run_process(browser.load(testbed.scholar_page))
    auths_before = method.local.auth_rounds
    # Within the keep-alive window: no session re-auth needed.
    testbed.sim.run(until=testbed.sim.now + 5)
    testbed.run_process(browser.load(testbed.scholar_page))
    within = method.local.auth_rounds
    # Past the 10 s keep-alive: the session must re-authenticate.
    testbed.sim.run(until=testbed.sim.now + 60)
    testbed.run_process(browser.load(testbed.scholar_page))
    assert within == auths_before
    assert method.local.auth_rounds == within + 1


def test_wrong_password_hangs_silently():
    testbed, _method = ss_world()
    from repro.middleware.shadowsocks import SsLocal

    bad = SsLocal(testbed, testbed.remote_vm.address, password="wrong")

    def body(sim):
        task = sim.process(bad.ensure_session(), name="bad-auth")
        yield sim.any_of([task, sim.timeout(20.0)])
        return task.triggered

    finished = testbed.run_process(body(testbed.sim))
    assert not finished  # the server never answers a bad credential


def test_gfw_labels_shadowsocks_flows():
    testbed, method = ss_world()
    browser = testbed.browser(connector=method.connector())
    testbed.run_process(browser.load(testbed.scholar_page))
    assert testbed.gfw.stats.flows_labeled.get("shadowsocks", 0) >= 1


def test_server_auth_consumes_vm_cpu():
    """Every authentication charges the shared VM's CPU."""
    testbed = Testbed()
    cpu = testbed.remote_cpu
    demands = []
    submit = cpu.submit

    def counted_submit(demand):
        demands.append(demand)
        return submit(demand)

    cpu.submit = counted_submit
    method = ShadowsocksMethod(testbed)
    testbed.run_process(method.setup())
    browser = testbed.browser(connector=method.connector())
    testbed.run_process(browser.load(testbed.scholar_page))
    assert method.server.auths >= 1
    assert demands.count(AUTH_DEMAND) == method.server.auths


def test_multi_client_attachment():
    testbed = Testbed(extra_clients=2)
    method = ShadowsocksMethod(testbed)
    testbed.run_process(method.setup())

    def attach_and_load(sim, host):
        connector = yield from method.attach_client(host)
        from repro.http import Browser
        browser = Browser(sim, connector)
        result = yield sim.process(browser.load(testbed.scholar_page))
        return result

    for host in testbed.extra_clients:
        result = testbed.run_process(attach_and_load(testbed.sim, host))
        assert result.succeeded, result.error


def test_active_probing_kills_shadowsocks_but_not_web():
    """The ablation the paper's related work warns about: probing."""
    from repro.gfw import GfwConfig
    testbed = Testbed(gfw_config=GfwConfig(inside_name="border-cn",
                                           active_probing=True))
    method = ShadowsocksMethod(testbed)
    testbed.run_process(method.setup())
    browser = testbed.browser(connector=method.connector())
    testbed.run_process(browser.load(testbed.scholar_page))
    testbed.sim.run(until=testbed.sim.now + 120)  # probe delay + verdict
    from repro.net import IPv4Address
    assert testbed.policy.ip_blocked(IPv4Address(str(testbed.remote_vm.address)))
    # Subsequent loads through the blocked server fail.
    result = testbed.run_process(browser.load(testbed.scholar_page))
    assert not result.succeeded


def test_a_finalized_auth_exchange_closes_nothing(monkeypatch):
    """An auth exchange still waiting when its simulation ends is closed
    when its generator is freed, often by the cyclic collector during a
    later run.  It must then close nothing: the FIN would be queued on
    a simulator that has stopped, with a packet id taken from whatever
    runs next."""
    closes = []
    close = TcpConnection.close

    def counting_close(conn):
        closes.append(conn)
        close(conn)

    monkeypatch.setattr(TcpConnection, "close", counting_close)
    testbed = Testbed()
    # A server that accepts and never answers: the exchange waits for
    # its challenge with the connection open.
    testbed.transport_of(testbed.remote_vm).listen_tcp(
        SS_PORT, lambda conn: None)
    local = SsLocal(testbed, testbed.remote_vm.address)
    session = local.ensure_session()
    sim = testbed.sim
    sim.process(session)
    sim.run(until=5.0)
    (conn,) = testbed.transport_of(testbed.client)._connections.values()
    assert conn.state == "ESTABLISHED"
    seq = sim._seq
    session.close()
    assert closes == []
    assert sim._seq == seq
    assert conn.state == "ESTABLISHED"
