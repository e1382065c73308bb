"""Tests for the survey's 'other methods': hosts-file pin, web proxy."""

import pytest

from repro.errors import MiddlewareError
from repro.measure import Testbed
from repro.middleware import HostsFileMethod, PublicWebProxy


# -- hosts-file pinning ----------------------------------------------------------

def test_hosts_file_defeats_dns_poisoning_only():
    """The pin gets the true address (no poisoned answer), but the SNI
    filter still kills the connection — the method's 2017 reality."""
    testbed = Testbed()
    method = HostsFileMethod(testbed)
    testbed.run_process(method.setup())

    result = testbed.run_process(
        testbed.browser(connector=method.connector()).load(testbed.scholar_page))
    assert not result.succeeded
    assert testbed.gfw.poisoner.injections == 0   # DNS never asked
    assert testbed.gfw.stats.sni_resets >= 1      # ...but DPI still hit


def test_hosts_file_worked_in_the_dns_only_era():
    """Against a DNS-poisoning-only GFW (pre-DPI), the pin suffices."""
    from repro.gfw import GfwConfig
    testbed = Testbed(gfw_config=GfwConfig(inside_name="border-cn",
                                           dpi=False,
                                           keyword_filtering=False))
    method = HostsFileMethod(testbed)
    testbed.run_process(method.setup())
    result = testbed.run_process(
        testbed.browser(connector=method.connector()).load(testbed.scholar_page))
    assert result.succeeded, result.error


def test_hosts_file_requires_setup_and_pins_the_name():
    testbed = Testbed()
    method = HostsFileMethod(testbed)
    with pytest.raises(MiddlewareError):
        method.connector()
    testbed.run_process(method.setup())
    assert testbed.resolver.cached("scholar.google.com") is not None


# -- public web proxy ---------------------------------------------------------------

def test_web_proxy_killed_by_url_filtering():
    testbed = Testbed()
    method = PublicWebProxy(testbed)
    testbed.run_process(method.setup())
    result = testbed.run_process(
        testbed.browser(connector=method.connector()).load(testbed.scholar_page))
    # The blocked hostname travels in cleartext; the GFW resets it.
    assert not result.succeeded


def test_web_proxy_works_without_censorship():
    testbed = Testbed(gfw_enabled=False)
    method = PublicWebProxy(testbed)
    testbed.run_process(method.setup())
    result = testbed.run_process(
        testbed.browser(connector=method.connector()).load(testbed.scholar_page))
    assert result.succeeded, result.error
    assert method.fetches > 0


def test_web_proxy_requires_setup():
    with pytest.raises(MiddlewareError):
        PublicWebProxy(Testbed()).connector()
