"""Tests for the whitelist and PAC generation/evaluation."""

import pytest

from repro.core import PacFile, Whitelist, scholar_whitelist
from repro.errors import ConfigurationError, PolicyError


# -- whitelist ---------------------------------------------------------------------

def test_whitelist_suffix_matching():
    wl = scholar_whitelist()
    assert wl.allows("scholar.google.com")
    assert wl.allows("fonts.gstatic.com")
    assert not wl.allows("www.google.com")      # only Scholar, not all Google
    assert not wl.allows("evil-gstatic.com.cn")
    assert not wl.allows(None)


def test_whitelist_add_remove_audited():
    wl = Whitelist()
    wl.add("scholar.google.com", "academic search", now=1.0)
    assert wl.allows("scholar.google.com")
    wl.remove("scholar.google.com", now=2.0)
    assert not wl.allows("scholar.google.com")
    assert [(t, action) for t, action, _d in wl.audit_log] == [
        (1.0, "add"), (2.0, "remove")]


def test_whitelist_remove_unknown_rejected():
    with pytest.raises(PolicyError):
        Whitelist().remove("nothere.com")


def test_whitelist_rejects_bad_domain():
    with pytest.raises(PolicyError):
        Whitelist().add("not-a-domain", "nope")


def test_whitelist_domains_visible_and_sorted():
    wl = scholar_whitelist()
    domains = wl.domains()
    assert domains == sorted(domains)
    assert "scholar.google.com" in domains


# -- PAC ----------------------------------------------------------------------------------

def test_pac_routes_whitelist_to_proxy():
    pac = PacFile(scholar_whitelist(), "59.66.2.100", 8080)
    assert pac.evaluate("https://scholar.google.com/") == "PROXY 59.66.2.100:8080"
    assert pac.evaluate("https://www.baidu.com/") == "DIRECT"


def test_pac_subdomain_matching():
    pac = PacFile(scholar_whitelist(), "p", 8080)
    assert pac.evaluate_host("fonts.gstatic.com").startswith("PROXY")


def test_pac_render_is_valid_javascript_shape():
    pac = PacFile(scholar_whitelist(), "59.66.2.100", 8080)
    text = pac.render()
    assert "function FindProxyForURL(url, host)" in text
    assert 'return "PROXY 59.66.2.100:8080"' in text
    assert 'return "DIRECT"' in text
    for domain in scholar_whitelist().domains():
        assert domain in text


def test_pac_empty_whitelist_is_all_direct():
    pac = PacFile(Whitelist(), "p", 8080)
    assert pac.evaluate("https://scholar.google.com/") == "DIRECT"
    assert "false" in pac.render()


def test_pac_validation():
    with pytest.raises(ConfigurationError):
        PacFile(scholar_whitelist(), "", 8080)
    with pytest.raises(ConfigurationError):
        PacFile(scholar_whitelist(), "p", 0)
