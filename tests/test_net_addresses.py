"""Unit tests for IPv4 addresses, prefixes, and allocation."""

import pytest

from repro.errors import AddressError
from repro.net import IPv4Address, Prefix


def test_parse_and_str_roundtrip():
    assert str(IPv4Address("203.0.113.7")) == "203.0.113.7"


def test_int_roundtrip():
    addr = IPv4Address("10.0.0.1")
    assert IPv4Address(int(addr)) == addr


def test_equality_with_string():
    assert IPv4Address("1.2.3.4") == "1.2.3.4"
    assert IPv4Address("1.2.3.4") != "1.2.3.5"


def test_hashable_and_ordered():
    a, b = IPv4Address("1.0.0.1"), IPv4Address("1.0.0.2")
    assert a < b
    assert len({a, b, IPv4Address("1.0.0.1")}) == 2


@pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", ""])
def test_malformed_addresses_rejected(bad):
    with pytest.raises(AddressError):
        IPv4Address(bad)


def test_address_out_of_range_int():
    with pytest.raises(AddressError):
        IPv4Address(2**32)


def test_prefix_membership():
    pfx = Prefix("203.0.113.0/24")
    assert "203.0.113.200" in pfx
    assert "203.0.114.1" not in pfx


def test_prefix_normalizes_network():
    assert str(Prefix("203.0.113.99/24")) == "203.0.113.0/24"


def test_prefix_zero_length_matches_everything():
    assert "8.8.8.8" in Prefix("0.0.0.0/0")


@pytest.mark.parametrize("bad", ["1.2.3.4", "1.2.3.4/33", "1.2.3.4/x"])
def test_malformed_prefixes_rejected(bad):
    with pytest.raises(AddressError):
        Prefix(bad)


def test_dotted_text_is_built_once_and_kept():
    addr = IPv4Address(0xCB007107)
    text = str(addr)
    assert text == "203.0.113.7"
    assert str(addr) is text
    assert repr(addr) == "IPv4Address('203.0.113.7')"
    assert str(IPv4Address(addr)) == text
