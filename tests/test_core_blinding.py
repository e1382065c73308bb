"""Tests for blinding codecs, including hypothesis round-trip properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AffineCodec,
    BlindingAgility,
    ByteMapCodec,
    PaddedCodec,
    default_codec,
)
from repro.crypto import shannon_entropy
from repro.errors import BlindingError

BYTES = st.binary(min_size=0, max_size=2048)


# -- byte map -------------------------------------------------------------------

def test_byte_map_is_a_permutation():
    codec = ByteMapCodec(b"secret")
    mapped = codec.encode(bytes(range(256)))
    assert sorted(mapped) == list(range(256))


def test_byte_map_requires_secret():
    with pytest.raises(BlindingError):
        ByteMapCodec(b"")


def test_byte_map_different_secrets_differ():
    a = ByteMapCodec(b"one").encode(b"hello world")
    b = ByteMapCodec(b"two").encode(b"hello world")
    assert a != b


@given(BYTES)
def test_byte_map_roundtrip(data):
    codec = ByteMapCodec(b"roundtrip")
    assert codec.decode(codec.encode(data)) == data


# -- affine ----------------------------------------------------------------------

@given(BYTES, st.integers(1, 255).filter(lambda n: n % 2 == 1),
       st.integers(0, 255))
@settings(max_examples=50)
def test_affine_roundtrip(data, multiplier, offset):
    codec = AffineCodec(multiplier, offset)
    assert codec.decode(codec.encode(data)) == data


def test_affine_rejects_even_multiplier():
    with pytest.raises(BlindingError):
        AffineCodec(2, 5)


def test_affine_positional_term_breaks_repetition():
    """Equal input bytes encode differently at different offsets."""
    codec = AffineCodec(7, 3)
    encoded = codec.encode(b"\x41" * 64)
    assert len(set(encoded)) > 16


# -- padded ------------------------------------------------------------------

@given(BYTES)
@settings(max_examples=50)
def test_padded_roundtrip(data):
    codec = PaddedCodec(ByteMapCodec(b"pad"), jitter=16)
    assert codec.decode(codec.encode(data)) == data


def test_padded_destroys_length_signature():
    """Two inputs of equal length may encode to different lengths, and
    encoded length never equals input length."""
    codec = PaddedCodec(ByteMapCodec(b"pad"), jitter=32)
    lengths = {len(codec.encode(bytes([i]) * 38)) for i in range(8)}
    assert all(length > 38 for length in lengths)


def test_padded_rejects_bad_jitter():
    with pytest.raises(BlindingError):
        PaddedCodec(ByteMapCodec(b"x"), jitter=0)


def test_padded_truncated_frame_rejected():
    codec = PaddedCodec(ByteMapCodec(b"x"))
    with pytest.raises(BlindingError):
        codec.decode(codec.encode(b"payload")[:3])


def test_header_codec_is_length_preserving():
    codec = default_codec()
    header = b"\x00\x00\x01\x00"
    encoded = codec.header_codec().encode(header)
    assert len(encoded) == len(header)
    assert codec.header_codec().decode(encoded) == header


# -- observable properties --------------------------------------------------------------

def test_blinded_tls_looks_unclassified():
    codec = default_codec()
    features = codec.features()
    assert features.protocol_tag == "unclassified"
    assert features.sni is None
    assert features.length_signature is None


def test_blinding_ciphertext_stays_high_entropy():
    """Blinding must not *reduce* entropy below ciphertext levels."""
    import os
    codec = default_codec()
    ciphertext = os.urandom(4096)
    assert shannon_entropy(codec.encode(ciphertext)) > 7.5


def test_blinded_text_hides_plaintext():
    codec = default_codec()
    encoded = codec.encode(b"GET / HTTP/1.1\r\nHost: scholar.google.com")
    assert b"scholar" not in encoded
    assert b"HTTP" not in encoded


# -- agility -----------------------------------------------------------------------------

def test_agility_rotation_changes_codec():
    agility = BlindingAgility(b"base")
    before = agility.codec.encode(b"sample-message")
    agility.rotate()
    after = agility.codec.encode(b"sample-message")
    assert agility.epoch == 1
    assert before != after


def test_agility_epochs_are_deterministic():
    a = BlindingAgility(b"base")
    b = BlindingAgility(b"base")
    a.rotate()
    b.rotate()
    assert a.codec.encode(b"x" * 32) == b.codec.encode(b"x" * 32)


def test_stale_epoch_cannot_decode():
    agility = BlindingAgility(b"base")
    old_codec = agility.codec
    message = old_codec.encode(b"hello across epochs")
    agility.rotate()
    with pytest.raises(BlindingError):
        # Either framing fails outright or the payload is garbage.
        decoded = agility.codec.decode(message)
        if decoded != b"hello across epochs":
            raise BlindingError("garbage")
