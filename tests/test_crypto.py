"""Crypto substrate tests, including FIPS-197 and RFC test vectors."""

import pytest

from repro.crypto import (
    AES,
    CfbCipher,
    CtrCipher,
    evp_bytes_to_key,
    hkdf_like,
    hmac_sha256,
    shannon_entropy,
)
from repro.errors import CryptoError


# -- AES known-answer tests (FIPS-197 Appendix C) -------------------------------

def test_aes128_fips197_vector():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
    expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
    assert AES(key).encrypt_block(plaintext) == expected


def test_aes192_fips197_vector():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
    plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
    expected = bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191")
    assert AES(key).encrypt_block(plaintext) == expected


def test_aes256_fips197_vector():
    key = bytes.fromhex(
        "000102030405060708090a0b0c0d0e0f"
        "101112131415161718191a1b1c1d1e1f")
    plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
    expected = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
    assert AES(key).encrypt_block(plaintext) == expected


def test_aes_rejects_bad_key_and_block():
    with pytest.raises(CryptoError):
        AES(b"short")
    with pytest.raises(CryptoError):
        AES(b"0" * 16).encrypt_block(b"not a block")


# -- CFB (NIST SP 800-38A F.3.13: CFB128-AES128) ------------------------------

def test_cfb128_nist_vector():
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    plaintext = bytes.fromhex(
        "6bc1bee22e409f96e93d7e117393172a"
        "ae2d8a571e03ac9c9eb76fac45af8e51")
    expected = bytes.fromhex(
        "3b3fd92eb72dad20333449f8e83cfb4a"
        "c8a64537a0b3a93fcde3cdad9f1ce58b")
    assert CfbCipher(key, iv).encrypt(plaintext) == expected


def test_cfb_roundtrip_arbitrary_length():
    key = b"k" * 32
    iv = b"i" * 16
    message = b"The quick brown fox jumps over the lazy dog." * 7 + b"!"
    encrypted = CfbCipher(key, iv).encrypt(message)
    assert CfbCipher(key, iv).decrypt(encrypted) == message
    assert encrypted != message


def test_cfb_streaming_matches_oneshot():
    key, iv = b"k" * 32, b"i" * 16
    message = b"stream me in pieces please, thanks"
    oneshot = CfbCipher(key, iv).encrypt(message)
    streamer = CfbCipher(key, iv)
    pieces = streamer.encrypt(message[:7]) + streamer.encrypt(message[7:])
    assert pieces == oneshot


def test_cfb_bad_iv_rejected():
    with pytest.raises(CryptoError):
        CfbCipher(b"k" * 16, b"short")


# -- CTR (NIST SP 800-38A F.5.1) ----------------------------------------------

def test_ctr_nist_vector():
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    nonce = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
    plaintext = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
    expected = bytes.fromhex("874d6191b620e3261bef6864990db6ce")
    assert CtrCipher(key, nonce).encrypt(plaintext) == expected


def test_ctr_symmetric():
    key, nonce = b"q" * 16, b"n" * 16
    message = b"counter mode is symmetric"
    assert CtrCipher(key, nonce).decrypt(
        CtrCipher(key, nonce).encrypt(message)) == message


# -- KDF -----------------------------------------------------------------------------

def test_evp_bytes_to_key_known_answer():
    # Matches OpenSSL: EVP_BytesToKey(md5, no salt, "password", 1 round).
    key = evp_bytes_to_key(b"password", 32)
    assert key[:16].hex() == "5f4dcc3b5aa765d61d8327deb882cf99"  # md5("password")
    assert len(key) == 32


def test_evp_bytes_to_key_deterministic_and_distinct():
    assert evp_bytes_to_key(b"a", 16) == evp_bytes_to_key(b"a", 16)
    assert evp_bytes_to_key(b"a", 16) != evp_bytes_to_key(b"b", 16)


def test_hkdf_like_lengths_and_determinism():
    out = hkdf_like(b"secret", b"info", 100)
    assert len(out) == 100
    assert out == hkdf_like(b"secret", b"info", 100)
    assert out[:32] != hkdf_like(b"secret", b"other", 100)[:32]


def test_hmac_sha256_rfc4231_vector():
    digest = hmac_sha256(b"\x0b" * 20, b"Hi There")
    assert digest.hex() == (
        "b0344c61d8db38535ca8afceaf0bf12b"
        "881dc200c9833da726e9376c2e32cff7")


# -- entropy ----------------------------------------------------------------------------

def test_entropy_bounds():
    assert shannon_entropy(b"") == 0.0
    assert shannon_entropy(b"aaaa") == 0.0
    assert shannon_entropy(bytes(range(256))) == pytest.approx(8.0)
