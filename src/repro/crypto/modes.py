"""Block cipher modes: CFB (as Shadowsocks' AES-256-CFB) and CTR.

CFB here is the full-block (CFB-128) variant with ciphertext feedback
across partial final blocks, matching OpenSSL's ``aes-256-cfb`` that
classic Shadowsocks used.

Both stream modes process data a block at a time (the seed repo's
per-byte loops live on in :mod:`repro.perf.reference` as equivalence
oracles): the 16-byte XOR runs as one big-integer operation and the
AES call amortizes over the block.  CTR additionally caches keystream
blocks keyed by ``(key, counter)`` — the simulated protocols derive
IVs deterministically, so repeated handshakes over one connection's
lifetime hit the same counter blocks.
"""

from __future__ import annotations

import typing as t

from ..errors import CryptoError
from .aes import AES

#: Cross-instance CTR keystream cache.  Deterministic I/O: an entry is
#: a pure function of (key, counter block).  Bounded; eviction drops
#: the oldest half so steady-state lookups stay O(1).
_CTR_BLOCK_CACHE: t.Dict[t.Tuple[bytes, int], bytes] = {}
_CTR_BLOCK_CACHE_MAX = 4096


class CfbCipher:
    """Stateful CFB-128 stream: encrypt/decrypt arbitrary-length data."""

    def __init__(self, key: bytes, iv: bytes) -> None:
        if len(iv) != 16:
            raise CryptoError(f"CFB IV must be 16 bytes, got {len(iv)}")
        self._aes = AES(key)
        self._register = bytes(iv)
        self._keystream = b""  # unused keystream bytes from the last block

    def _crypt(self, data: bytes, feed_output: bool) -> bytes:
        """Shared CFB core: feedback is the cipher side of the stream.

        ``feed_output=True`` is encryption (the produced ciphertext
        feeds the register); ``False`` is decryption (the consumed
        ciphertext feeds it).  The register always holds the last
        cipher bytes, partial while mid-block — exactly the state the
        per-byte reference keeps, so the two interleave identically
        across arbitrary chunk boundaries.
        """
        out = bytearray()
        pos = 0
        length = len(data)
        encrypt_block = self._aes.encrypt_block
        while pos < length:
            if not self._keystream:
                self._keystream = encrypt_block(self._register)
                self._register = b""
            take = min(len(self._keystream), length - pos)
            chunk = data[pos:pos + take]
            keystream = self._keystream[:take]
            piece = (int.from_bytes(chunk, "big")
                     ^ int.from_bytes(keystream, "big")).to_bytes(take, "big")
            out += piece
            self._register += piece if feed_output else chunk
            self._keystream = self._keystream[take:]
            pos += take
        return bytes(out)

    def encrypt(self, data: bytes) -> bytes:
        return self._crypt(data, feed_output=True)

    def decrypt(self, data: bytes) -> bytes:
        return self._crypt(data, feed_output=False)


class CtrCipher:
    """CTR mode keystream cipher (encrypt == decrypt)."""

    def __init__(self, key: bytes, nonce: bytes) -> None:
        if len(nonce) != 16:
            raise CryptoError(f"CTR nonce must be 16 bytes, got {len(nonce)}")
        self._aes = AES(key)
        self._counter = int.from_bytes(nonce, "big")
        self._keystream = b""

    def process(self, data: bytes) -> bytes:
        length = len(data)
        if not length:
            return b""
        needed = length - len(self._keystream)
        if needed > 0:
            pieces = [self._keystream]
            key = self._aes.key
            cache = _CTR_BLOCK_CACHE
            counter = self._counter
            for _ in range((needed + 15) // 16):
                entry = (key, counter)
                block = cache.get(entry)
                if block is None:
                    block = self._aes.encrypt_block(counter.to_bytes(16, "big"))
                    if len(cache) >= _CTR_BLOCK_CACHE_MAX:
                        for stale in list(cache)[:_CTR_BLOCK_CACHE_MAX // 2]:
                            del cache[stale]
                    cache[entry] = block
                pieces.append(block)
                counter = (counter + 1) % (1 << 128)
            self._counter = counter
            self._keystream = b"".join(pieces)
        out = (int.from_bytes(data, "big")
               ^ int.from_bytes(self._keystream[:length], "big")
               ).to_bytes(length, "big")
        self._keystream = self._keystream[length:]
        return out

    encrypt = process
    decrypt = process
