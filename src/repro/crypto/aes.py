"""Pure-Python AES (FIPS-197) block cipher.

Implements AES-128/192/256 encryption of single 16-byte blocks; CFB
and CTR run the forward cipher in both directions, so nothing here
decrypts a block.  The round function is table-driven (the classic 32-bit
T-table formulation) with flattened, unrolled column updates — roughly
an order of magnitude faster than the textbook per-byte pipeline the
repo started with, which is preserved verbatim in
:mod:`repro.perf.reference` as the equivalence oracle.  It is of course
not constant-time (table lookups key on secret data) and must never be
used to protect real traffic.

Verified against the FIPS-197 appendix test vectors and, on random
corpora, against the reference implementation in the test suite.
"""

from __future__ import annotations

import typing as t

from ..errors import CryptoError

# -- tables -------------------------------------------------------------------


def _build_sbox() -> t.List[int]:
    """Construct the S-box from the finite-field definition."""
    # Multiplicative inverse table via exp/log over GF(2^8) with
    # generator 3.
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply x by 3 in GF(2^8)
        x ^= (x << 1) ^ (0x1B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    sbox = [0] * 256
    for value in range(256):
        inverse = 0 if value == 0 else exp[255 - log[value]]
        # Affine transform.
        result = 0
        for bit in range(8):
            result |= (
                ((inverse >> bit) & 1)
                ^ ((inverse >> ((bit + 4) % 8)) & 1)
                ^ ((inverse >> ((bit + 5) % 8)) & 1)
                ^ ((inverse >> ((bit + 6) % 8)) & 1)
                ^ ((inverse >> ((bit + 7) % 8)) & 1)
                ^ ((0x63 >> bit) & 1)
            ) << bit
        sbox[value] = result
    return sbox


SBOX = _build_sbox()
RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36,
        0x6C, 0xD8, 0xAB, 0x4D]


def _xtime(value: int) -> int:
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def _mul(a: int, b: int) -> int:
    """GF(2^8) multiplication."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _rotr8(word: int) -> int:
    return ((word >> 8) | (word << 24)) & 0xFFFFFFFF


def _build_t_tables() -> t.List[t.List[int]]:
    """Encryption tables T0..T3.

    T0[x] packs one column of MixColumns(SubBytes(x)) — rows 0..3 in the
    high-to-low bytes of a 32-bit word (the state is column-major, row 0
    in the most significant byte).  T1..T3 are byte rotations of T0.
    """
    t0 = [0] * 256
    for x in range(256):
        s = SBOX[x]
        t0[x] = (_mul(s, 2) << 24) | (s << 16) | (s << 8) | _mul(s, 3)
    enc = [t0]
    for _ in range(3):
        enc.append([_rotr8(w) for w in enc[-1]])
    return enc


_T_ENC = _build_t_tables()

#: Key schedules are pure functions of the key bytes; Shadowsocks-style
#: protocols build a fresh cipher per connection from the *same* key,
#: so memoize the expansion (bounded — eviction clears the oldest half).
_SCHEDULE_CACHE: t.Dict[bytes, t.Tuple[t.Any, ...]] = {}
_SCHEDULE_CACHE_MAX = 256


class AES:
    """AES block cipher with a fixed key."""

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise CryptoError(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self.key = bytes(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        cached = _SCHEDULE_CACHE.get(self.key)
        if cached is None:
            self._round_keys = self._expand_key()
            self._enc_words = self._pack_words(self._round_keys)
            if len(_SCHEDULE_CACHE) >= _SCHEDULE_CACHE_MAX:
                for stale in list(_SCHEDULE_CACHE)[:_SCHEDULE_CACHE_MAX // 2]:
                    del _SCHEDULE_CACHE[stale]
            _SCHEDULE_CACHE[self.key] = (self._round_keys, self._enc_words)
        else:
            self._round_keys, self._enc_words = cached

    # -- key schedule ------------------------------------------------------------

    def _expand_key(self) -> t.List[t.List[int]]:
        key_words = len(self.key) // 4
        words: t.List[t.List[int]] = [
            list(self.key[4 * i: 4 * i + 4]) for i in range(key_words)]
        total_words = 4 * (self.rounds + 1)
        for i in range(key_words, total_words):
            temp = list(words[i - 1])
            if i % key_words == 0:
                temp = temp[1:] + temp[:1]                     # RotWord
                temp = [SBOX[b] for b in temp]                 # SubWord
                temp[0] ^= RCON[i // key_words - 1]
            elif key_words > 6 and i % key_words == 4:
                temp = [SBOX[b] for b in temp]
            words.append([a ^ b for a, b in zip(words[i - key_words], temp)])
        # Group into 16-byte round keys (column-major state layout).
        return [sum(words[4 * r: 4 * r + 4], []) for r in range(self.rounds + 1)]

    @staticmethod
    def _pack_words(round_keys: t.List[t.List[int]]) -> t.List[t.Tuple[int, ...]]:
        """Each 16-byte round key as four big-endian column words."""
        return [
            tuple((rk[4 * c] << 24) | (rk[4 * c + 1] << 16)
                  | (rk[4 * c + 2] << 8) | rk[4 * c + 3]
                  for c in range(4))
            for rk in round_keys
        ]

    # -- single-block operations -----------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise CryptoError(f"block must be 16 bytes, got {len(block)}")
        t0, t1, t2, t3 = _T_ENC
        words = self._enc_words
        k0, k1, k2, k3 = words[0]
        c0 = ((block[0] << 24) | (block[1] << 16) | (block[2] << 8) | block[3]) ^ k0
        c1 = ((block[4] << 24) | (block[5] << 16) | (block[6] << 8) | block[7]) ^ k1
        c2 = ((block[8] << 24) | (block[9] << 16) | (block[10] << 8) | block[11]) ^ k2
        c3 = ((block[12] << 24) | (block[13] << 16) | (block[14] << 8) | block[15]) ^ k3
        for round_index in range(1, self.rounds):
            k0, k1, k2, k3 = words[round_index]
            n0 = (t0[(c0 >> 24) & 0xFF] ^ t1[(c1 >> 16) & 0xFF]
                  ^ t2[(c2 >> 8) & 0xFF] ^ t3[c3 & 0xFF] ^ k0)
            n1 = (t0[(c1 >> 24) & 0xFF] ^ t1[(c2 >> 16) & 0xFF]
                  ^ t2[(c3 >> 8) & 0xFF] ^ t3[c0 & 0xFF] ^ k1)
            n2 = (t0[(c2 >> 24) & 0xFF] ^ t1[(c3 >> 16) & 0xFF]
                  ^ t2[(c0 >> 8) & 0xFF] ^ t3[c1 & 0xFF] ^ k2)
            n3 = (t0[(c3 >> 24) & 0xFF] ^ t1[(c0 >> 16) & 0xFF]
                  ^ t2[(c1 >> 8) & 0xFF] ^ t3[c2 & 0xFF] ^ k3)
            c0, c1, c2, c3 = n0, n1, n2, n3
        # Final round (SubBytes + ShiftRows + AddRoundKey, no MixColumns).
        sbox = SBOX
        k0, k1, k2, k3 = words[self.rounds]
        return bytes((
            sbox[(c0 >> 24) & 0xFF] ^ (k0 >> 24) & 0xFF,
            sbox[(c1 >> 16) & 0xFF] ^ (k0 >> 16) & 0xFF,
            sbox[(c2 >> 8) & 0xFF] ^ (k0 >> 8) & 0xFF,
            sbox[c3 & 0xFF] ^ k0 & 0xFF,
            sbox[(c1 >> 24) & 0xFF] ^ (k1 >> 24) & 0xFF,
            sbox[(c2 >> 16) & 0xFF] ^ (k1 >> 16) & 0xFF,
            sbox[(c3 >> 8) & 0xFF] ^ (k1 >> 8) & 0xFF,
            sbox[c0 & 0xFF] ^ k1 & 0xFF,
            sbox[(c2 >> 24) & 0xFF] ^ (k2 >> 24) & 0xFF,
            sbox[(c3 >> 16) & 0xFF] ^ (k2 >> 16) & 0xFF,
            sbox[(c0 >> 8) & 0xFF] ^ (k2 >> 8) & 0xFF,
            sbox[c1 & 0xFF] ^ k2 & 0xFF,
            sbox[(c3 >> 24) & 0xFF] ^ (k3 >> 24) & 0xFF,
            sbox[(c0 >> 16) & 0xFF] ^ (k3 >> 16) & 0xFF,
            sbox[(c1 >> 8) & 0xFF] ^ (k3 >> 8) & 0xFF,
            sbox[c2 & 0xFF] ^ k3 & 0xFF,
        ))
