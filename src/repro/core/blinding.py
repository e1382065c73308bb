"""Message blinding: the paper's §3 core mechanism.

ScholarCloud re-encodes the (already TLS-encrypted) bytes between the
domestic and remote proxies with a *confidential, non-public* codec so
the GFW's protocol recognizers see neither TLS framing nor any known
length signature.  The paper notes that "even a simple but non-public
algorithm like byte mapping (f : [0,2^8) → [0,2^8))" suffices.

Codecs here are real byte-level transforms (used verbatim by the
asyncio loopback proxies in ``repro.realnet``); inside the simulator
only their *observable* consequences apply: blinded wire features and
padding overhead.  Because both proxy ends are operated by one party,
codecs can be rotated at any time (:class:`BlindingAgility`) — the
paper's answer to the GFW arms race.  The inter-proxy frame lives here
too: :func:`blind_wrap` and :class:`BlindedEncoder`, the one writer of
a blinded data frame and its wire size.
"""

from __future__ import annotations

import functools
import hashlib
import typing as t

from ..errors import BlindingError, MiddlewareError
from ..middleware.base import unwrap_forward, wrap_forward
from ..net import WireFeatures


class BlindingCodec:
    """A reversible byte-stream transform."""

    #: Registry key.
    codec_name = "abstract"
    #: Average padding bytes added per message (observable overhead).
    padding_overhead = 0

    def encode(self, data: bytes) -> bytes:
        raise NotImplementedError

    def decode(self, data: bytes) -> bytes:
        raise NotImplementedError

    def header_codec(self) -> "BlindingCodec":
        """A length-preserving codec for fixed-size framing headers.

        Codecs that change data length (padding) delegate to their
        length-preserving core so protocol framing can still read an
        exact number of header bytes off the wire.
        """
        return self

    def features(self) -> WireFeatures:
        """What the GFW sees on a blinded stream."""
        return WireFeatures(protocol_tag="unclassified", entropy=7.9)


class ByteMapCodec(BlindingCodec):
    """The paper's example: a secret byte permutation f: [0,256)→[0,256)."""

    codec_name = "byte-map"
    padding_overhead = 0

    def __init__(self, secret: bytes) -> None:
        if not secret:
            raise BlindingError("byte-map codec needs a non-empty secret")
        self.secret = bytes(secret)
        self._forward = self._permutation(self.secret)
        # Invert the permutation in one O(256) pass; codecs are rebuilt
        # on every BlindingAgility rotation, so the old O(256^2)
        # bytes.index() scan was paid per epoch.
        inverse = bytearray(256)
        for index, value in enumerate(self._forward):
            inverse[value] = index
        self._inverse = bytes(inverse)

    @staticmethod
    def _permutation(secret: bytes) -> bytes:
        """Deterministic Fisher–Yates driven by SHA-256(secret)."""
        table = list(range(256))
        pool = b""
        counter = 0
        cursor = 0

        def next_byte() -> int:
            nonlocal pool, counter, cursor
            if cursor >= len(pool):
                pool = hashlib.sha256(secret + counter.to_bytes(4, "big")).digest()
                counter += 1
                cursor = 0
            value = pool[cursor]
            cursor += 1
            return value

        for i in range(255, 0, -1):
            j = (next_byte() << 8 | next_byte()) % (i + 1)
            table[i], table[j] = table[j], table[i]
        return bytes(table)

    def encode(self, data: bytes) -> bytes:
        return data.translate(self._forward)

    def decode(self, data: bytes) -> bytes:
        return data.translate(self._inverse)


#: Rotation tables ROT[k][y] = (y + k) mod 256, built once per process on
#: first use.  Position-dependent codecs derive their per-offset tables
#: from a base table with one 256-byte translate instead of 256 Python
#: multiplications.
_ROT: t.List[bytes] = []


def _rotation_tables() -> t.List[bytes]:
    if not _ROT:
        _ROT.extend(bytes((y + k) % 256 for y in range(256))
                    for k in range(256))
    return _ROT


class AffineCodec(BlindingCodec):
    """Per-position affine transform: b' = (a*b + c + i) mod 256, a odd.

    The position term cycles mod 256, so bytes at positions congruent
    to ``k`` share one substitution table: large messages are encoded
    as 256 strided :meth:`bytes.translate` passes over cached tables
    rather than a per-byte Python loop.
    """

    codec_name = "affine"
    padding_overhead = 0

    #: Below this length the strided path's per-table overhead loses to
    #: a single translate-then-add loop.
    _STRIDE_THRESHOLD = 1024

    def __init__(self, multiplier: int, offset: int) -> None:
        if multiplier % 2 == 0:
            raise BlindingError("affine multiplier must be odd (invertible mod 256)")
        self.multiplier = multiplier % 256
        self.offset = offset % 256
        self._inverse_multiplier = pow(self.multiplier, -1, 256)
        self._enc_base = bytes((self.multiplier * b + self.offset) % 256
                               for b in range(256))
        self._dec_base = bytes(
            (self._inverse_multiplier * (y - self.offset)) % 256
            for y in range(256))
        self._enc_tables: t.Dict[int, bytes] = {0: self._enc_base}
        self._dec_tables: t.Dict[int, bytes] = {0: self._dec_base}

    def _enc_table(self, k: int) -> bytes:
        table = self._enc_tables.get(k)
        if table is None:
            table = self._enc_base.translate(_rotation_tables()[k])
            self._enc_tables[k] = table
        return table

    def _dec_table(self, k: int) -> bytes:
        table = self._dec_tables.get(k)
        if table is None:
            # dec_k[y] = dec_base[(y - k) mod 256]: rotate the inputs.
            table = _rotation_tables()[(256 - k) % 256].translate(self._dec_base)
            self._dec_tables[k] = table
        return table

    def encode(self, data: bytes) -> bytes:
        if len(data) < self._STRIDE_THRESHOLD:
            base = self._enc_base
            return bytes((base[b] + i) % 256 for i, b in enumerate(data))
        out = bytearray(len(data))
        for k in range(256):
            out[k::256] = data[k::256].translate(self._enc_table(k))
        return bytes(out)

    def decode(self, data: bytes) -> bytes:
        if len(data) < self._STRIDE_THRESHOLD:
            base = self._dec_base
            return bytes(base[(b - i) % 256] for i, b in enumerate(data))
        out = bytearray(len(data))
        for k in range(256):
            out[k::256] = data[k::256].translate(self._dec_table(k))
        return bytes(out)


@functools.lru_cache(maxsize=4096)
def _length_digest(length: int) -> int:
    """First digest byte of SHA-256(length) — the padding die roll.

    Message lengths repeat heavily (framing headers, common page
    objects), so the hash is memoized; the value is a pure function of
    its argument, keeping the determinism contract intact.
    """
    return hashlib.sha256(length.to_bytes(8, "big")).digest()[0]


@functools.lru_cache(maxsize=1024)
def _pad_bytes(length: int, pad: int) -> bytes:
    """Pseudorandom padding — constant padding would itself be a
    detectable length-independent byte pattern on the wire."""
    out = b""
    counter = 0
    while len(out) < pad:
        out += hashlib.sha256(
            b"pad" + length.to_bytes(8, "big")
            + counter.to_bytes(4, "big")).digest()
        counter += 1
    return out[:pad]


class PaddedCodec(BlindingCodec):
    """Wrap a codec with deterministic length padding.

    Padding destroys length signatures (the other half of what DPI
    keys on): each message grows by ``2 + (digest mod jitter)`` bytes,
    derived from the message itself so both ends agree.
    """

    codec_name = "padded"

    def __init__(self, inner: BlindingCodec, jitter: int = 32) -> None:
        if jitter < 1:
            raise BlindingError("padding jitter must be >= 1")
        self.inner = inner
        self.jitter = jitter
        self.padding_overhead = 2 + jitter // 2

    def pad_length(self, length: int) -> int:
        return 2 + _length_digest(length) % self.jitter

    def _pad_bytes(self, length: int, pad: int) -> bytes:
        return _pad_bytes(length, pad)

    def encode(self, data: bytes) -> bytes:
        pad = self.pad_length(len(data))
        framed = (len(data).to_bytes(4, "big") + data
                  + self._pad_bytes(len(data), pad))
        return self.inner.encode(framed)

    def decode(self, data: bytes) -> bytes:
        framed = self.inner.decode(data)
        if len(framed) < 4:
            raise BlindingError("blinded frame too short")
        length = int.from_bytes(framed[:4], "big")
        if len(framed) < 4 + length:
            raise BlindingError("blinded frame truncated")
        return framed[4:4 + length]

    def header_codec(self) -> BlindingCodec:
        return self.inner.header_codec()

    def features(self) -> WireFeatures:
        return self.inner.features()


def default_codec(secret: bytes = b"scholarcloud-2016") -> PaddedCodec:
    """The deployed configuration: padded byte mapping."""
    return PaddedCodec(ByteMapCodec(secret), jitter=32)


def blind_wrap(epoch: int, length: int, meta: t.Any) -> t.Tuple[str, int, t.Any]:
    """Frame a relayed message for the blinded inter-proxy leg."""
    return ("sc", epoch, wrap_forward(length, meta))


def blind_unwrap(message: t.Any, epoch: int) -> t.Optional[t.Tuple[int, t.Any]]:
    """Unframe; None if the message is garbage or from a stale epoch."""
    if not (isinstance(message, tuple) and len(message) == 3
            and message[0] == "sc"):
        return None
    if message[1] != epoch:
        return None
    try:
        return unwrap_forward(message[2])
    except MiddlewareError:
        return None


class BlindedEncoder:
    """Relay encoder for blinded data frames under one codec.

    A stream keeps the encoder it opened with, so its frames keep that
    codec's padded sizes across a rotation; each frame still carries
    the epoch current when it is sent, the only one the far end takes.
    """

    __slots__ = ("agility", "codec", "features")

    def __init__(self, agility: "BlindingAgility", codec: PaddedCodec) -> None:
        self.agility = agility
        self.codec = codec
        self.features = codec.features()

    def length(self, length: int) -> int:
        """Wire size of a data frame: the codec's 4-byte length prefix,
        the payload and its padding."""
        return length + 4 + self.codec.pad_length(length)

    def __call__(self, length: int, meta: t.Any
                 ) -> t.Tuple[int, t.Tuple[str, int, t.Any], WireFeatures]:
        return (self.length(length),
                blind_wrap(self.agility.epoch, length, meta), self.features)


class BlindingAgility:
    """Epoch-based codec rotation across both proxies.

    Because ScholarCloud controls the domestic *and* remote proxies,
    rotating the codec is one deploy — no user-visible change (§3:
    "we can change our blinding mechanism at any time without
    impacting users").
    """

    def __init__(self, base_secret: bytes = b"scholarcloud-2016") -> None:
        self.base_secret = base_secret
        self.epoch = 0
        self._codec = self._build(0)
        self._encoder = BlindedEncoder(self, self._codec)

    def _build(self, epoch: int) -> PaddedCodec:
        secret = hashlib.sha256(
            self.base_secret + epoch.to_bytes(4, "big")).digest()
        return PaddedCodec(ByteMapCodec(secret), jitter=32 + (epoch % 3) * 16)

    @property
    def codec(self) -> PaddedCodec:
        return self._codec

    @property
    def encoder(self) -> BlindedEncoder:
        """The data-frame encoder of the current codec, one per epoch."""
        return self._encoder

    def unwrap(self, message: t.Any) -> t.Optional[t.Tuple[int, t.Any]]:
        """Unframe a blinded message; None unless it is of this epoch."""
        return blind_unwrap(message, self.epoch)

    def rotate(self) -> PaddedCodec:
        """Advance one epoch; both ends switch atomically."""
        self.epoch += 1
        self._codec = self._build(self.epoch)
        self._encoder = BlindedEncoder(self, self._codec)
        return self._codec
