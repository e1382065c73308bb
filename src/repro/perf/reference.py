"""Reference implementations: the seed repo's slow paths, frozen.

Every hot-path rewrite is held to a *golden-equivalence contract*: the
optimized code must produce byte-identical output to the original
implementation on every input.  This module preserves those originals
verbatim (per-byte codec loops, list-based FIPS-197 AES encryption,
per-byte stream modes, the processor-sharing CPU that drained each job
from its own timestamp) so the contract stays checkable forever:

* ``tests/test_perf_equivalence.py`` drives optimized and reference
  paths over seeded random corpora and asserts identity;
* ``benchmarks/test_perf_gates.py`` times the byte-map codec and AES
  block encryption against their references and requires each fast
  path to be at least 5x faster.

Nothing here is wired into the simulator — the reference paths exist
only as oracles and baselines.  :func:`patched_reference_paths`
temporarily swaps the live classes back onto the slow paths so a test
can run a whole simulation on them.
"""

from __future__ import annotations

import contextlib
import typing as t

from ..crypto.aes import AES, SBOX, _mul
from ..errors import CryptoError, SimulationError
from ..sim import Event, Simulator


# -- byte-map codec (original per-byte generator loops) -----------------------


def byte_map_inverse_reference(forward: bytes) -> bytes:
    """The original O(256^2) inverse-table build (``bytes.index`` scan)."""
    return bytes(forward.index(value) for value in range(256))


def byte_map_encode_reference(forward: bytes, data: bytes) -> bytes:
    return bytes(forward[b] for b in data)


def byte_map_decode_reference(inverse: bytes, data: bytes) -> bytes:
    return bytes(inverse[b] for b in data)


# -- block-policy lookups (original linear scans) ------------------------------


def domain_blocked_reference(suffixes: t.Iterable[str],
                             name: t.Optional[str]) -> bool:
    """The original O(#blocked-suffixes) ``any()`` scan."""
    if not name:
        return False
    name = name.lower().rstrip(".")
    return any(name == suffix or name.endswith("." + suffix)
               for suffix in suffixes)


def keyword_hit_reference(keywords: t.Iterable[str],
                          plaintext: str) -> t.Optional[str]:
    """The original one-``in``-scan-per-keyword loop.

    Iterates the keyword set in container order, so *which* keyword is
    returned when several match depended on set iteration order (i.e.
    on ``PYTHONHASHSEED``); the optimized path fixes a leftmost-longest
    rule instead.  Equivalence tests therefore compare hit/no-hit and
    membership, not the exact keyword.
    """
    if not plaintext:
        return None
    lowered = plaintext.lower()
    for keyword in keywords:
        if keyword in lowered:
            return keyword
    return None


# -- AES single-block operations (original list-based round functions) --------


def _shift_rows(state: t.List[int]) -> t.List[int]:
    out = [0] * 16
    for col in range(4):
        for row in range(4):
            out[4 * col + row] = state[4 * ((col + row) % 4) + row]
    return out


def _mix_columns(state: t.List[int]) -> t.List[int]:
    out = [0] * 16
    for col in range(4):
        a = state[4 * col: 4 * col + 4]
        out[4 * col + 0] = _mul(a[0], 2) ^ _mul(a[1], 3) ^ a[2] ^ a[3]
        out[4 * col + 1] = a[0] ^ _mul(a[1], 2) ^ _mul(a[2], 3) ^ a[3]
        out[4 * col + 2] = a[0] ^ a[1] ^ _mul(a[2], 2) ^ _mul(a[3], 3)
        out[4 * col + 3] = _mul(a[0], 3) ^ a[1] ^ a[2] ^ _mul(a[3], 2)
    return out


def reference_encrypt_block(aes: AES, block: bytes) -> bytes:
    """The original per-round list pipeline over ``aes``'s key schedule."""
    if len(block) != 16:
        raise CryptoError(f"block must be 16 bytes, got {len(block)}")
    round_keys = aes._round_keys
    state = [block[i] ^ round_keys[0][i] for i in range(16)]
    for round_index in range(1, aes.rounds):
        state = [SBOX[b] for b in state]
        state = _shift_rows(state)
        state = _mix_columns(state)
        state = [state[i] ^ round_keys[round_index][i] for i in range(16)]
    state = [SBOX[b] for b in state]
    state = _shift_rows(state)
    state = [state[i] ^ round_keys[aes.rounds][i] for i in range(16)]
    return bytes(state)


class ReferenceCfbCipher:
    """The original per-byte CFB-128 stream (ciphertext feedback)."""

    def __init__(self, key: bytes, iv: bytes) -> None:
        if len(iv) != 16:
            raise CryptoError(f"CFB IV must be 16 bytes, got {len(iv)}")
        self._aes = AES(key)
        self._register = bytes(iv)
        self._keystream = b""

    def encrypt(self, data: bytes) -> bytes:
        out = bytearray()
        for byte in data:
            if not self._keystream:
                self._keystream = reference_encrypt_block(
                    self._aes, self._register)
                self._register = b""
            cipher_byte = byte ^ self._keystream[0]
            self._keystream = self._keystream[1:]
            self._register += bytes([cipher_byte])
            out.append(cipher_byte)
        return bytes(out)

    def decrypt(self, data: bytes) -> bytes:
        out = bytearray()
        for byte in data:
            if not self._keystream:
                self._keystream = reference_encrypt_block(
                    self._aes, self._register)
                self._register = b""
            plain_byte = byte ^ self._keystream[0]
            self._keystream = self._keystream[1:]
            self._register += bytes([byte])
            out.append(plain_byte)
        return bytes(out)


class ReferenceCtrCipher:
    """The original per-byte CTR keystream cipher."""

    def __init__(self, key: bytes, nonce: bytes) -> None:
        if len(nonce) != 16:
            raise CryptoError(f"CTR nonce must be 16 bytes, got {len(nonce)}")
        self._aes = AES(key)
        self._counter = int.from_bytes(nonce, "big")
        self._keystream = b""

    def process(self, data: bytes) -> bytes:
        out = bytearray()
        for byte in data:
            if not self._keystream:
                block = self._counter.to_bytes(16, "big")
                self._keystream = reference_encrypt_block(self._aes, block)
                self._counter = (self._counter + 1) % (1 << 128)
            out.append(byte ^ self._keystream[0])
            self._keystream = self._keystream[1:]
        return bytes(out)

    encrypt = process
    decrypt = process


# -- processor-sharing CPU (original per-job drain instants) ------------------


class _ReferencePsJob:
    __slots__ = ("remaining", "event", "last_update")

    def __init__(self, demand: float, event: Event, now: float) -> None:
        self.remaining = demand
        self.event = event
        self.last_update = now


class ReferenceProcessorSharingServer:
    """The original processor-sharing CPU: every job keeps its own
    ``last_update`` and drains through ``rate * (now - last_update)``.

    An M/G/1-PS style CPU: all jobs share ``capacity`` equally.

    ``capacity`` is in work-units per second; a job submitted with
    ``demand`` work-units completes after ``demand * n / capacity``
    seconds when ``n`` jobs are continuously present.  Completion times
    are recomputed on every arrival and departure, which is exact for
    egalitarian processor sharing.
    """

    def __init__(self, sim: Simulator, capacity: float = 1.0, name: str = "cpu") -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = float(capacity)
        self.name = name
        self._jobs: t.List[_ReferencePsJob] = []
        self._wakeup: t.Optional[Event] = None

    @property
    def load(self) -> int:
        """Number of jobs currently in service."""
        return len(self._jobs)

    def submit(self, demand: float) -> Event:
        """Submit a job of ``demand`` work-units; event fires at completion."""
        if demand < 0:
            raise SimulationError(f"negative demand: {demand}")
        event = self.sim.event()
        if demand == 0:
            event.succeed(None)
            return event
        self._drain_progress()
        self._jobs.append(_ReferencePsJob(demand, event, self.sim._now))
        self._reschedule()
        return event

    # -- internals ---------------------------------------------------------

    def _drain_progress(self) -> None:
        """Apply service accrued since the last event to every job."""
        now = self.sim._now
        if not self._jobs:
            return
        rate = self.capacity / len(self._jobs)
        for job in self._jobs:
            job.remaining -= rate * (now - job.last_update)
            job.last_update = now

    def _reschedule(self) -> None:
        """Re-arm the wakeup timer for the next completion."""
        if self._wakeup is not None:
            # Eager: a submit mostly delays completion; lazy saved <4%.
            self._wakeup = None
        if not self._jobs:
            return
        rate = self.capacity / len(self._jobs)
        shortest = min(job.remaining for job in self._jobs)
        delay = max(0.0, shortest / rate)
        timer = self.sim.timeout(delay)
        self._wakeup = timer
        timer.add_callback(self._on_wakeup)

    def _on_wakeup(self, timer: Event) -> None:
        if self._wakeup is not timer:
            return  # superseded by a later arrival
        self._drain_progress()
        finished = [job for job in self._jobs if job.remaining <= 1e-12]
        self._jobs = [job for job in self._jobs if job.remaining > 1e-12]
        self._reschedule()
        for job in finished:
            job.event.succeed(None)


# -- whole-simulation reference mode ------------------------------------------


@contextlib.contextmanager
def patched_reference_paths() -> t.Iterator[None]:
    """Temporarily swap the live hot paths back to the seed-slow ones.

    ``tests/test_perf_equivalence.py`` runs a whole Figure 7 point under
    it and asserts the same summary as on the live paths, without
    keeping two copies of the middleware: AES block encryption falls
    back to the list pipeline, the byte-map codec to its per-byte loops,
    the stream modes to per-byte processing, and every DPI classifier
    loses its ``match_tags`` declaration so the firewall runs the full
    chain per packet.  Purely a test device — never active in production
    paths.
    """
    from ..core import blinding
    from ..crypto import modes
    from ..gfw import blocklist, dpi

    saved: t.List[t.Tuple[t.Any, str, t.Any]] = []

    def swap(obj: t.Any, name: str, value: t.Any) -> None:
        saved.append((obj, name, obj.__dict__[name]))
        setattr(obj, name, value)

    swap(AES, "encrypt_block", reference_encrypt_block)
    swap(blinding.ByteMapCodec, "encode",
         lambda self, data: byte_map_encode_reference(self._forward, data))
    swap(blinding.ByteMapCodec, "decode",
         lambda self, data: byte_map_decode_reference(self._inverse, data))
    swap(modes.CfbCipher, "encrypt", ReferenceCfbCipher.encrypt)
    swap(modes.CfbCipher, "decrypt", ReferenceCfbCipher.decrypt)
    swap(modes.CtrCipher, "process", ReferenceCtrCipher.process)
    swap(blocklist.BlockPolicy, "domain_blocked",
         lambda self, name: domain_blocked_reference(
             self._domain_suffixes, name))
    swap(blocklist.BlockPolicy, "keyword_hit",
         lambda self, plaintext: keyword_hit_reference(
             self._keywords, plaintext))
    for cls in (dpi.Classifier, dpi.SniClassifier, dpi.HttpHostClassifier,
                dpi.VpnProtocolClassifier, dpi.TorTlsClassifier,
                dpi.MeekClassifier, dpi.ShadowsocksClassifier):
        if "match_tags" in cls.__dict__:
            swap(cls, "match_tags", None)
    try:
        yield
    finally:
        for obj, name, value in reversed(saved):
            setattr(obj, name, value)
