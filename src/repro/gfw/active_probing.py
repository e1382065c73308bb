"""Active probing: connect to suspected proxy servers and fingerprint
their behaviour (Ensafi et al., IMC 2015).

When DPI flags a flow as Shadowsocks-like with sub-certain confidence,
the firewall hands the *server* endpoint to the prober.  The prober
connects from its own vantage host, sends undecryptable garbage, and
watches what happens:

* a genuine web server answers with an HTTP error → benign;
* a host that resets immediately → inconclusive;
* a host that accepts the bytes and **hangs forever** → the classic
  pre-2020 Shadowsocks tell → confirmed proxy, IP gets blocked.

ScholarCloud's remote proxy survives probing because it answers
garbage exactly like a web server (a decoy response), which is the
probe-resistance design the paper's "message blinding" relies on.
"""

from __future__ import annotations

import typing as t

from ..errors import TransportError
from ..net import IPv4Address, OPAQUE_STREAM
from ..sim import Simulator
from ..transport import TransportLayer

#: How the prober labels what it observed.
PERSONALITY_HTTP = "http-like"
PERSONALITY_HANG = "hangs-on-garbage"
PERSONALITY_RST = "resets"
PERSONALITY_UNREACHABLE = "unreachable"

#: Behaviours considered proof of a circumvention proxy.
DEFAULT_FINGERPRINTS = frozenset({PERSONALITY_HANG})
#: Seconds between a suspicion and its probe.
PROBE_DELAY = 10.0
#: Seconds the prober waits for an answer to its garbage.
REPLY_TIMEOUT = 5.0


class ProbeResult(t.NamedTuple):
    address: str
    port: int
    personality: str
    confirmed: bool


class ActiveProber:
    """Probes suspects from a dedicated vantage host."""

    def __init__(self, sim: Simulator, transport: TransportLayer) -> None:
        self.sim = sim
        self.transport = transport
        self.results: t.List[ProbeResult] = []
        self._suspected: t.Set[t.Tuple[str, int]] = set()

    def suspect(self, address: t.Union[str, IPv4Address], port: int,
                on_confirm: t.Callable[[str], None]) -> bool:
        """Queue a probe; returns False if this endpoint was already probed."""
        key = (str(address), port)
        if key in self._suspected:
            return False
        self._suspected.add(key)
        self.sim.process(self._probe(str(address), port, on_confirm),
                         name=f"probe:{address}:{port}")
        return True

    def _probe(self, address: str, port: int,
               on_confirm: t.Callable[[str], None]):
        yield self.sim.timeout(PROBE_DELAY)
        try:
            conn = yield self.transport.connect_tcp(
                address, port, features=OPAQUE_STREAM, timeout=10.0)
        except TransportError:
            self._record(address, port, PERSONALITY_UNREACHABLE, on_confirm)
            return
        try:
            # 48 bytes of garbage that decrypts to nothing.
            conn.send_message(48, meta=("probe-garbage",),
                              features=OPAQUE_STREAM)
            outcome = yield self.sim.any_of(
                [conn.recv_message(), self.sim.timeout(REPLY_TIMEOUT,
                                                       value="timeout")])
        except TransportError:
            # A reset during the garbage send classifies the same as a
            # reset while waiting; either way the probe socket is done.
            conn.close()
            self._record(address, port, PERSONALITY_RST, on_confirm)
            return
        values = list(outcome.values())
        if values and values[0] == "timeout":
            personality = PERSONALITY_HANG
        elif values and values[0] is None:
            personality = PERSONALITY_RST  # closed without an answer
        else:
            personality = PERSONALITY_HTTP
        conn.close()
        self._record(address, port, personality, on_confirm)

    def _record(self, address: str, port: int, personality: str,
                on_confirm: t.Callable[[str], None]) -> None:
        confirmed = personality in DEFAULT_FINGERPRINTS
        self.results.append(ProbeResult(address, port, personality, confirmed))
        if confirmed:
            on_confirm(address)
