"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
applications can catch one base class.  Subsystems define narrower types
here rather than ad-hoc ``ValueError`` subclasses scattered through the
code base, which keeps ``except`` clauses meaningful.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Errors raised by the discrete-event simulation kernel."""


class ProcessKilled(SimulationError):
    """Raised inside a process generator when it is interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`repro.sim.kernel.Process.interrupt`.
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(f"process interrupted: {cause!r}")
        self.cause = cause


class NetworkError(ReproError):
    """Errors raised by the network substrate (links, nodes, routing)."""


class AddressError(NetworkError):
    """Malformed or unroutable network address."""


class RoutingError(NetworkError):
    """No route exists toward the requested destination."""


class TransportError(ReproError):
    """Errors raised by the simulated transport layer."""


class ConnectionReset(TransportError):
    """The connection was torn down by a RST segment.

    Injected RSTs are the Great Firewall's primary disruption mechanism,
    so this error is what censored flows observe.
    """


class ConnectionTimeout(TransportError):
    """The connection handshake or transfer exceeded its deadline."""


class OverloadError(TransportError):
    """The request was shed by admission control (HTTP 503 semantics).

    A shed is a *decision*, not a transient fault: the server judged
    that finishing this request would degrade everyone else's.  Callers
    should fail fast rather than retry hot — immediate retries are how
    an overload becomes a retry storm.
    """


class DnsError(ReproError):
    """Errors raised by the simulated DNS subsystem."""


class NameResolutionError(DnsError):
    """The name could not be resolved (NXDOMAIN or no answer)."""


class HttpError(ReproError):
    """Errors raised by the simulated HTTP layer."""


class CryptoError(ReproError):
    """Errors raised by the pure-Python crypto substrate."""


class BlindingError(CryptoError):
    """A blinding codec was misconfigured or failed to round-trip."""


class PolicyError(ReproError):
    """Errors raised by the government-regulation model."""


class RegistrationError(PolicyError):
    """ICP registration was rejected or is in an invalid state."""


class MiddlewareError(ReproError):
    """Errors raised by the access-method middleware implementations."""


class TunnelError(MiddlewareError):
    """A VPN/proxy tunnel could not be established or was torn down."""


class MeasurementError(ReproError):
    """Errors raised by the measurement harness."""


class FaultError(ReproError):
    """A fault schedule was malformed or could not be applied."""


class ConfigurationError(ReproError):
    """A component was constructed with inconsistent parameters."""
