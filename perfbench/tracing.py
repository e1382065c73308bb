"""Span tracing of the program from outside, for the traced run.

The tracer wraps public entry points of the program at class level and
times every call as a *span*: its layer, start, end, and the span open
around it (its parent).  Spans are aggregated in memory per
``(layer, parent layer)``; a layer's self time is its span time minus
the time of its child spans.

Every process started through ``Simulator.process`` is traced too: its
generator is replaced by a stand-in that times each resumption and
attributes it to the layer of the module that defined the generator.

An entry point that no longer exists is reported as missing instead of
failing the run, so the benchmark keeps working while the program
changes under it.
"""

from __future__ import annotations

import importlib
import time
import typing as t

#: ``(layer, "package:Class.method")`` of every wrapped entry point.
ENTRY_POINTS: t.Tuple[t.Tuple[str, str], ...] = (
    ("sim", "repro.sim:Simulator.step"),
    ("sim", "repro.sim:TraceLog.emit"),
    ("net", "repro.net:Link.transmit"),
    ("net", "repro.net:Node.receive"),
    ("net", "repro.net:Packet.copy"),
    ("transport", "repro.transport:TransportLayer.demux"),
    ("transport", "repro.transport:TransportLayer.connect_tcp"),
    ("transport", "repro.transport:TcpConnection.handle_segment"),
    ("transport", "repro.transport:TcpConnection.send_message"),
    ("gfw", "repro.gfw:GreatFirewall.process"),
    ("perf.fluid", "repro.perf.fluid:FluidRegistry.try_transfer"),
    ("cache", "repro.cache:ResponseCache.lookup"),
    ("cache", "repro.cache:ResponseCache.insert"),
)
#: Where process generators are intercepted.
PROCESS_ENTRY = "repro.sim:Simulator.process"


def layer_of_module(module: str) -> str:
    """``repro.<package>`` maps to its package; ``repro.perf.fluid`` is
    its own layer; code outside the program is ``bench``."""
    if module == "repro.perf.fluid" or module.startswith("repro.perf.fluid."):
        return "perf.fluid"
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return parts[1]
    return "bench"


def _resolve(target: str) -> t.Optional[t.Tuple[type, str]]:
    module_name, _, qualified = target.partition(":")
    owner_name, _, attribute = qualified.rpartition(".")
    try:
        owner = getattr(importlib.import_module(module_name), owner_name)
    except (ImportError, AttributeError):
        return None
    if not isinstance(owner, type) or not callable(
            getattr(owner, attribute, None)):
        return None
    return owner, attribute


class Tracer:
    """Installs the span wrappers and aggregates what they record."""

    def __init__(self) -> None:
        #: ``(layer, parent layer or None)`` -> ``[count, total, child]``.
        self.spans: t.Dict[t.Tuple[str, t.Optional[str]], t.List[float]] = {}
        #: Calls per entry point (process resumptions as ``process:<layer>``).
        self.calls: t.Dict[str, int] = {}
        #: Entry points that could not be found.
        self.missing: t.List[str] = []
        #: Bytes offered to the fluid fast path.
        self.fluid_offered = 0
        #: Every TCP connection a wrapped method saw, for its public
        #: retransmission counter.
        self.connections: t.Set[t.Any] = set()
        self._retransmitted = 0
        self._stack: t.List[t.List[t.Any]] = []
        self._layers: t.Dict[t.Any, str] = {}
        self._undo: t.List[t.Tuple[type, str, t.Any]] = []

    # -- recording ------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (call with no span open)."""
        self.spans.clear()
        self.calls.clear()
        self.fluid_offered = 0
        self._retransmitted = self._retransmissions()

    def _retransmissions(self) -> int:
        return sum(getattr(conn, "retransmissions", 0)
                   for conn in self.connections)

    def retransmissions(self) -> int:
        """TCP retransmissions since the last :meth:`reset`."""
        return self._retransmissions() - self._retransmitted

    def traced(self, layer: str, key: str, fn: t.Callable,
               hook: t.Optional[t.Callable] = None) -> t.Callable:
        """``fn`` wrapped in a span of ``layer``, counted under ``key``."""
        stack = self._stack
        spans = self.spans
        calls = self.calls
        clock = time.perf_counter

        def span(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            frame = [0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    edge = (layer, parent[1])
                else:
                    edge = (layer, None)
                totals = spans.get(edge)
                if totals is None:
                    spans[edge] = [1, elapsed, frame[0]]
                else:
                    totals[0] += 1
                    totals[1] += elapsed
                    totals[2] += frame[0]
                calls[key] = calls.get(key, 0) + 1

        return span

    # -- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        hooks: t.Dict[str, t.Callable] = {
            "repro.perf.fluid:FluidRegistry.try_transfer": self._offered,
            "repro.transport:TcpConnection.handle_segment": self._saw,
            "repro.transport:TcpConnection.send_message": self._saw,
        }
        for layer, target in ENTRY_POINTS:
            resolved = _resolve(target)
            if resolved is None:
                self.missing.append(target)
                continue
            owner, attribute = resolved
            original = owner.__dict__.get(attribute)
            self._patch(owner, attribute, self.traced(
                layer, target, getattr(owner, attribute), hooks.get(target)),
                original)
        resolved = _resolve(PROCESS_ENTRY)
        if resolved is None:
            self.missing.append(PROCESS_ENTRY)
        else:
            owner, attribute = resolved
            original = owner.__dict__.get(attribute)
            start_process = getattr(owner, attribute)
            tracer = self

            def process(sim, generator, *args, **kwargs):
                return start_process(sim, tracer._stand_in(generator),
                                     *args, **kwargs)

            self._patch(owner, attribute, process, original)
        return self

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._undo.clear()

    def _patch(self, owner: type, attribute: str, replacement: t.Any,
               original: t.Any) -> None:
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def _offered(self, args: t.Tuple, kwargs: t.Dict[str, t.Any]) -> None:
        length = kwargs.get("length", args[2] if len(args) > 2 else 0)
        self.fluid_offered += length

    def _saw(self, args: t.Tuple, kwargs: t.Dict[str, t.Any]) -> None:
        self.connections.add(args[0])

    def _stand_in(self, generator: t.Any) -> t.Any:
        code = getattr(generator, "gi_code", None)
        if code is None:
            return generator
        layer = self._layers.get(code)
        if layer is None:
            frame = generator.gi_frame
            module = frame.f_globals.get("__name__", "") if frame else ""
            layer = self._layers[code] = layer_of_module(module)
        return _Resumptions(generator, self, layer)

    # -- results --------------------------------------------------------------

    def self_times(self) -> t.Dict[str, float]:
        """Self time per layer, in seconds."""
        out: t.Dict[str, float] = {}
        for (layer, _parent), (_count, total, child) in self.spans.items():
            out[layer] = out.get(layer, 0.0) + total - child
        return out

    def span_table(self) -> t.List[str]:
        """One line per ``(layer, parent)`` edge, busiest first."""
        rows = sorted(self.spans.items(), key=lambda item: -item[1][1])
        return [f"{layer:<11} under {parent or '-':<11} "
                f"spans={int(count):>9} total={total:9.4f}s "
                f"self={total - child:9.4f}s"
                for (layer, parent), (count, total, child) in rows]


class _Resumptions:
    """Stands in for a process generator; each resumption is a span."""

    def __init__(self, generator: t.Any, tracer: Tracer, layer: str) -> None:
        key = f"process:{layer}"
        self.__name__ = getattr(generator, "__name__", "process")
        self.send = tracer.traced(layer, key, generator.send)
        self.throw = tracer.traced(layer, key, generator.throw)
