"""Process-misuse rules: catching broken simulator process bodies early.

``Simulator.process()`` takes a *generator object* — the result of
calling a generator function — and the generator may only yield
:class:`~repro.sim.events.Event` instances.  Both mistakes raise at
runtime (see ``repro.sim.kernel``), but only on the first resume of the
offending process, which in a long scenario can be millions of events
into a run.  These rules reject the statically visible cases at lint
time instead.

A third rule guards the end of a process: a generator still suspended
when its simulation ends is finalized when it is freed, often by the
cyclic collector long after, and ``GeneratorExit`` runs its cleanup.
A ``close()`` made then sends a FIN into a dead simulation, at an
instant the collector picked.
"""

from __future__ import annotations

import ast
import typing as t

from ..engine import Rule


def _local_function_names(tree: ast.Module) -> t.Set[str]:
    """Names of every function defined anywhere in the module."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _process_body_names(tree: ast.Module) -> t.Set[str]:
    """Function names invoked inline as ``<x>.process(name(...))``."""
    names: t.Set[str] = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "process" and node.args):
            continue
        body = node.args[0]
        if isinstance(body, ast.Call):
            inner = body.func
            if isinstance(inner, ast.Name):
                names.add(inner.id)
            elif isinstance(inner, ast.Attribute):
                names.add(inner.attr)
    return names


class UninvokedProcessRule(Rule):
    """``sim.process(body)`` must receive ``body(...)``, not ``body``."""

    id = "process-uninvoked"
    description = ("sim.process(fn) passes the function object instead of a "
                   "generator; call it: sim.process(fn(sim))")

    def run(self) -> t.List["t.Any"]:
        self._functions = _local_function_names(self.ctx.tree)
        return super().run()

    def visit_Call(self, node: ast.Call) -> None:
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr == "process" and node.args):
            body = node.args[0]
            if isinstance(body, ast.Name) and body.id in self._functions:
                self.report(node, f"process body {body.id!r} passed without "
                                  f"being invoked; write {body.id}(...) to "
                                  "create the generator")
            elif isinstance(body, ast.Lambda):
                self.report(node, "a lambda is not a generator; process "
                                  "bodies must be generator functions, "
                                  "invoked")
        self.generic_visit(node)


class YieldLiteralRule(Rule):
    """Process bodies may only yield Event instances, never literals."""

    id = "process-yield-literal"
    description = ("a process body yields a literal; processes may only "
                   "yield Event instances (sim.timeout(...), conn.recv(), ...)")

    def run(self) -> t.List["t.Any"]:
        process_bodies = _process_body_names(self.ctx.tree)
        for node in ast.walk(self.ctx.tree):
            if not (isinstance(node, ast.FunctionDef)
                    and node.name in process_bodies):
                continue
            for child in ast.walk(node):
                if (isinstance(child, ast.Yield)
                        and isinstance(child.value, ast.Constant)
                        and child.value.value is not None):
                    self.report(child, f"process body {node.name!r} yields "
                                       f"{child.value.value!r}; only Event "
                                       "instances may be yielded")
        return self.findings


#: Cleanup calls that send on the wire or hand a slot back (a private
#: ``_release`` helper counts as ``release``).
_CLEANUP_METHODS = frozenset({"close", "release", "abort"})
_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                  ast.ClassDef)


def _own_nodes(statements: t.Sequence[ast.AST]) -> t.Iterator[ast.AST]:
    """Every node under ``statements``, skipping nested scopes."""
    stack = list(statements)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, _NESTED_SCOPES))


def _catches(handler: ast.ExceptHandler, name: str) -> bool:
    caught = handler.type
    names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return any(isinstance(item, ast.Name) and item.id == name
               for item in names)


def _cleans_up(statements: t.Sequence[ast.AST]) -> bool:
    return any(isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr.lstrip("_") in _CLEANUP_METHODS
               for node in _own_nodes(statements))


class FinalizedGeneratorRule(Rule):
    """A finalized generator sends nothing.

    Flags a ``try`` in a generator whose ``except BaseException``, bare
    ``except`` or ``finally`` block calls ``close()``, ``release()`` or
    ``abort()`` (or a private ``_release()`` and the like) when the same
    ``try`` has no ``except GeneratorExit`` handler to keep that cleanup
    from running at finalization.
    """

    id = "generator-exit-sends"
    description = ("a generator's BaseException/bare-except/finally cleanup "
                   "calls close()/release()/abort() with no `except "
                   "GeneratorExit` on the same try; a finalized generator "
                   "would send into a dead simulation")
    default_exempt = ("repro.realnet", "repro.analysis")

    def run(self) -> t.List["t.Any"]:
        for function in ast.walk(self.ctx.tree):
            if not isinstance(function, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                continue
            body = list(_own_nodes(function.body))
            if not any(isinstance(node, (ast.Yield, ast.YieldFrom))
                       for node in body):
                continue
            for node in body:
                if not isinstance(node, ast.Try) or any(
                        _catches(handler, "GeneratorExit")
                        for handler in node.handlers):
                    continue
                cleanup = [statement for handler in node.handlers
                           if handler.type is None
                           or _catches(handler, "BaseException")
                           for statement in handler.body]
                if _cleans_up(cleanup + node.finalbody):
                    self.report(node, f"generator {function.name!r} cleans "
                                      "up in a BaseException, bare-except or "
                                      "finally block with no `except "
                                      "GeneratorExit` on the same try; a "
                                      "finalized generator must send "
                                      "nothing")
        return self.findings
