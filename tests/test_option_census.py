"""Every defaulted parameter in ``src/repro`` is set by some caller.

The census walks, with :mod:`ast` only, the defaulted parameters of
public module-level functions, and of ``__init__`` and the public
methods of public module-level classes, in every package of
``src/repro`` except the linter (``repro.analysis``).  A parameter
counts as set when a call to a function or method of that name (a
constructor's name is its class's) passes it positionally or by
keyword.  Callers are every file under ``src/``, ``benchmarks/``,
``examples/``, ``perfbench/`` and ``tests/``, and the ```python blocks
of README.md.  Three rules decide what reaches a function:

* A dict literal's keys count only for the function the dict reaches:
  ``SweepPoint(function=F, kwargs={...})``, ``x.pedantic(F,
  kwargs={...})`` or ``F(**{...})``.  Any other dict sets nothing.
* A function that passes its own ``**kwargs`` on, as in ``G(...,
  **kwargs)``, forwards to ``G`` every keyword its callers pass that it
  does not name itself, through any chain of such helpers.
* Any other ``*``/``**`` argument sets every positional or named
  parameter of the function it is passed to, and nothing beyond that
  function's own ``**`` parameter, so an unknown dict can never hide an
  option further down.

Deployment settings stay configurable and are exempt: names that are,
or end in, one of :data:`DEPLOYMENT_SETTINGS`, plus ``argv``.  Any
other parameter that no caller sets is an option with one value in
use; make it a constant.
"""

from __future__ import annotations

import ast
import pathlib
import re
import typing as t

ROOT = pathlib.Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench", "tests")
DEPLOYMENT_SETTINGS = ("host", "hostname", "port", "addr", "address", "path",
                       "secret", "password", "seed", "name", "key")

#: ``(where, call name, positional index or None if keyword-only, name)``
Parameter = t.Tuple[str, str, t.Optional[int], str]
Function = t.Union[ast.FunctionDef, ast.AsyncFunctionDef]
#: One call: ``(positional count, starred?, keywords, unknown ``**``?)``
Call = t.Tuple[int, bool, t.FrozenSet[str], bool]
#: An enclosing function: ``(call name, its named parameters, its
#: ``**`` parameter or None)``
Scope = t.Tuple[str, t.FrozenSet[str], t.Optional[str]]


def exempt(parameter: str) -> bool:
    return parameter == "argv" or any(
        parameter == setting or parameter.endswith("_" + setting)
        for setting in DEPLOYMENT_SETTINGS)


def _defaulted(function: Function, where: str, call_name: str,
               bound: bool) -> t.Iterator[Parameter]:
    arguments = function.args
    positional = arguments.posonlyargs + arguments.args
    if bound:
        positional = positional[1:]
    first_default = len(positional) - len(arguments.defaults)
    for index, argument in enumerate(positional):
        if index >= first_default:
            yield where, call_name, index, argument.arg
    for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
        if default is not None:
            yield where, call_name, None, argument.arg


def defaulted_parameters(module: ast.Module,
                         module_name: str) -> t.Iterator[Parameter]:
    """The census scope within one module."""
    for node in module.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")):
            yield from _defaulted(node, f"{module_name}.{node.name}",
                                  node.name, bound=False)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                if item.name == "__init__":
                    call_name = node.name
                elif item.name.startswith("_"):
                    continue
                else:
                    call_name = item.name
                static = any(isinstance(decorator, ast.Name)
                             and decorator.id == "staticmethod"
                             for decorator in item.decorator_list)
                yield from _defaulted(
                    item, f"{module_name}.{node.name}.{item.name}",
                    call_name, bound=not static)


def _call_name(function: ast.expr) -> t.Optional[str]:
    if isinstance(function, ast.Name):
        return function.id
    if isinstance(function, ast.Attribute):
        return function.attr
    return None


def _keyword(call: ast.Call, name: str) -> t.Optional[ast.expr]:
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def _positional(arguments: t.Sequence[ast.expr]) -> t.Tuple[int, bool]:
    """How many leading arguments are plain, and whether a ``*`` follows."""
    for index, argument in enumerate(arguments):
        if isinstance(argument, ast.Starred):
            return index, True
    return len(arguments), False


def _literal_keys(value: t.Optional[ast.expr]) -> t.Optional[t.Set[str]]:
    """The keys of a dict literal whose keys are all strings, else None."""
    if not isinstance(value, ast.Dict):
        return None
    keys = set()
    for key in value.keys:
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            return None
        keys.add(key.value)
    return keys


class Callers:
    """Every call in the caller sources, and the keywords that reach it."""

    def __init__(self, modules: t.Iterable[ast.Module]) -> None:
        self.calls: t.Dict[str, t.List[Call]] = {}
        #: ``(helper call name, helper's named parameters, target)``
        self.forwards: t.Set[t.Tuple[str, t.FrozenSet[str], str]] = set()
        #: call name -> keywords that reach it through forwarding helpers
        self.forwarded: t.Dict[str, t.Set[str]] = {}
        for module in modules:
            self._visit(module, (), None)
        self._propagate()

    def _visit(self, node: ast.AST, scopes: t.Tuple[Scope, ...],
               class_name: t.Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._visit(child, scopes, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                arguments = child.args
                named = frozenset(
                    argument.arg for argument in (arguments.posonlyargs
                                                  + arguments.args
                                                  + arguments.kwonlyargs))
                call_name = (class_name if child.name == "__init__"
                             and class_name else child.name)
                kwarg = arguments.kwarg.arg if arguments.kwarg else None
                self._visit(child, scopes + ((call_name, named, kwarg),),
                            None)
            else:
                if isinstance(child, ast.Call):
                    self._add_call(child, scopes)
                self._visit(child, scopes, None)

    def _forwarder(self, value: ast.expr,
                   scopes: t.Tuple[Scope, ...]) -> t.Optional[Scope]:
        """The enclosing function whose own ``**`` parameter ``value``
        is, if it is one."""
        if isinstance(value, ast.Name):
            for scope in reversed(scopes):
                if scope[2] == value.id:
                    return scope
        return None

    def _add_call(self, call: ast.Call,
                  scopes: t.Tuple[Scope, ...]) -> None:
        name = _call_name(call.func)
        if name == "SweepPoint":
            function = _keyword(call, "function")
            if function is not None:
                self._reach(function, None, _keyword(call, "kwargs"))
        elif name == "pedantic" and call.args:
            self._reach(call.args[0], _keyword(call, "args"),
                        _keyword(call, "kwargs"))
        if name is None:
            return
        positional, starred = _positional(call.args)
        keywords: t.Set[str] = set()
        double_starred = False
        for keyword in call.keywords:
            if keyword.arg is not None:
                keywords.add(keyword.arg)
                continue
            literal = _literal_keys(keyword.value)
            forwarder = self._forwarder(keyword.value, scopes)
            if literal is not None:
                keywords |= literal
            elif forwarder is not None:
                self.forwards.add((forwarder[0], forwarder[1], name))
            else:
                double_starred = True
        self.calls.setdefault(name, []).append(
            (positional, starred, frozenset(keywords), double_starred))

    def _reach(self, function: ast.expr, args: t.Optional[ast.expr],
               kwargs: t.Optional[ast.expr]) -> None:
        """A call of ``function(*args, **kwargs)`` made by a harness."""
        name = _call_name(function)
        if name is None:
            return
        if args is None:
            positional, starred = 0, False
        elif isinstance(args, ast.Tuple):
            positional, starred = _positional(args.elts)
        else:
            positional, starred = 0, True
        keywords = _literal_keys(kwargs) if kwargs is not None else set()
        self.calls.setdefault(name, []).append(
            (positional, starred, frozenset(keywords or ()), keywords is None))

    def _propagate(self) -> None:
        changed = True
        while changed:
            changed = False
            for helper, named, target in self.forwards:
                passed = set(self.forwarded.get(helper, ()))
                for _, _, keywords, _ in self.calls.get(helper, ()):
                    passed |= keywords
                received = self.forwarded.setdefault(target, set())
                if not passed - named <= received:
                    received |= passed - named
                    changed = True

    def sets(self, call_name: str, index: t.Optional[int], name: str) -> bool:
        if name in self.forwarded.get(call_name, ()):
            return True
        for positional, starred, keywords, double_starred in self.calls.get(
                call_name, ()):
            if name in keywords or double_starred:
                return True
            if index is not None and (index < positional or starred):
                return True
        return False


def unset_parameters(sources: t.Mapping[str, str],
                     callers: t.Iterable[str]) -> t.List[str]:
    """``module.function(parameter)`` for every non-exempt defaulted
    parameter of ``sources`` (module name -> code) that no caller sets."""
    census = Callers(ast.parse(code) for code in callers)
    return [f"{where}({name})"
            for module_name, code in sorted(sources.items())
            for where, call_name, index, name in defaulted_parameters(
                ast.parse(code), module_name)
            if not exempt(name) and not census.sets(call_name, index, name)]


def repository_sources() -> t.Tuple[t.Dict[str, str], t.List[str]]:
    """The census scope (module name -> code) and every caller source."""
    scope: t.Dict[str, str] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        if parts[1] != "analysis":
            scope[".".join(parts)] = path.read_text()
    callers = [path.read_text() for directory in CALLER_DIRS
               for path in sorted((ROOT / directory).rglob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    callers += re.findall(r"```python\n(.*?)```", readme, re.S)
    return scope, callers


def test_every_defaulted_parameter_has_a_caller_that_sets_it():
    scope, callers = repository_sources()
    unset = unset_parameters(scope, callers)
    assert not unset, (
        f"{len(unset)} defaulted parameter(s) no caller sets; make each a "
        "constant:\n  " + "\n  ".join(unset))


def test_census_rules():
    sources = {"pkg.mod": '''
def fetch(url, timeout=5.0, retries=0, *, backoff=1.0, proxy_host=None):
    pass

def _private(flag=True):
    pass

class Pool:
    def __init__(self, size=4, idle=30.0):
        pass

    def drain(self, limit=None, force=False):
        pass

    def _grow(self, step=1):
        pass
'''}
    callers = ['''
fetch("a", 1.0)
pool = Pool(**options)
pool.drain(*bounds)
''']
    assert unset_parameters(sources, callers) == [
        "pkg.mod.fetch(retries)", "pkg.mod.fetch(backoff)"]
    assert unset_parameters(sources, []) == [
        "pkg.mod.fetch(timeout)", "pkg.mod.fetch(retries)",
        "pkg.mod.fetch(backoff)", "pkg.mod.Pool.__init__(size)",
        "pkg.mod.Pool.__init__(idle)", "pkg.mod.Pool.drain(limit)",
        "pkg.mod.Pool.drain(force)"]
    # A dict that reaches no function sets nothing.
    stray = callers + ['report = {"retries": 2, "backoff": 3.0}']
    assert unset_parameters(sources, stray) == [
        "pkg.mod.fetch(retries)", "pkg.mod.fetch(backoff)"]
    # A sweep point, a benchmark round and a literal ``**`` reach theirs.
    swept = callers + ['SweepPoint(label=("a",), function=fetch, '
                       'kwargs={"url": "a", "retries": 2})']
    assert unset_parameters(sources, swept) == ["pkg.mod.fetch(backoff)"]
    timed = callers + ['benchmark.pedantic(fetch, args=("a",), '
                       'kwargs={"backoff": 2.0}, rounds=1)',
                       'fetch(**{"url": "b", "retries": 1})']
    assert unset_parameters(sources, timed) == []
    # A helper forwards the keywords it does not name, down any chain,
    # but an unknown dict passed to it reaches only its own parameters.
    forwarding = ['''
def drain_all(pools, **kwargs):
    for pool in pools:
        pool.drain(**kwargs)

def make_pool(size, **kwargs):
    return Pool(size, **kwargs)

def small_pool(**kwargs):
    return make_pool(1, **kwargs)

fetch("a", 1.0, 2, backoff=0.5)
drain_all([], limit=3)
drain_all([], **extra)
small_pool(size=2)
''']
    assert unset_parameters(sources, forwarding) == [
        "pkg.mod.Pool.__init__(idle)", "pkg.mod.Pool.drain(force)"]
    assert unset_parameters(
        sources, forwarding + ["small_pool(idle=1.0)"]) == [
        "pkg.mod.Pool.drain(force)"]
