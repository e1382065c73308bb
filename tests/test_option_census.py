"""Every defaulted parameter in ``src/repro`` is set by some caller.

The census walks, with :mod:`ast` only, the defaulted parameters of
public module-level functions, and of ``__init__`` and the public
methods of public module-level classes, in every package of
``src/repro`` except the linter (``repro.analysis``).  A parameter
counts as set when a call to a function or method of that name (a
constructor's name is its class's) passes it positionally, by keyword
or through ``*``/``**``, or when a dict literal anywhere has it as a
key, which covers ``SweepPoint`` kwargs.  Callers are every file under
``src/``, ``benchmarks/``, ``examples/``, ``perfbench/`` and
``tests/``, and the ```python blocks of README.md.

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


class Callers:
    """Every call and dict-literal key in the caller sources."""

    def __init__(self, modules: t.Iterable[ast.Module]) -> None:
        #: call name -> (positional count, starred?, keywords, ``**``?)
        self.calls: t.Dict[str, t.List[t.Tuple[int, bool, t.Set[str],
                                               bool]]] = {}
        self.dict_keys: t.Set[str] = set()
        for module in modules:
            for node in ast.walk(module):
                if isinstance(node, ast.Call):
                    self._add_call(node)
                elif isinstance(node, ast.Dict):
                    self.dict_keys.update(
                        key.value for key in node.keys
                        if isinstance(key, ast.Constant)
                        and isinstance(key.value, str))

    def _add_call(self, call: ast.Call) -> None:
        function = call.func
        if isinstance(function, ast.Name):
            name = function.id
        elif isinstance(function, ast.Attribute):
            name = function.attr
        else:
            return
        positional = 0
        starred = False
        for argument in call.args:
            if isinstance(argument, ast.Starred):
                starred = True
                break
            positional += 1
        keywords = {keyword.arg for keyword in call.keywords if keyword.arg}
        double_starred = any(keyword.arg is None for keyword in call.keywords)
        self.calls.setdefault(name, []).append(
            (positional, starred, keywords, double_starred))

    def sets(self, call_name: str, index: t.Optional[int], name: str) -> bool:
        if name in self.dict_keys:
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
point = {"retries": 2}
''']
    assert unset_parameters(sources, callers) == ["pkg.mod.fetch(backoff)"]
    assert unset_parameters(sources, []) == [
        "pkg.mod.fetch(timeout)", "pkg.mod.fetch(retries)",
        "pkg.mod.fetch(backoff)", "pkg.mod.Pool.__init__(size)",
        "pkg.mod.Pool.__init__(idle)", "pkg.mod.Pool.drain(limit)",
        "pkg.mod.Pool.drain(force)"]
