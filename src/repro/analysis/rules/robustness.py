"""Robustness rules: failures on wire/sim paths must not vanish.

A pump loop or protocol handler that catches ``Exception`` and does
nothing turns every transport fault, codec bug, and simulator error
into silence — the load "succeeds" with wrong traffic, or a process
quietly dies and the experiment deadlocks later.  Handlers must catch
the narrow error type they expect (``TransportError``,
``MiddlewareError``, ...) or do something observable with the failure.
"""

from __future__ import annotations

import ast
import typing as t

from ..engine import Rule

#: Exception names considered too broad to swallow silently.
_BROAD_NAMES = frozenset({"Exception", "BaseException"})


def _broad_name(expr: t.Optional[ast.expr]) -> t.Optional[str]:
    """The broad exception name caught by ``expr``, if any."""
    if expr is None:
        return "bare except"
    if isinstance(expr, ast.Name) and expr.id in _BROAD_NAMES:
        return expr.id
    if isinstance(expr, ast.Tuple):
        for element in expr.elts:
            name = _broad_name(element)
            if name is not None:
                return name
    return None


def _is_trivial(statement: ast.stmt) -> bool:
    """True for statements that discard the failure without a trace."""
    if isinstance(statement, (ast.Pass, ast.Continue, ast.Break)):
        return True
    if isinstance(statement, ast.Return):
        value = statement.value
        return value is None or (isinstance(value, ast.Constant)
                                 and value.value is None)
    if isinstance(statement, ast.Expr):
        return isinstance(statement.value, ast.Constant)
    return False


class SilentExceptRule(Rule):
    """No silently swallowed broad exceptions on wire/sim paths."""

    id = "silent-except"
    description = ("`except Exception:`/bare `except:` whose body only "
                   "passes/continues/returns hides wire and sim failures; "
                   "catch the narrow error type instead")
    default_exempt = ("repro.analysis",)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        caught = _broad_name(node.type)
        if caught is not None and all(_is_trivial(s) for s in node.body):
            self.report(node,
                        f"{caught} swallowed silently; catch the narrow "
                        "error type (TransportError, MiddlewareError, ...) "
                        "or handle the failure observably")
        self.generic_visit(node)


#: Container-growth calls that make a queue, applied to anything.
_GROWTH_METHODS = frozenset({"append", "appendleft", "extend", "put"})
#: Constructor names whose result is a fresh (empty) container.
_FRESH_CONSTRUCTORS = frozenset({"list", "deque", "dict", "set"})


def _is_infinite_loop(node: ast.While) -> bool:
    return isinstance(node.test, ast.Constant) and bool(node.test.value)


def _fresh_container_names(loop: ast.While) -> t.Set[str]:
    """Names (re)bound to a fresh container inside the loop body.

    A batch list rebuilt every iteration (``downstream = []`` at the
    top of the loop) is bounded by the iteration's work, not by the
    connection's lifetime — growing it is fine.
    """
    names: t.Set[str] = set()
    for statement in ast.walk(loop):
        if not isinstance(statement, ast.Assign):
            continue
        value = statement.value
        fresh = isinstance(value, (ast.List, ast.Dict, ast.Set))
        if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in _FRESH_CONSTRUCTORS):
            fresh = True
        if not fresh:
            continue
        for target in statement.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


class UnboundedQueueRule(Rule):
    """No unbounded accumulation inside forever-loops on wire paths.

    A ``while True:`` pump that ``.append``s/``.put``s into a
    long-lived container with no capacity check is an overload bug
    waiting for Figure 7's right-hand side: memory and queueing delay
    grow without limit exactly when the system is saturated.  Use a
    ``deque(maxlen=...)``, admit work through
    :class:`repro.overload.ConcurrencyLimiter`, or suppress with a
    comment saying what genuinely bounds the growth.
    """

    id = "unbounded-queue"
    description = ("container growth inside an infinite loop on a wire "
                   "path; bound it (deque(maxlen=...), "
                   "repro.overload.ConcurrencyLimiter) or justify the "
                   "bound in a suppression comment")
    default_scope = ("repro.core", "repro.middleware", "repro.transport",
                     "repro.net")

    #: ``default_factory`` values that build an unbounded sequence.
    _UNBOUNDED_FACTORIES = frozenset({"list", "deque"})

    def __init__(self, *args: t.Any, **kwargs: t.Any) -> None:
        super().__init__(*args, **kwargs)
        self._loop_locals: t.List[t.Set[str]] = []

    def visit_While(self, node: ast.While) -> None:
        if not _is_infinite_loop(node):
            self.generic_visit(node)
            return
        self._loop_locals.append(_fresh_container_names(node))
        self.generic_visit(node)
        self._loop_locals.pop()

    def visit_Call(self, node: ast.Call) -> None:
        if (self._loop_locals
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _GROWTH_METHODS
                and not self._is_per_iteration(node.func.value)):
            self.report(node,
                        f".{node.func.attr}() grows a container inside an "
                        "infinite loop with no bound; overload turns this "
                        "into unbounded memory and queueing delay")
        self.generic_visit(node)

    def _is_per_iteration(self, receiver: ast.expr) -> bool:
        if not isinstance(receiver, ast.Name):
            return False
        return any(receiver.id in names for names in self._loop_locals)

    # -- dataclass fields ------------------------------------------------

    # Per-flow/per-connection state usually lives in dataclass fields,
    # where the accumulation site (some .append elsewhere) and the
    # missing bound (the field declaration) are in different places.
    # The declaration is the fixable spot, so that is what gets flagged:
    # a list or bare deque default_factory on a dataclass field.

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if any(self._is_dataclass_decorator(d) for d in node.decorator_list):
            for statement in node.body:
                if (isinstance(statement, ast.AnnAssign)
                        and statement.value is not None):
                    self._check_field_default(statement.value)
        self.generic_visit(node)

    @staticmethod
    def _is_dataclass_decorator(decorator: ast.expr) -> bool:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if isinstance(decorator, ast.Attribute):
            return decorator.attr == "dataclass"
        return isinstance(decorator, ast.Name) and decorator.id == "dataclass"

    def _check_field_default(self, value: ast.expr) -> None:
        if not (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "field"):
            return
        for keyword in value.keywords:
            if keyword.arg == "default_factory" and \
                    self._factory_unbounded(keyword.value):
                self.report(keyword.value,
                            "dataclass field defaults to an unbounded "
                            "list/deque; per-instance state accumulates for "
                            "the life of the flow — use deque(maxlen=...) "
                            "or justify the bound in a suppression comment")

    def _factory_unbounded(self, factory: ast.expr) -> bool:
        if isinstance(factory, ast.Name):
            return factory.id in self._UNBOUNDED_FACTORIES
        if isinstance(factory, ast.Lambda):
            body = factory.body
            if isinstance(body, ast.List):
                return True
            if (isinstance(body, ast.Call)
                    and isinstance(body.func, ast.Name)
                    and body.func.id in self._UNBOUNDED_FACTORIES):
                # deque(maxlen=...) with a real bound is the fix, not
                # the bug.
                return not any(
                    keyword.arg == "maxlen"
                    and not (isinstance(keyword.value, ast.Constant)
                             and keyword.value.value is None)
                    for keyword in body.keywords)
        return False


#: Constructors whose no-arg result is an empty mapping.
_DICT_CONSTRUCTORS = frozenset({"dict", "OrderedDict", "defaultdict"})
#: Mapping methods that insert or may insert entries.
_MAP_GROW_METHODS = frozenset({"setdefault", "update"})
#: Mapping methods that remove entries (shrink evidence).
_MAP_SHRINK_METHODS = frozenset({"pop", "popitem", "clear"})


class UnboundedCacheFieldRule(Rule):
    """Instance dicts that only ever gain keys must shed them somewhere.

    The :class:`UnboundedQueueRule` sibling for mapping state: a cache,
    session table, or index initialized to an empty dict in ``__init__``
    and written by keyed inserts with *no* removal anywhere in the class
    (``pop``/``popitem``/``clear``/``del``/wholesale reassignment) grows
    for the instance's lifetime.  For long-lived sim objects — proxies,
    firewalls, caches — that is the memory curve of Figure 7's
    right-hand side.  Evict somewhere (TTL sweep, watermark, epoch
    reset), or suppress with a comment naming what genuinely bounds the
    key space.
    """

    id = "unbounded-cache-field"
    description = ("insert-only instance dict on a sim object; entries "
                   "accumulate for the instance's lifetime — evict "
                   "(pop/popitem/clear/del) or justify the key-space "
                   "bound in a suppression comment")
    default_scope = ("repro.core", "repro.middleware", "repro.transport",
                     "repro.net", "repro.cache", "repro.overload",
                     "repro.gfw", "repro.fleet")

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        fields = self._empty_dict_fields(node)
        if fields:
            grown, shrunk = self._field_traffic(node, set(fields))
            for name in sorted(grown - shrunk):
                self.report(fields[name],
                            f"self.{name} only ever gains entries in "
                            f"{node.name}; nothing pops, clears, deletes, "
                            "or replaces it — an unbounded cache on a "
                            "long-lived sim object")
        self.generic_visit(node)

    @staticmethod
    def _self_attr(expr: ast.expr) -> t.Optional[str]:
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"):
            return expr.attr
        return None

    def _empty_dict_fields(self, node: ast.ClassDef
                           ) -> t.Dict[str, ast.expr]:
        """``self.X`` fields bound to an empty mapping in ``__init__``."""
        fields: t.Dict[str, ast.expr] = {}
        for method in node.body:
            if not (isinstance(method, ast.FunctionDef)
                    and method.name == "__init__"):
                continue
            for statement in ast.walk(method):
                target: t.Optional[ast.expr] = None
                value: t.Optional[ast.expr] = None
                if (isinstance(statement, ast.Assign)
                        and len(statement.targets) == 1):
                    target, value = statement.targets[0], statement.value
                elif (isinstance(statement, ast.AnnAssign)
                        and statement.value is not None):
                    target, value = statement.target, statement.value
                if target is None or value is None:
                    continue
                name = self._self_attr(target)
                if name is not None and self._empty_mapping(value):
                    fields[name] = value
        return fields

    @staticmethod
    def _empty_mapping(value: ast.expr) -> bool:
        if isinstance(value, ast.Dict):
            # A pre-keyed literal ({a: 0, b: 0}) has a fixed key space.
            return not value.keys
        if isinstance(value, ast.Call) and not value.args:
            func = value.func
            if isinstance(func, ast.Attribute):
                return func.attr in _DICT_CONSTRUCTORS
            return (isinstance(func, ast.Name)
                    and func.id in _DICT_CONSTRUCTORS)
        # defaultdict(list) etc. — still an empty mapping.
        if isinstance(value, ast.Call):
            func = value.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name) else None)
            return name == "defaultdict"
        return False

    def _field_traffic(self, node: ast.ClassDef, names: t.Set[str]
                       ) -> t.Tuple[t.Set[str], t.Set[str]]:
        """Which of ``names`` gain entries / lose entries in the class."""
        grown: t.Set[str] = set()
        shrunk: t.Set[str] = set()
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            in_init = method.name == "__init__"
            for statement in ast.walk(method):
                if isinstance(statement, (ast.Assign, ast.AugAssign)):
                    targets = (statement.targets
                               if isinstance(statement, ast.Assign)
                               else [statement.target])
                    for target in targets:
                        if isinstance(target, ast.Subscript):
                            name = self._self_attr(target.value)
                            if name in names:
                                grown.add(name)
                        elif not in_init:
                            # Wholesale replacement resets the mapping:
                            # growth is bounded by the reset cadence.
                            name = self._self_attr(target)
                            if name in names:
                                shrunk.add(name)
                elif isinstance(statement, ast.Delete):
                    for target in statement.targets:
                        if isinstance(target, ast.Subscript):
                            name = self._self_attr(target.value)
                            if name in names:
                                shrunk.add(name)
                elif isinstance(statement, ast.Call):
                    func = statement.func
                    if isinstance(func, ast.Attribute):
                        name = self._self_attr(func.value)
                        if name in names:
                            if func.attr in _MAP_GROW_METHODS:
                                grown.add(name)
                            elif func.attr in _MAP_SHRINK_METHODS:
                                shrunk.add(name)
        return grown, shrunk
