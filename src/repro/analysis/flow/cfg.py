"""Intraprocedural control-flow graphs over Python function ASTs.

One :class:`Node` per simple statement; compound statements (``if``,
``while``, ``for``, ``with``) contribute a header node for the
expression they evaluate, with bodies built inline.  Three synthetic
nodes frame every graph: ``entry``, ``exit`` (normal returns) and
``error-exit`` (uncaught exceptions) — dataflow rules that care about
exception paths read the fact that reaches ``error-exit``.

Exception edges are attached per the repo's may-raise policy (the
caller supplies a ``may_raise`` predicate over nodes; explicit
``raise`` statements are handled here, with the raised type matched
against handler clauses via :data:`EXCEPTION_HIERARCHY`).  The model
is deliberately optimistic where Python is pessimistic: a statement
with no raise evidence gets no exception edge, and an unknown-typed
raise is assumed caught by the innermost enclosing handler set.  That
bias keeps leak findings actionable — every exception edge in the
graph corresponds to a failure mode the code visibly has.
"""

from __future__ import annotations

import ast
import enum
import typing as t

#: Child -> parent map for the repo's exception hierarchy (repro.errors)
#: plus the stdlib types the tree actually raises.  Used to decide
#: whether an ``except`` clause catches an explicitly-raised type.
EXCEPTION_HIERARCHY: t.Dict[str, str] = {
    "ReproError": "Exception",
    "SimulationError": "ReproError",
    "ProcessKilled": "SimulationError",
    "NetworkError": "ReproError",
    "AddressError": "NetworkError",
    "RoutingError": "NetworkError",
    "TransportError": "ReproError",
    "ConnectionReset": "TransportError",
    "ConnectionTimeout": "TransportError",
    "OverloadError": "TransportError",
    "DnsError": "ReproError",
    "NameResolutionError": "DnsError",
    "HttpError": "ReproError",
    "CryptoError": "ReproError",
    "BlindingError": "CryptoError",
    "PolicyError": "ReproError",
    "RegistrationError": "PolicyError",
    "MiddlewareError": "ReproError",
    "TunnelError": "MiddlewareError",
    "MeasurementError": "ReproError",
    "FaultError": "ReproError",
    "ConfigurationError": "ReproError",
    "ValueError": "Exception",
    "TypeError": "Exception",
    "KeyError": "LookupError",
    "IndexError": "LookupError",
    "LookupError": "Exception",
    "RuntimeError": "Exception",
    "NotImplementedError": "RuntimeError",
    "StopIteration": "Exception",
    "OSError": "Exception",
    "AssertionError": "Exception",
    "ArithmeticError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
    "Exception": "BaseException",
}


def exception_ancestors(name: str) -> t.Set[str]:
    """``name`` plus every ancestor reachable in the hierarchy."""
    seen = {name}
    while name in EXCEPTION_HIERARCHY:
        name = EXCEPTION_HIERARCHY[name]
        seen.add(name)
    return seen


class EdgeKind(enum.Enum):
    """Why control flows along an edge."""

    NORMAL = "normal"
    TRUE = "true"
    FALSE = "false"
    LOOP = "loop"
    EXCEPT = "except"


#: Node labels.
ENTRY = "entry"
EXIT = "exit"
ERROR_EXIT = "error-exit"
STMT = "stmt"
EXCEPT_HEAD = "except-head"
FINALLY_HEAD = "finally-head"


class Node:
    """One CFG node: a statement (or header) plus its role label."""

    __slots__ = ("index", "label", "stmt")

    def __init__(self, index: int, label: str,
                 stmt: t.Optional[ast.AST] = None) -> None:
        self.index = index
        self.label = label
        self.stmt = stmt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        at = getattr(self.stmt, "lineno", None)
        return f"<Node {self.index} {self.label}" + (
            f" L{at}>" if at else ">")


def node_asts(node: Node) -> t.List[ast.AST]:
    """The AST subtrees evaluated *at* this node.

    Compound statements only evaluate their header expression here
    (test, iterable, context manager); their bodies are separate
    nodes.  Nested function/class definitions contribute nothing —
    their bodies do not run at the definition site.
    """
    stmt = node.stmt
    if stmt is None:
        return []
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.target, stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        out: t.List[ast.AST] = []
        for item in stmt.items:
            out.append(item.context_expr)
            if item.optional_vars is not None:
                out.append(item.optional_vars)
        return out
    if isinstance(stmt, ast.ExceptHandler):
        return list(stmt.type and [stmt.type] or [])
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef, ast.Try)):
        return []
    return [stmt]


class CFG:
    """The graph: nodes, kinded edges in both directions."""

    def __init__(self, func: t.Union[ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda, None] = None) -> None:
        self.func = func
        self.nodes: t.List[Node] = []
        self.succs: t.Dict[int, t.List[t.Tuple[int, EdgeKind]]] = {}
        self.preds: t.Dict[int, t.List[t.Tuple[int, EdgeKind]]] = {}
        self.entry = self.add_node(ENTRY)
        self.exit = self.add_node(EXIT)
        self.error_exit = self.add_node(ERROR_EXIT)

    def add_node(self, label: str, stmt: t.Optional[ast.AST] = None) -> int:
        index = len(self.nodes)
        self.nodes.append(Node(index, label, stmt))
        self.succs[index] = []
        self.preds[index] = []
        return index

    def add_edge(self, src: int, dst: int, kind: EdgeKind) -> None:
        if (dst, kind) in self.succs[src]:
            return
        self.succs[src].append((dst, kind))
        self.preds[dst].append((src, kind))

    def node(self, index: int) -> Node:
        return self.nodes[index]

    def stmt_nodes(self) -> t.List[Node]:
        """All non-synthetic nodes, in creation (roughly source) order."""
        return [n for n in self.nodes if n.label == STMT]

    def node_for(self, stmt: ast.AST) -> t.Optional[Node]:
        for node in self.nodes:
            if node.stmt is stmt:
                return node
        return None


#: Frontier = pending edges ``(source node, kind)`` awaiting a target.
_Frontier = t.List[t.Tuple[int, EdgeKind]]


class _HandlerFrame:
    """An active ``try`` whose ``except`` clauses can catch."""

    __slots__ = ("clauses",)

    def __init__(self, clauses):
        # [(type names or None for bare-except, head node index)]
        self.clauses = clauses


class _FinallyFrame:
    """An active ``try``/``finally`` interposed on every departure."""

    __slots__ = ("head", "pending_exc", "pending_return",
                 "pending_breaks", "pending_continues")

    def __init__(self, head: int) -> None:
        self.head = head
        self.pending_exc: t.List[t.Optional[str]] = []
        self.pending_return = False
        self.pending_breaks: t.List[t.Any] = []
        self.pending_continues: t.List[t.Any] = []


class _Loop:
    __slots__ = ("head", "breaks", "depth")

    def __init__(self, head: int, depth: int) -> None:
        self.head = head
        self.breaks: _Frontier = []
        self.depth = depth


class _Builder:
    def __init__(self, cfg: CFG,
                 may_raise: t.Callable[[Node], bool]) -> None:
        self.cfg = cfg
        self.may_raise = may_raise
        self.frames: t.List[t.Union[_HandlerFrame, _FinallyFrame]] = []
        self.loops: t.List[_Loop] = []

    # -- plumbing -------------------------------------------------------------

    def connect(self, frontier: _Frontier, target: int,
                kind: t.Optional[EdgeKind] = None) -> None:
        for src, edge_kind in frontier:
            self.cfg.add_edge(src, target, kind if kind is not None else edge_kind)

    def new_stmt(self, stmt: ast.AST, frontier: _Frontier) -> int:
        node = self.cfg.add_node(STMT, stmt)
        self.connect(frontier, node)
        return node

    # -- exception routing ----------------------------------------------------

    def route_exception(self, src: int, exc: t.Optional[str],
                        kind: EdgeKind = EdgeKind.EXCEPT) -> None:
        """Attach exception edges for an exception of type ``exc`` at ``src``.

        ``None`` means unknown type: assumed caught by the innermost
        handler set (edges to every clause), else routed outward.

        ``kind`` is EXCEPT when ``src`` is the raising statement (its
        effect never happened; dataflow propagates the in-fact), but
        NORMAL when ``src`` is the end of a ``finally`` body resuming a
        pending exception — that statement *did* complete, and a
        release it performed must reach the error exit.
        """
        ancestors = exception_ancestors(exc) if exc is not None else None
        for position in range(len(self.frames) - 1, -1, -1):
            frame = self.frames[position]
            if isinstance(frame, _FinallyFrame):
                self.cfg.add_edge(src, frame.head, kind)
                if exc not in frame.pending_exc:
                    frame.pending_exc.append(exc)
                return
            assert isinstance(frame, _HandlerFrame)
            if exc is None:
                for _names, head in frame.clauses:
                    self.cfg.add_edge(src, head, kind)
                return
            caught = False
            for names, head in frame.clauses:
                if names is None:  # bare except
                    self.cfg.add_edge(src, head, kind)
                    caught = True
                    break
                verdicts = [self._clause_verdict(name, exc, ancestors)
                            for name in names]
                if "yes" in verdicts:
                    self.cfg.add_edge(src, head, kind)
                    caught = True
                    break
                if "maybe" in verdicts:
                    self.cfg.add_edge(src, head, kind)
            if caught:
                return
        self.cfg.add_edge(src, self.cfg.error_exit, kind)

    @staticmethod
    def _clause_verdict(name: str, exc: str,
                        ancestors: t.Set[str]) -> str:
        if name in ("BaseException", "Exception") or name in ancestors:
            return "yes"
        if name in EXCEPTION_HIERARCHY or name == "BaseException":
            return "no"  # known type unrelated to (or narrower than) exc
        return "maybe"  # handler type we cannot place in the hierarchy

    # -- departure routing (return/break/continue through finally) -----------

    def route_return(self, src: int,
                     frames: t.Optional[t.List] = None) -> None:
        stack = self.frames if frames is None else frames
        for frame in reversed(stack):
            if isinstance(frame, _FinallyFrame):
                self.cfg.add_edge(src, frame.head, EdgeKind.NORMAL)
                frame.pending_return = True
                return
        self.cfg.add_edge(src, self.cfg.exit, EdgeKind.NORMAL)

    def route_break(self, src: int, loop: _Loop,
                    frames: t.Optional[t.List] = None) -> None:
        stack = self.frames if frames is None else frames
        for frame in reversed(stack[loop.depth:]):
            if isinstance(frame, _FinallyFrame):
                self.cfg.add_edge(src, frame.head, EdgeKind.NORMAL)
                frame.pending_breaks.append(loop)
                return
        loop.breaks.append((src, EdgeKind.NORMAL))

    def route_continue(self, src: int, loop: _Loop,
                       frames: t.Optional[t.List] = None) -> None:
        stack = self.frames if frames is None else frames
        for frame in reversed(stack[loop.depth:]):
            if isinstance(frame, _FinallyFrame):
                self.cfg.add_edge(src, frame.head, EdgeKind.NORMAL)
                frame.pending_continues.append(loop)
                return
        self.cfg.add_edge(src, loop.head, EdgeKind.LOOP)

    # -- construction ---------------------------------------------------------

    def build(self, body: t.Sequence[ast.stmt]) -> None:
        frontier = self.build_body(body, [(self.cfg.entry, EdgeKind.NORMAL)])
        self.connect(frontier, self.cfg.exit)

    def build_body(self, body: t.Sequence[ast.stmt],
                   frontier: _Frontier) -> _Frontier:
        for stmt in body:
            frontier = self.build_stmt(stmt, frontier)
        return frontier

    def build_stmt(self, stmt: ast.stmt, frontier: _Frontier) -> _Frontier:
        if isinstance(stmt, ast.If):
            return self._build_if(stmt, frontier)
        if isinstance(stmt, (ast.While,)):
            return self._build_while(stmt, frontier)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._build_for(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._build_try(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._build_with(stmt, frontier)
        node = self.new_stmt(stmt, frontier)
        if isinstance(stmt, ast.Raise):
            self.route_exception(node, raise_type(stmt))
            return []
        if self.may_raise(self.cfg.node(node)):
            self.route_exception(node, None)
        if isinstance(stmt, ast.Return):
            self.route_return(node)
            return []
        if isinstance(stmt, ast.Break) and self.loops:
            self.route_break(node, self.loops[-1])
            return []
        if isinstance(stmt, ast.Continue) and self.loops:
            self.route_continue(node, self.loops[-1])
            return []
        return [(node, EdgeKind.NORMAL)]

    def _build_if(self, stmt: ast.If, frontier: _Frontier) -> _Frontier:
        test = self.new_stmt(stmt, frontier)
        if self.may_raise(self.cfg.node(test)):
            self.route_exception(test, None)
        then_end = self.build_body(stmt.body, [(test, EdgeKind.TRUE)])
        if stmt.orelse:
            else_end = self.build_body(stmt.orelse, [(test, EdgeKind.FALSE)])
        else:
            else_end = [(test, EdgeKind.FALSE)]
        return then_end + else_end

    def _build_while(self, stmt: ast.While, frontier: _Frontier) -> _Frontier:
        test = self.new_stmt(stmt, frontier)
        if self.may_raise(self.cfg.node(test)):
            self.route_exception(test, None)
        loop = _Loop(test, len(self.frames))
        self.loops.append(loop)
        body_end = self.build_body(stmt.body, [(test, EdgeKind.TRUE)])
        self.loops.pop()
        self.connect(body_end, test, EdgeKind.LOOP)
        infinite = (isinstance(stmt.test, ast.Constant)
                    and bool(stmt.test.value))
        exhausted: _Frontier = [] if infinite else [(test, EdgeKind.FALSE)]
        if stmt.orelse:
            exhausted = self.build_body(stmt.orelse, exhausted)
        return exhausted + loop.breaks

    def _build_for(self, stmt: t.Union[ast.For, ast.AsyncFor],
                   frontier: _Frontier) -> _Frontier:
        head = self.new_stmt(stmt, frontier)
        if self.may_raise(self.cfg.node(head)):
            self.route_exception(head, None)
        loop = _Loop(head, len(self.frames))
        self.loops.append(loop)
        body_end = self.build_body(stmt.body, [(head, EdgeKind.TRUE)])
        self.loops.pop()
        self.connect(body_end, head, EdgeKind.LOOP)
        exhausted: _Frontier = [(head, EdgeKind.FALSE)]
        if stmt.orelse:
            exhausted = self.build_body(stmt.orelse, exhausted)
        return exhausted + loop.breaks

    def _build_with(self, stmt: t.Union[ast.With, ast.AsyncWith],
                    frontier: _Frontier) -> _Frontier:
        head = self.new_stmt(stmt, frontier)
        if self.may_raise(self.cfg.node(head)):
            self.route_exception(head, None)
        return self.build_body(stmt.body, [(head, EdgeKind.NORMAL)])

    def _build_try(self, stmt: ast.Try, frontier: _Frontier) -> _Frontier:
        fin_frame: t.Optional[_FinallyFrame] = None
        if stmt.finalbody:
            fin_frame = _FinallyFrame(
                self.cfg.add_node(FINALLY_HEAD, stmt))
            self.frames.append(fin_frame)
        clauses: t.List[t.Tuple[t.Optional[t.Tuple[str, ...]], int,
                                ast.ExceptHandler]] = []
        if stmt.handlers:
            for handler in stmt.handlers:
                head = self.cfg.add_node(EXCEPT_HEAD, handler)
                clauses.append((handler_type_names(handler), head, handler))
            self.frames.append(_HandlerFrame(
                [(names, head) for names, head, _h in clauses]))
        body_end = self.build_body(stmt.body, frontier)
        if stmt.handlers:
            self.frames.pop()
        if stmt.orelse:
            # Runs only after the body completed normally; its
            # exceptions escape this try's handlers.
            body_end = self.build_body(stmt.orelse, body_end)
        after: _Frontier = list(body_end)
        for _names, head, handler in clauses:
            after.extend(self.build_body(handler.body,
                                         [(head, EdgeKind.NORMAL)]))
        if fin_frame is not None:
            self.frames.pop()
            self.connect(after, fin_frame.head)
            fin_end = self.build_body(stmt.finalbody,
                                      [(fin_frame.head, EdgeKind.NORMAL)])
            # Departures that were intercepted resume from the
            # finally body's end, re-routed against the outer stack.
            for exc in fin_frame.pending_exc:
                for src, _kind in fin_end:
                    self.route_exception(src, exc, kind=EdgeKind.NORMAL)
            if fin_frame.pending_return:
                for src, _kind in fin_end:
                    self.route_return(src)
            for loop in fin_frame.pending_breaks:
                for src, _kind in fin_end:
                    self.route_break(src, loop)
            for loop in fin_frame.pending_continues:
                for src, _kind in fin_end:
                    self.route_continue(src, loop)
            after = fin_end
        return after


def raise_type(stmt: ast.Raise) -> t.Optional[str]:
    """Type name of an explicit raise, or None when unknowable."""
    exc: t.Optional[ast.expr] = stmt.exc
    if exc is None:
        return None
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


def handler_type_names(
        handler: ast.ExceptHandler) -> t.Optional[t.Tuple[str, ...]]:
    """Names an ``except`` clause catches; None for a bare except."""
    if handler.type is None:
        return None
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    names = []
    for node in types:
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return tuple(names)


def never_raises(_node: Node) -> bool:
    """The trivial may-raise policy: nothing raises but ``raise``."""
    return False


def build_cfg(func: t.Union[ast.FunctionDef, ast.AsyncFunctionDef],
              may_raise: t.Callable[[Node], bool] = never_raises) -> CFG:
    """Build the CFG of one function body.

    ``may_raise`` decides, per node, whether an exception edge should
    leave it (in addition to explicit ``raise`` statements, which are
    always routed).  The default says no — pass the repo policy from
    :mod:`repro.analysis.flow.resources` for real analyses.
    """
    cfg = CFG(func)
    _Builder(cfg, may_raise).build(func.body)
    return cfg
