"""The guarded-by checker.

Attributes are declared guarded with a trailing comment on the
assignment that introduces them (conventionally in ``__init__``)::

    self._pending = {}       # guarded by: self._pending_lock
    self.read_pauses = 0     # guarded by: event-loop
    self._buffer = []        # guarded by: owner

Three guard kinds, each with a statically checkable discipline:

``self.<lock>`` (a lock attribute)
    Every mutation of the attribute — assignment, augmented
    assignment, ``del``, or a mutating container-method call
    (``append``/``pop``/``update``/...) — must be lexically inside a
    ``with`` on *the same receiver's* lock: ``self.x`` needs
    ``with self._lock``, ``runtime.x`` needs ``with runtime._lock``.
    Receiver matching is what lets a supervisor class honour another
    object's lock (``runtime.status`` under ``with runtime.lock``).

``event-loop``
    The attribute belongs to one asyncio event loop: it may only be
    mutated inside ``async def`` bodies or methods of an
    ``asyncio.Protocol`` subclass (everything on the loop is
    serialized) or the declaring function.

``owner``
    Serial state encapsulated by its class: it may only be mutated
    from methods of the declaring class — external writers would break
    the single-owner serialization argument.

Known false positive (by design, documented in the fixture tests): a
mutation inside a helper *function* called while the lock is held is
flagged — the checker reasons lexically, not interprocedurally.
Annotate such helpers with a reasoned suppression.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Finding, ModuleContext, Rule

GUARD_RE = re.compile(r"guarded by:\s*([A-Za-z_][A-Za-z0-9_.\-]*)")

#: Container/object methods that mutate their receiver.
MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popleft", "appendleft",
    "clear", "add", "discard", "update", "setdefault", "popitem", "sort",
    "reverse", "put", "put_nowait",
})


class GuardSpec:
    """One guarded attribute: its kind and where it was declared."""

    __slots__ = ("attr", "kind", "lock_attr", "decl_line", "decl_classes",
                 "decl_funcs")

    def __init__(self, attr: str, kind: str, lock_attr: Optional[str],
                 decl_line: int):
        self.attr = attr
        self.kind = kind  # "lock" | "event-loop" | "owner"
        self.lock_attr = lock_attr
        self.decl_line = decl_line
        self.decl_classes: Set[str] = set()
        self.decl_funcs: Set[int] = set()  # id() of declaring function nodes


def _parse_guard(comment: str) -> Optional[Tuple[str, Optional[str]]]:
    """``(kind, lock_attr)`` from a ``guarded by:`` comment, or None."""
    match = GUARD_RE.search(comment)
    if match is None:
        return None
    target = match.group(1)
    if target == "event-loop":
        return ("event-loop", None)
    if target == "owner":
        return ("owner", None)
    return ("lock", target.rsplit(".", 1)[-1])


def _self_attr_target(node: ast.AST) -> Optional[str]:
    """The attribute name when *node* is ``self.<attr>``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _iter_mutations(
    node: ast.stmt,
) -> Iterator[Tuple[ast.expr, str, int]]:
    """``(receiver, attr, line)`` for every attribute mutated by *node*.

    Handles plain/augmented/annotated assignment, ``del``, tuple
    unpacking, subscript stores (``self.d[k] = v`` mutates ``d``), and
    mutating method calls (``self.d.pop(k)``).
    """
    def resolve(target: ast.expr) -> Iterator[Tuple[ast.expr, str, int]]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from resolve(element)
        elif isinstance(target, ast.Starred):
            yield from resolve(target.value)
        elif isinstance(target, ast.Subscript):
            yield from resolve(target.value)
        elif isinstance(target, ast.Attribute):
            yield (target.value, target.attr, target.lineno)

    if isinstance(node, ast.Assign):
        for target in node.targets:
            yield from resolve(target)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        if isinstance(node, ast.AnnAssign) and node.value is None:
            return
        yield from resolve(node.target)
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            yield from resolve(target)


def _call_mutation(node: ast.Call) -> Optional[Tuple[ast.expr, str, int]]:
    """``self.x.append(...)``-style mutation, if *node* is one."""
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in MUTATOR_METHODS
        and isinstance(func.value, ast.Attribute)
    ):
        receiver = func.value
        return (receiver.value, receiver.attr, node.lineno)
    return None


class GuardedByRule(Rule):
    rule_id = "guarded-by"
    description = (
        "attributes declared `# guarded by: <lock>` may only be mutated "
        "under a `with` on that lock (or, for event-loop/owner guards, "
        "from async bodies / the declaring class)"
    )
    also_emits = ("guard-conflict",)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        registry, conflicts = self._collect(module)
        yield from conflicts
        if registry:
            checker = _MutationChecker(module, registry)
            checker.visit(module.tree)
            yield from checker.findings

    # -- declaration pass --------------------------------------------------------

    def _collect(
        self, module: ModuleContext
    ) -> Tuple[Dict[str, GuardSpec], List[Finding]]:
        registry: Dict[str, GuardSpec] = {}
        conflicts: List[Finding] = []
        class_stack: List[str] = []
        func_stack: List[ast.AST] = []

        def walk(node: ast.AST) -> None:
            if isinstance(node, ast.ClassDef):
                class_stack.append(node.name)
                for child in node.body:
                    walk(child)
                class_stack.pop()
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func_stack.append(node)
                for child in node.body:
                    walk(child)
                func_stack.pop()
                return
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                comment = module.comment_on(node.lineno)
                parsed = _parse_guard(comment) if comment else None
                if parsed is not None:
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        attr = _self_attr_target(target)
                        if attr is None:
                            continue
                        kind, lock_attr = parsed
                        spec = registry.get(attr)
                        if spec is None:
                            spec = GuardSpec(attr, kind, lock_attr, node.lineno)
                            registry[attr] = spec
                        elif (spec.kind, spec.lock_attr) != (kind, lock_attr):
                            conflicts.append(Finding(
                                "guard-conflict", module.path, node.lineno,
                                f"attribute {attr!r} re-declared with a "
                                f"different guard (was {spec.kind}"
                                f"/{spec.lock_attr}, line {spec.decl_line})",
                            ))
                            continue
                        if class_stack:
                            spec.decl_classes.add(class_stack[-1])
                        if func_stack:
                            spec.decl_funcs.add(id(func_stack[-1]))
            for child in ast.iter_child_nodes(node):
                walk(child)

        walk(module.tree)
        return registry, conflicts


class _MutationChecker(ast.NodeVisitor):
    """The checking pass: tracks lexical `with` / class / function
    context and validates every mutation of a registered attribute."""

    def __init__(self, module: ModuleContext, registry: Dict[str, GuardSpec]):
        self.module = module
        self.registry = registry
        self.findings: List[Finding] = []
        self.class_stack: List[str] = []
        self.protocols: List[bool] = []  # per class: transport callbacks run on the loop
        self.func_stack: List[ast.AST] = []
        self.held: List[str] = []  # unparsed `with` context expressions
        self.reported: Set[Tuple[str, int]] = set()

    # -- context ----------------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node.name)
        self.protocols.append("asyncio.Protocol" in map(ast.unparse, node.bases))
        self.generic_visit(node)
        self.protocols.pop()
        self.class_stack.pop()

    def _visit_function(self, node) -> None:
        self.func_stack.append(node)
        held = self.held
        self.held = []  # a nested function does not inherit held locks
        self.generic_visit(node)
        self.held = held
        self.func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _visit_with(self, node) -> None:
        acquired = [ast.unparse(item.context_expr) for item in node.items]
        self.held.extend(acquired)
        self.generic_visit(node)
        del self.held[len(self.held) - len(acquired):]

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    # -- mutations ---------------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_stmt(node)
        self.generic_visit(node)

    visit_AugAssign = visit_Assign
    visit_AnnAssign = visit_Assign
    visit_Delete = visit_Assign

    def visit_Call(self, node: ast.Call) -> None:
        mutation = _call_mutation(node)
        if mutation is not None:
            self._check_mutation(*mutation)
        self.generic_visit(node)

    def _check_stmt(self, node: ast.stmt) -> None:
        for receiver, attr, line in _iter_mutations(node):
            self._check_mutation(receiver, attr, line)

    def _check_mutation(
        self, receiver: ast.expr, attr: str, line: int
    ) -> None:
        spec = self.registry.get(attr)
        if spec is None:
            return
        if self.func_stack and id(self.func_stack[-1]) in spec.decl_funcs:
            return  # the declaring function (construction) is exempt
        if not self.func_stack:
            return  # module-level statements run before concurrency exists
        if (attr, line) in self.reported:
            return
        receiver_text = ast.unparse(receiver)
        if spec.kind == "lock":
            required = f"{receiver_text}.{spec.lock_attr}"
            if required not in self.held:
                self.reported.add((attr, line))
                self.findings.append(Finding(
                    "guarded-by", self.module.path, line,
                    f"{receiver_text}.{attr} is guarded by "
                    f"{required!r} but mutated without holding it "
                    f"(held: {self.held or 'none'})",
                ))
        elif spec.kind == "event-loop":
            on_loop = any(
                isinstance(func, ast.AsyncFunctionDef)
                for func in self.func_stack
            ) or any(self.protocols[-1:])
            if not on_loop:
                self.reported.add((attr, line))
                self.findings.append(Finding(
                    "guarded-by", self.module.path, line,
                    f"{receiver_text}.{attr} is event-loop state but "
                    f"mutated from a synchronous function",
                ))
        elif spec.kind == "owner":
            if not (set(self.class_stack) & spec.decl_classes):
                self.reported.add((attr, line))
                owners = ", ".join(sorted(spec.decl_classes)) or "its class"
                self.findings.append(Finding(
                    "guarded-by", self.module.path, line,
                    f"{receiver_text}.{attr} is owner-serial state of "
                    f"{owners} but mutated outside the owning class",
                ))
