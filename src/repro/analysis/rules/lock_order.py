"""The lock-order detector.

Walks every function and records each *lexically nested* lock
acquisition pair: entering ``with B`` while ``with A`` is open adds
the directed edge ``A → B`` to the module's acquisition graph.  Locks
are identified by the last segment of the context expression
(``runtime.lock`` → ``lock``, ``self.store._mutation_lock`` →
``_mutation_lock``), so the same lock acquired through different
receivers unifies; an expression counts as a lock when that segment
ends in (or is) ``lock``.

Findings:

- ``lock-order`` — the acquisition graph has a cycle: two code paths
  acquire the same pair of locks in opposite orders, the classic
  ABBA deadlock shape.  Acquiring a lock while a lock of the *same*
  identity is held (a length-1 cycle) is reported too.
- ``lock-order-edge`` — a documented ordering (see
  :data:`REQUIRED_EDGES`) is violated: the documented edge is missing
  from the code, or its reverse appeared.

Limitation (documented in the fixture tests): acquisitions made by a
*callee* while the caller holds a lock are invisible — the graph is
lexical, not interprocedural.  Document such orders in
:data:`REQUIRED_EDGES` where they matter.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Finding, ModuleContext, Rule

#: Documented lock orders, keyed by module basename: (outer, inner)
#: pairs that must exist exactly in that direction.  The pool entry
#: (``repro/xacml/sharding/pool.py``) encodes its one nesting: a
#: restarted worker is readmitted under ``runtime.lock`` and counted
#: under ``_counter_lock`` inside it (never the reverse).
REQUIRED_EDGES: Dict[str, List[Tuple[str, str]]] = {
    "pool.py": [("lock", "_counter_lock")],
}


def _lock_identity(text: str) -> Optional[str]:
    """The lock name a with-context expression acquires, or None."""
    segment = text.rsplit(".", 1)[-1]
    # strip a call suffix: `self.lock_for(x)` is not an acquisition we
    # can identify; plain attribute/name access only.
    if not segment.isidentifier():
        return None
    if segment == "lock" or segment.endswith("_lock") or segment.endswith("Lock"):
        return segment
    return None


class _EdgeCollector(ast.NodeVisitor):
    def __init__(self) -> None:
        #: (outer, inner) → first (line, outer_text, inner_text) seen.
        self.edges: Dict[Tuple[str, str], Tuple[int, str, str]] = {}
        self.held: List[Tuple[str, str]] = []  # (identity, text)

    def _visit_function(self, node) -> None:
        held = self.held
        self.held = []
        self.generic_visit(node)
        self.held = held

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _visit_with(self, node) -> None:
        acquired: List[Tuple[str, str]] = []
        for item in node.items:
            text = ast.unparse(item.context_expr)
            identity = _lock_identity(text)
            if identity is None:
                continue
            for held_id, held_text in self.held + acquired:
                edge = (held_id, identity)
                self.edges.setdefault(
                    edge, (node.lineno, held_text, text)
                )
            acquired.append((identity, text))
        self.held.extend(acquired)
        self.generic_visit(node)
        del self.held[len(self.held) - len(acquired):]

    visit_With = _visit_with
    visit_AsyncWith = _visit_with


def _find_cycles(
    edges: Dict[Tuple[str, str], Tuple[int, str, str]]
) -> List[List[str]]:
    graph: Dict[str, Set[str]] = {}
    for a, b in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())
    cycles: List[List[str]] = []
    seen_cycles: Set[Tuple[str, ...]] = set()
    color: Dict[str, int] = {}
    stack: List[str] = []

    def dfs(node: str) -> None:
        color[node] = 1
        stack.append(node)
        for successor in sorted(graph[node]):
            if color.get(successor, 0) == 0:
                dfs(successor)
            elif color.get(successor) == 1:
                cycle = stack[stack.index(successor):] + [successor]
                key = tuple(sorted(set(cycle)))
                if key not in seen_cycles:
                    seen_cycles.add(key)
                    cycles.append(cycle)
        stack.pop()
        color[node] = 2

    for node in sorted(graph):
        if color.get(node, 0) == 0:
            dfs(node)
    return cycles


class LockOrderRule(Rule):
    rule_id = "lock-order"
    description = (
        "nested lock acquisitions must form an acyclic order; documented "
        "orders (runtime.lock before _counter_lock in sharding/pool.py) are "
        "checked as required edges"
    )
    also_emits = ("lock-order-edge",)

    def __init__(
        self, required: Optional[Dict[str, List[Tuple[str, str]]]] = None
    ):
        self.required = REQUIRED_EDGES if required is None else required

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        collector = _EdgeCollector()
        collector.visit(module.tree)
        edges = collector.edges
        for cycle in _find_cycles(edges):
            pairs = list(zip(cycle, cycle[1:]))
            line = min(edges[pair][0] for pair in pairs if pair in edges)
            yield Finding(
                "lock-order", module.path, line,
                "lock acquisition cycle (ABBA deadlock shape): "
                + " -> ".join(cycle),
            )
        basename = os.path.basename(module.path)
        for outer, inner in self.required.get(basename, ()):
            if (inner, outer) in edges:
                line, inner_text, outer_text = edges[(inner, outer)]
                yield Finding(
                    "lock-order-edge", module.path, line,
                    f"documented order {outer!r} before {inner!r} violated: "
                    f"{outer_text} acquired while holding {inner_text}",
                )
            if (outer, inner) not in edges:
                yield Finding(
                    "lock-order-edge", module.path, 1,
                    f"documented edge {outer!r} -> {inner!r} no longer "
                    f"appears in the code; update REQUIRED_EDGES (or the "
                    f"module docstring) if the discipline changed",
                )
