"""Census: two execution models, zero mode options.

``StreamEngine()`` is production (always a ``StreamPlan`` over compiled
filter/map and columnar windows); ``StreamEngine.reference()`` is the
oracle (``repro.streams.reference``).  Nothing else selects what code
executes a query, and the two share no execution code.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import repro.streams
from repro.core import XacmlPlusInstance
from repro.streams.engine import StreamEngine
from repro.streams.reference import ReferenceEngine

MODE_OPTIONS = {"compiled", "shared", "use_compiled"}
STREAMS_DIR = Path(repro.streams.__file__).parent


def public_callables():
    """(qualified name, callable) for every public function, class
    constructor and public method defined under ``repro.streams``."""
    for info in pkgutil.walk_packages(repro.streams.__path__, "repro.streams."):
        module = importlib.import_module(info.name)
        for name, member in vars(module).items():
            if name.startswith("_") or getattr(member, "__module__", None) != info.name:
                continue
            if inspect.isfunction(member):
                yield f"{info.name}.{name}", member
            elif inspect.isclass(member):
                for attr, method in vars(member).items():
                    if attr == "__init__" or not attr.startswith("_"):
                        method = getattr(method, "__func__", method)
                        if inspect.isfunction(method):
                            yield f"{info.name}.{name}.{attr}", method


def imported_modules(path, module_scope_only):
    """Dotted names imported by *path* (``from a import b`` yields both
    ``a`` and ``a.b``); function-local imports only on request."""
    tree = ast.parse(path.read_text())
    skip = (ast.FunctionDef, ast.AsyncFunctionDef) if module_scope_only else ()
    stack, names = [tree], set()
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        stack.extend(
            child for child in ast.iter_child_nodes(node) if not isinstance(child, skip)
        )
    return names


def test_no_mode_option_in_any_public_signature():
    checked = 0
    for qualified, function in public_callables():
        checked += 1
        offending = MODE_OPTIONS & set(inspect.signature(function).parameters)
        assert not offending, f"{qualified} takes mode option(s) {sorted(offending)}"
    assert checked > 100  # the walk really covered the package
    assert list(inspect.signature(StreamEngine).parameters) == ["host"]


def test_production_never_imports_the_oracle_at_module_scope():
    production = [
        STREAMS_DIR / name for name in ("graph.py", "engine.py", "plan.py")
    ] + sorted((STREAMS_DIR / "operators").glob("*.py"))
    for path in production:
        imports = imported_modules(path, module_scope_only=True)
        assert "repro.streams.reference" not in imports, path.name


def test_oracle_shares_no_execution_code_with_production():
    imports = imported_modules(STREAMS_DIR / "reference.py", module_scope_only=False)
    assert "repro.streams.plan" not in imports
    assert not any(name.startswith("repro.expr.compile") for name in imports)
    assert not any("Columnar" in name for name in imports)


def test_reference_is_a_drop_in_engine():
    engine = StreamEngine.reference("oracle.local")
    assert isinstance(engine, ReferenceEngine) and isinstance(engine, StreamEngine)
    assert engine.host == "oracle.local"
    assert XacmlPlusInstance(engine=engine).engine is engine
