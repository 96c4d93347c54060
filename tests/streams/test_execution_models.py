"""Census: two execution models, zero mode options, one way to run an
operator.

``StreamEngine()`` is production (always a ``StreamPlan`` over compiled
filter/map and columnar windows); ``StreamEngine.reference()`` is the
oracle (``repro.streams.reference``).  Nothing else selects what code
executes a query, and the two share no execution code.  An operator is
a declaration with no state of its own: ``bind(in_schema, out_schema)``
is the only way to run one, and a graph runs only by being registered.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro.expr
import repro.streams
import repro.streams.graph
from repro.core import XacmlPlusInstance
from repro.streams.engine import StreamEngine
from repro.streams.graph import QueryGraph
from repro.streams.operators import (
    AggregateOperator,
    AggregationSpec,
    FilterOperator,
    MapOperator,
    StreamOperator,
    WindowSpec,
    WindowType,
)
from repro.streams.reference import ReferenceEngine
from repro.streams.schema import Schema
from repro.streams.tuples import make_tuple

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


# -- an operator is a declaration; bind() is the one way to run it ------------------

#: Every way there ever was to run a box or a graph outside a plan.
DELETED_RUNNERS = ("process", "process_batch", "fresh_copy", "instantiate")

CENSUS_SCHEMA = Schema("c", [("t", "timestamp"), ("x", "double")])


def declarations():
    return [
        FilterOperator("x > 1"),
        MapOperator(["x"]),
        AggregateOperator(
            WindowSpec(WindowType.TUPLE, 2, 1), [AggregationSpec.parse("x:sum")]
        ),
        AggregateOperator(
            WindowSpec(WindowType.TIME, 2, 1), [AggregationSpec.parse("x:max")]
        ),
    ]


def test_nothing_but_bind_runs_an_operator_and_nothing_but_an_engine_a_graph():
    subjects = [StreamOperator, QueryGraph, QueryGraph("c")] + declarations()
    for subject in subjects:
        for name in DELETED_RUNNERS:
            assert not hasattr(subject, name), f"{subject!r} has {name}"
    assert "bind" in vars(StreamOperator)
    for operator in declarations():
        assert "bind" in vars(type(operator))


@pytest.mark.parametrize("operator", declarations(), ids=lambda op: op.describe())
def test_running_an_operator_assigns_nothing_on_it(operator):
    """Bind one declaration twice, run both: the two runs are
    independent and the declaration is what ``__init__`` left."""
    before = dict(vars(operator))
    out_schema = operator.output_schema(CENSUS_SCHEMA)
    batch = [
        make_tuple(CENSUS_SCHEMA, {"t": float(i), "x": float(i)}) for i in range(6)
    ]
    first = operator.bind(CENSUS_SCHEMA, out_schema)
    second = operator.bind(CENSUS_SCHEMA, out_schema)
    assert first is not second
    head = first(batch[:3])
    whole = second(batch)
    assert head + first(batch[3:]) == whole and whole
    assert vars(operator) == before
    assert all(vars(operator)[name] is value for name, value in before.items())


def test_the_names_this_deleted_and_no_others():
    """The named list ROADMAP item 6 asks for, pinned: what left the
    public surface with the private pipeline is exactly this."""
    assert set(repro.expr.__all__) == {
        "AndExpression", "BooleanExpression", "NotExpression", "Operator",
        "OrExpression", "SimpleExpression", "TrueExpression", "parse_condition",
        "eliminate_not", "to_dnf", "to_postfix", "PairVerdict",
        "check_two_simple_expressions", "conjunction_verdict", "dnf_verdict",
        "simplify_conjunction", "evaluate", "compile_batch",
    }  # lost: compile_predicate, compile_row_predicate
    for name in ("compile_predicate", "compile_row_predicate", "clear_compile_cache"):
        assert not hasattr(repro.expr.compile, name)
    defined_in_graph = {
        name
        for name, member in vars(repro.streams.graph).items()
        if getattr(member, "__module__", None) == "repro.streams.graph"
    }
    assert defined_in_graph == {"QueryGraph"}  # lost: QueryGraphInstance
