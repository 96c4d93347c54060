"""Layout and option census of ``repro.xacml.sharding``.

The package is five single-concern modules with one-way imports
(``partition`` ← ``store`` ← ``scatter`` ← ``pdp`` ← ``pool``), one
routing core shared by both sharded evaluators, and no constructor
option that selects between behaviours.  Pinned here so the split does
not silently grow back into one file, a cycle, or a mode matrix.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import repro.xacml as xacml
import repro.xacml.sharding as sharding
from repro.core import XacmlPlusInstance
from repro.framework.server import DataServer
from repro.xacml.policy import Policy, Rule, Target
from repro.xacml.response import Effect
from repro.xacml.sharding import ProcessShardPool, ScatterEvaluator, ShardedPDP, ShardedPolicyStore

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = "repro.xacml.sharding"
PACKAGE_DIR = Path(sharding.__file__).parent

#: Import order: a module may import only from the modules before it.
ORDER = ("partition", "store", "scatter", "pdp", "pool")

#: The package's public names.
PUBLIC_NAMES = {
    "InvalidationBus", "ProcessShardPool", "ScatterEvaluator", "ShardListener",
    "ShardedPDP", "ShardedPolicyStore", "shard_of",
}

#: The placement strategies and their registry, deleted for one
#: placement on subject-id keys.
DELETED_NAMES = {
    "PARTITIONERS", "CompositeKeyPartitioner", "PartitionStrategy",
    "ResourceKeyPartitioner", "SubjectKeyPartitioner", "make_partitioner",
}

ROBUSTNESS_KEYS = {
    "worker_restarts", "fallback_evaluations", "unavailable_errors",
    "shards_unavailable",
}


def sibling_imports(module_name):
    """The package submodules *module_name* imports (anywhere in it)."""
    tree = ast.parse((PACKAGE_DIR / f"{module_name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{module_name}: relative import"
            modules = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        for dotted in modules:
            if dotted == PACKAGE:
                found.add("__init__")
            elif dotted.startswith(PACKAGE + "."):
                found.add(dotted[len(PACKAGE) + 1:].split(".")[0])
    return found & ({"__init__"} | set(ORDER))


def names_imported_from_the_package():
    """Every name some file in the repo imports from the package root."""
    names = set()
    for top in ("src", "tests", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.module == PACKAGE:
                    names.update(alias.name for alias in node.names)
    return names


# -- (a) names and homes -------------------------------------------------------------

def test_package_is_exactly_the_five_modules():
    assert not (PACKAGE_DIR.parent / "sharding.py").exists()
    assert {p.stem for p in PACKAGE_DIR.glob("*.py")} == {"__init__", *ORDER}


def test_every_imported_name_resolves_and_the_public_set_is_unchanged():
    assert set(sharding.__all__) == PUBLIC_NAMES
    imported = names_imported_from_the_package()
    assert {"ShardedPDP", "ProcessShardPool", "shard_of"} <= imported  # scan works
    for name in imported | PUBLIC_NAMES:
        assert hasattr(sharding, name), name


def test_each_public_class_is_defined_in_exactly_one_submodule():
    defined = {}
    for module_name in ORDER:
        tree = ast.parse((PACKAGE_DIR / f"{module_name}.py").read_text())
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defined.setdefault(node.name, []).append(module_name)
    for name in PUBLIC_NAMES:
        member = getattr(sharding, name)
        if inspect.isclass(member):
            assert len(defined[name]) == 1, (name, defined[name])
            assert member.__module__ == f"{PACKAGE}.{defined[name][0]}"


# -- (b) import direction ------------------------------------------------------------

@pytest.mark.parametrize("position", range(len(ORDER)))
def test_a_module_imports_only_the_modules_before_it(position):
    module_name = ORDER[position]
    importlib.import_module(f"{PACKAGE}.{module_name}")
    allowed = set(ORDER[:position])
    assert sibling_imports(module_name) <= allowed, module_name


def test_only_the_package_init_imports_pool():
    for module_name in ORDER[:-1]:
        assert "pool" not in sibling_imports(module_name)
    assert sibling_imports("partition") == set()


# -- (c) option census ---------------------------------------------------------------

def test_deleted_options_stay_deleted():
    deleted = {"scatter_cache_size", "start_method", "batch_size", "n_shards", "partitioner"}
    for cls in (ShardedPDP, ProcessShardPool):
        parameters = inspect.signature(cls).parameters
        assert not deleted & set(parameters), cls
        assert parameters["store"].default is inspect.Parameter.empty
    assert list(inspect.signature(ScatterEvaluator).parameters) == [
        "store", "combining", "cache_size",
    ]
    assert not hasattr(ScatterEvaluator(ShardedPolicyStore(2), "first-applicable", 0), "enabled")
    assert ProcessShardPool.BATCH_SIZE == 256
    assert list(inspect.signature(ProcessShardPool).parameters) == [
        "store", "combining", "cache_size", "on_unavailable", "fault_injector",
    ]
    assert (ProcessShardPool.MAX_RESTARTS, ProcessShardPool.RESTART_WINDOW) == (5, 60.0)
    assert (ProcessShardPool.RESTART_BACKOFF, ProcessShardPool.RESTART_BACKOFF_CAP) == (0.05, 2.0)
    assert list(inspect.signature(ShardedPolicyStore).parameters) == ["n_shards"]
    for cls in (XacmlPlusInstance, DataServer):
        assert "pdp_partitioner" not in inspect.signature(cls).parameters, cls


def test_one_placement_remains():
    partition = importlib.import_module(f"{PACKAGE}.partition")
    functions = {name for name, member in vars(partition).items()
                 if inspect.isfunction(member) and member.__module__ == partition.__name__}
    assert functions == {"shard_of", "shards_for_policy", "shards_for_request"}
    assert not any(inspect.isclass(member) and member.__module__ == partition.__name__
                   for member in vars(partition).values())
    for module in (sharding, xacml):
        assert not DELETED_NAMES & set(module.__all__), module
        assert not any(hasattr(module, name) for name in DELETED_NAMES), module
    assert not hasattr(ShardedPolicyStore(2), "partitioner")
    assert "partitioner" not in ShardedPolicyStore(2).stats()


def test_one_way_out_of_service():
    """The pool-wide pending table, its lock, the per-thread driver ids
    and the hand-written death paths are gone; one method of ``pool.py``
    marks a shard ``down``."""
    tree = ast.parse((PACKAGE_DIR / "pool.py").read_text())
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    gone = {"drivers", "_pending", "_pending_lock", "_local", "_driver_tag", "_driver_ids",
            "_closed", "_on_worker_death", "_fail_pending", "_fail_shard_pending"}
    assert not gone & names
    marks_down = {
        function.name
        for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function) if isinstance(node, ast.Assign)
        if isinstance(node.value, ast.Constant) and node.value.value == "down"
        and any(isinstance(target, ast.Attribute) and target.attr == "status"
                for target in node.targets)
    }
    assert marks_down == {"_retire"}


def test_routing_core_is_written_once():
    (router,) = ShardedPDP.__bases__
    assert ProcessShardPool.__bases__ == (router,)
    for shared in ("evaluate", "evaluate_many", "flush_caches", "evaluations",
                   "n_shards", "_aggregate_cache_stats"):
        assert shared in vars(router), shared
        assert shared not in vars(ShardedPDP), shared
        assert shared not in vars(ProcessShardPool), shared


# -- (d) one monitoring shape ------------------------------------------------------


def test_cache_stats_shapes_differ_by_exactly_the_robustness_keys():
    store = ShardedPolicyStore(4)
    rules = [Rule("p:r", Effect.PERMIT)]
    store.load(Policy("p", target=Target.for_ids(resource="weather0"), rules=rules))
    with ProcessShardPool(store) as pool:
        pool_keys = set(pool.cache_stats())
    pdp_keys = set(ShardedPDP(store, cache_size=16).cache_stats())
    assert pdp_keys < pool_keys
    assert pool_keys - pdp_keys == ROBUSTNESS_KEYS
