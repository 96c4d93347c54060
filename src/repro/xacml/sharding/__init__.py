"""Sharded policy store and PDP with coherent cross-shard invalidation.

One XACML+ instance evaluates requests as fast as the hardware allows
(indexed candidate selection, decision caching); scaling past one
instance means partitioning the policy population so independent
instances each own a slice of the decision work.  This package provides
the partitioned analogues of :class:`~repro.xacml.store.PolicyStore` and
:class:`~repro.xacml.pdp.PolicyDecisionPoint` — the unsharded pair
survives unchanged as the reference mode for differential testing
(``PolicyDecisionPoint.reference()`` over a single store;
``tests/properties/test_xacml_equivalence.py`` pins the two
bit-identical).

One concern per module, each importing only the ones before it —
``partition`` ← ``store`` ← ``scatter`` ← ``pdp`` ← ``pool``, pinned by
``tests/xacml/test_sharding_layout.py`` — and each module's docstring
carries the argument for its own concern.
"""

from repro.xacml.sharding.partition import shard_of
from repro.xacml.sharding.store import (
    InvalidationBus,
    ShardedPolicyStore,
    ShardListener,
)
from repro.xacml.sharding.scatter import ScatterEvaluator
from repro.xacml.sharding.pdp import ShardedPDP
from repro.xacml.sharding.pool import ProcessShardPool

__all__ = [
    "InvalidationBus",
    "ProcessShardPool",
    "ScatterEvaluator",
    "ShardListener",
    "ShardedPDP",
    "ShardedPolicyStore",
    "shard_of",
]
