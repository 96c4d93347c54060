"""The policy store: loaded policies, keyed by policy id.

The data server "keeps track of policies loaded" (paper Section 3.3);
removal and update are first-class operations because they trigger
revocation of spawned query graphs.  The store supports change listeners
so the query-graph manager can react to policy removal/modification.

The store also maintains a :class:`~repro.xacml.index.PolicyIndex` over
the loaded targets, kept coherent through the same change-listener
mechanism (the store registers its own listener first, so the index is
already consistent when external listeners — cache invalidation, graph
revocation — observe an event).  :meth:`policies_for` uses it to return
only the plausibly applicable policies for a request, in load order.

The sharded evaluators (:mod:`repro.xacml.sharding`) compose N of these
stores behind one facade; the single store remains the reference mode
its differential harness compares against, which is why :meth:`load`
accepts an explicit sequence pin.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.errors import PolicyStoreError
from repro.xacml.policy import Policy

if TYPE_CHECKING:
    from repro.xacml.request import Request

#: Signature of change listeners: (event, policy) with event in
#: {"loaded", "removed", "updated"}.
ChangeListener = Callable[[str, Policy], None]


class PolicyStore:
    """An in-memory, observable collection of policies."""

    def __init__(self):
        from repro.xacml.index import PolicyIndex

        self._policies: Dict[str, Policy] = {}
        self._listeners: List[ChangeListener] = []
        self._index = PolicyIndex()
        #: policy id → load sequence number; updates keep the original
        #: position, matching dict insertion-order semantics.
        self._sequence: Dict[str, int] = {}
        self._next_sequence = 0
        self.add_listener(self._maintain_index)

    def add_listener(self, listener: ChangeListener) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener: ChangeListener) -> None:
        """Unregister a listener; unknown listeners are ignored."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _maintain_index(self, event: str, policy: Policy) -> None:
        if event == "loaded":
            self._index.add(policy)
        elif event == "updated":
            self._index.replace(policy)
        elif event == "removed":
            self._sequence.pop(policy.policy_id, None)
            self._index.discard(policy.policy_id)

    def _notify(self, event: str, policy: Policy) -> None:
        for listener in list(self._listeners):
            listener(event, policy)

    def load(self, policy: Policy, sequence: Optional[int] = None) -> None:
        """Load a new policy; duplicate ids are rejected (use update).

        *sequence* pins the policy's evaluation-order position instead of
        appending it.  A sharded store uses this so a policy whose
        new version migrates it onto a different shard keeps its global
        load-order position there (``update`` preserves position in a
        single store, and the shard-local candidate order must stay a
        subsequence of the global one for decision equivalence).
        """
        if policy.policy_id in self._policies:
            raise PolicyStoreError(f"policy {policy.policy_id!r} is already loaded")
        self._policies[policy.policy_id] = policy
        if sequence is None:
            sequence = self._next_sequence
        self._sequence[policy.policy_id] = sequence
        self._next_sequence = max(self._next_sequence, sequence + 1)
        self._notify("loaded", policy)

    def update(self, policy: Policy) -> None:
        """Replace a loaded policy with a new version.

        Section 3.3: modifying a policy immediately withdraws every query
        graph spawned from it — listeners implement that reaction.
        """
        if policy.policy_id not in self._policies:
            raise PolicyStoreError(f"policy {policy.policy_id!r} is not loaded")
        self._policies[policy.policy_id] = policy
        self._notify("updated", policy)

    def remove(self, policy_id: str) -> Policy:
        if policy_id not in self._policies:
            raise PolicyStoreError(f"policy {policy_id!r} is not loaded")
        policy = self._policies.pop(policy_id)
        self._notify("removed", policy)
        return policy

    def get(self, policy_id: str) -> Optional[Policy]:
        return self._policies.get(policy_id)

    def policies(self) -> List[Policy]:
        """All loaded policies, in load order."""
        return list(self._policies.values())

    def policies_for(self, request: "Request") -> List[Policy]:
        """The policies whose target could match *request*, in load order.

        A sound over-approximation of the applicable set (see
        :mod:`repro.xacml.index`): evaluating only these candidates with
        any combining algorithm that ignores NotApplicable policies gives
        exactly the decision of evaluating :meth:`policies`.
        """
        candidates = self._index.candidate_ids(request)
        if not candidates:
            return []
        sequence = self._sequence
        policies = self._policies
        return [
            policies[policy_id]
            for policy_id in sorted(candidates, key=sequence.__getitem__)
        ]

    @property
    def index(self):
        """The live target index (read-only use: stats, tests)."""
        return self._index

    def __contains__(self, policy_id: str) -> bool:
        return policy_id in self._policies

    def __len__(self) -> int:
        return len(self._policies)
