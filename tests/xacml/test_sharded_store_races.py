"""`ShardedPolicyStore` mutations racing on one policy id.

The membership check of `load` / `update` / `remove` must happen under
the mutation lock: two drivers racing on one id are serialised, and the
loser gets the typed `PolicyStoreError` — never a bare `KeyError` out
of the bookkeeping dicts, and a losing `load` never burns a global
sequence number.

Deterministic, no sleeps as synchronisation: the winner is parked
*inside* its mutation (a blocking hook on the shard store it touches),
and the loser is known to have reached the mutation lock because the
lock is wrapped to signal contention.
"""

import threading

from repro.errors import PolicyStoreError
from repro.xacml.policy import Policy, Rule, Target
from repro.xacml.response import Effect
from repro.xacml.sharding import ShardedPolicyStore, shard_of

TIMEOUT = 10.0
SUBJECT = "alice"


def policy(policy_id, effect=Effect.PERMIT):
    return Policy(
        policy_id,
        target=Target.for_ids(subject=SUBJECT),
        rules=[Rule(f"{policy_id}:r", effect)],
    )


class _ContentionSignallingLock:
    """The store's mutation lock, announcing a second acquirer."""

    def __init__(self):
        self._inner = threading.Lock()
        self.contended = threading.Event()

    def __enter__(self):
        if not self._inner.acquire(blocking=False):
            self.contended.set()
            assert self._inner.acquire(timeout=TIMEOUT), "mutation lock never freed"

    def __exit__(self, *exc_info):
        self._inner.release()


def race(store, shard_method, winner, loser):
    """Run *winner* parked inside ``store.shards[shard].<shard_method>``
    until *loser* is waiting on the mutation lock; return both outcomes
    as ``(value, exception)`` pairs."""
    lock = store._mutation_lock = _ContentionSignallingLock()
    shard_id = shard_of(SUBJECT, store.n_shards)
    shard = store.shards[shard_id]
    original = getattr(shard, shard_method)
    entered, release = threading.Event(), threading.Event()

    def parked(*args, **kwargs):
        entered.set()
        assert release.wait(TIMEOUT), "winner was never released"
        return original(*args, **kwargs)

    setattr(shard, shard_method, parked)
    outcomes = {}

    def run(name, action):
        try:
            outcomes[name] = (action(), None)
        except Exception as error:  # the assertion below names the type
            outcomes[name] = (None, error)

    first = threading.Thread(target=run, args=("winner", winner))
    second = threading.Thread(target=run, args=("loser", loser))
    first.start()
    assert entered.wait(TIMEOUT), "winner never reached its shard store"
    setattr(shard, shard_method, original)
    second.start()
    assert lock.contended.wait(TIMEOUT), "loser never reached the mutation lock"
    release.set()
    for thread in (first, second):
        thread.join(TIMEOUT)
        assert not thread.is_alive()
    return outcomes["winner"], outcomes["loser"]


def loaded_store():
    store = ShardedPolicyStore(2)
    store.load(policy("p"))
    return store


def test_remove_racing_remove_loses_with_the_typed_error():
    store = loaded_store()
    (removed, error), (_, lost) = race(
        store, "remove", lambda: store.remove("p"), lambda: store.remove("p")
    )
    assert error is None and removed.policy_id == "p"
    assert isinstance(lost, PolicyStoreError), repr(lost)
    assert "p" not in store and len(store) == 0


def test_update_racing_remove_loses_with_the_typed_error():
    store = loaded_store()
    (_, error), (_, lost) = race(
        store,
        "remove",
        lambda: store.remove("p"),
        lambda: store.update(policy("p", Effect.DENY)),
    )
    assert error is None
    assert isinstance(lost, PolicyStoreError), repr(lost)
    assert "p" not in store
    assert store.stats()["per_shard"] == [0, 0]


def test_load_racing_load_does_not_burn_a_sequence_number():
    store = ShardedPolicyStore(2)
    (_, error), (_, lost) = race(
        store, "load", lambda: store.load(policy("p")), lambda: store.load(policy("p"))
    )
    assert error is None
    assert isinstance(lost, PolicyStoreError), repr(lost)
    store.load(policy("q"))
    assert (store.sequence_of("p"), store.sequence_of("q")) == (0, 1)
