"""Security demo (Section 3.4) — the reconstruction attack and its cost.

Regenerates the paper's Example 2 as a measurable experiment: how much
of the raw stream leaks through concurrent sum windows, how cheap the
attack arithmetic is, and that the single-access guard stops it with
negligible request-path overhead.
"""

from benchmarks.harness import best_of, print_header
from repro.core.attack import MultiWindowAttack, reconstruct_from_windows
from repro.core.user_query import UserQuery
from repro.errors import ConcurrentAccessError
from repro.streams.operators import WindowSpec, WindowType
from repro.xacml.request import Request


def test_attack_recovers_stream(benchmark):
    def run_attack():
        victim = MultiWindowAttack.build_victim_instance(
            enforce_single_access=False, base_size=3, step=2
        )
        attack = MultiWindowAttack(victim, base_size=3, step=2)
        return attack.run(list(range(200)))

    recovered = benchmark.pedantic(run_attack, rounds=1, iterations=1)

    values = list(range(200))
    exact = sum(1 for i, v in recovered.items() if values[i] == v)
    print_header("Section 3.4 — multi-window reconstruction attack")
    print(f"  policy exposes  : sum windows (size 3, step 2) only")
    print(f"  attacker holds  : 3 concurrent windows (sizes 3, 4, 5)")
    print(f"  stream length   : {len(values)} tuples")
    print(f"  recovered       : {len(recovered)} tuples "
          f"({exact} exact, from a3 onward)")
    assert exact == len(recovered)
    assert len(recovered) >= len(values) - 10


def test_reconstruction_arithmetic_cost(benchmark):
    values = list(range(5_000))
    streams = []
    step = 2
    for size in (3, 4, 5):
        sums = []
        k = 0
        while k * step + size <= len(values):
            sums.append(sum(values[k * step: k * step + size]))
            k += 1
        streams.append(sums)
    recovered = benchmark(lambda: reconstruct_from_windows(streams, 3, step))
    assert len(recovered) >= 4_900


def test_guard_blocks_and_costs_little(benchmark):
    print_header("Section 3.4 — single-access guard")
    guarded = MultiWindowAttack.build_victim_instance(enforce_single_access=True)
    attack = MultiWindowAttack(guarded)

    def run_blocked_attack():
        try:
            attack.run(list(range(50)))
            return False
        except ConcurrentAccessError:
            return True

    blocked = benchmark.pedantic(run_blocked_attack, rounds=1, iterations=1)
    print(f"  attack blocked : {blocked}")
    assert blocked

    # Overhead of the registry check on the request path: compare a
    # single request with enforcement on vs off.
    query = UserQuery(
        "s", window=WindowSpec(WindowType.TUPLE, 3, 2), aggregations=["a:sum"]
    )

    def one_request(enforce):
        def make():
            victim = MultiWindowAttack.build_victim_instance(enforce)
            return lambda: victim.request_stream(Request.simple("attacker", "s"), query)

        return best_of(20, make)

    with_guard = one_request(True)
    without_guard = one_request(False)
    print(f"  request path with guard   : {with_guard * 1000:.2f} ms")
    print(f"  request path without guard: {without_guard * 1000:.2f} ms")
    assert with_guard < without_guard * 3 + 0.01
