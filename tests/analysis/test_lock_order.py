"""Lock-order detector: cycles and documented required edges."""

from __future__ import annotations

import textwrap

from repro.analysis import analyze_source
from repro.analysis.rules import LockOrderRule


def findings_for(source, required=None):
    rule = LockOrderRule(required if required is not None else {})
    return analyze_source(textwrap.dedent(source), [rule])


# The classic ABBA shape, in sharding-flavoured code: one path takes
# runtime.lock then _pending_lock, the other path the reverse.
ABBA = """
class Pool:
    def submit(self, runtime):
        with runtime.lock:
            with self._pending_lock:
                pass

    def cancel(self, runtime):
        with self._pending_lock:
            with runtime.lock:
                pass
"""


class TestCycles:
    def test_abba_cycle_is_detected(self):
        findings = findings_for(ABBA)
        assert len(findings) == 1
        assert findings[0].rule == "lock-order"
        assert "ABBA" in findings[0].message
        assert "lock" in findings[0].message
        assert "_pending_lock" in findings[0].message

    def test_consistent_order_passes(self):
        assert not findings_for(
            """
            class Pool:
                def submit(self, runtime):
                    with runtime.lock:
                        with self._pending_lock:
                            pass

                def other(self, runtime):
                    with runtime.lock:
                        with self._pending_lock:
                            pass
            """
        )

    def test_same_lock_nested_is_a_self_cycle(self):
        findings = findings_for(
            """
            def nested(a, b):
                with a.lock:
                    with b.lock:
                        pass
            """
        )
        assert len(findings) == 1  # `lock` -> `lock`: same identity re-acquired

    def test_three_way_cycle(self):
        findings = findings_for(
            """
            def one(x):
                with x.a_lock:
                    with x.b_lock:
                        pass

            def two(x):
                with x.b_lock:
                    with x.c_lock:
                        pass

            def three(x):
                with x.c_lock:
                    with x.a_lock:
                        pass
            """
        )
        assert len(findings) == 1
        assert "a_lock" in findings[0].message

    def test_sibling_with_blocks_do_not_create_edges(self):
        assert not findings_for(
            """
            def sequential(x):
                with x.a_lock:
                    pass
                with x.b_lock:
                    pass

            def reverse(x):
                with x.b_lock:
                    pass
                with x.a_lock:
                    pass
            """
        )

    def test_multi_item_with_orders_left_to_right(self):
        findings = findings_for(
            """
            def one(x):
                with x.a_lock, x.b_lock:
                    pass

            def two(x):
                with x.b_lock, x.a_lock:
                    pass
            """
        )
        assert len(findings) == 1

    def test_non_lock_contexts_are_ignored(self):
        assert not findings_for(
            """
            def io(path, x):
                with open(path) as handle:
                    with x.a_lock:
                        handle.read()
            """
        )

    def test_function_boundary_resets_held_locks(self):
        """KNOWN LIMITATION (lexical analysis): a lock held by a caller
        is invisible inside the callee, so interprocedural ABBA is not
        detected — that is what REQUIRED_EDGES documents instead."""
        findings = findings_for(
            """
            def outer(x):
                with x.a_lock:
                    inner(x)

            def inner(x):
                with x.b_lock:
                    with x.a_lock:  # ABBA only via the call chain
                        pass
            """
        )
        assert findings == []  # the lexical b->a edge alone is acyclic

    def test_lexical_nesting_in_callee_still_counts(self):
        # rewrite of the above with the reverse edge lexically present
        findings = findings_for(
            """
            def outer(x):
                with x.a_lock:
                    with x.b_lock:
                        pass

            def inner(x):
                with x.b_lock:
                    with x.a_lock:
                        pass
            """
        )
        assert len(findings) == 1


class TestRequiredEdges:
    REQUIRED = {"<fixture>.py": [("lock", "_pending_lock")]}

    def test_documented_edge_present_passes(self):
        findings = findings_for(
            """
            class Pool:
                def submit(self, runtime):
                    with runtime.lock:
                        with self._pending_lock:
                            pass
            """,
            required=self.REQUIRED,
        )
        assert findings == []

    def test_reversed_documented_edge_is_flagged(self):
        findings = findings_for(
            """
            class Pool:
                def submit(self, runtime):
                    with self._pending_lock:
                        with runtime.lock:
                            pass
            """,
            required=self.REQUIRED,
        )
        rules = [f.rule for f in findings]
        # the reverse edge violates the documented order AND the pair
        # of directions would be reported as missing the forward edge
        assert "lock-order-edge" in rules

    def test_missing_documented_edge_is_flagged(self):
        findings = findings_for(
            """
            class Pool:
                def submit(self, runtime):
                    with runtime.lock:
                        pass
            """,
            required=self.REQUIRED,
        )
        assert any(
            f.rule == "lock-order-edge" and "no longer appears" in f.message
            for f in findings
        )

    def test_default_required_edges_target_sharding(self):
        from repro.analysis.rules.lock_order import REQUIRED_EDGES

        assert REQUIRED_EDGES == {"pool.py": [("lock", "_counter_lock")]}
