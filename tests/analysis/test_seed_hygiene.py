"""Seed-hygiene lint: global randomness and salted hashing."""

from __future__ import annotations

import textwrap

from repro.analysis import analyze_source
from repro.analysis.rules import SeedHygieneRule


def findings_for(source):
    return analyze_source(textwrap.dedent(source), [SeedHygieneRule()])


class TestGlobalRandom:
    def test_module_level_sampler_is_flagged(self):
        findings = findings_for(
            """
            import random

            def jitter():
                return random.random()
            """
        )
        assert len(findings) == 1
        assert findings[0].rule == "seed-random"

    def test_aliased_import_is_tracked(self):
        findings = findings_for(
            """
            import random as rnd

            def pick(items):
                return rnd.choice(items)
            """
        )
        assert len(findings) == 1

    def test_unseeded_random_instance_is_flagged(self):
        findings = findings_for(
            """
            import random

            rng = random.Random()
            """
        )
        assert len(findings) == 1
        assert "without a seed" in findings[0].message

    def test_seeded_random_instance_passes(self):
        assert not findings_for(
            """
            import random

            rng = random.Random(42)
            """
        )

    def test_instance_method_calls_pass(self):
        # rng.random() draws from an owned, seeded generator
        assert not findings_for(
            """
            import random

            def sample(rng: random.Random):
                return rng.random()
            """
        )

    def test_global_seed_call_is_flagged(self):
        # random.seed() mutates shared global state other modules read
        findings = findings_for(
            """
            import random

            random.seed(42)
            """
        )
        assert len(findings) == 1


class TestHashing:
    def test_builtin_hash_is_flagged(self):
        findings = findings_for(
            """
            def seed_for(connection_id):
                return hash(("seed", connection_id))
            """
        )
        assert len(findings) == 1
        assert findings[0].rule == "seed-hash"
        assert "PYTHONHASHSEED" in findings[0].message

    def test_explicit_dunder_hash_is_flagged(self):
        # the exact pattern once used to seed per-connection scripts
        findings = findings_for(
            """
            import random

            def make_rng(seed, connection_id):
                return random.Random((seed, connection_id).__hash__())
            """
        )
        assert len(findings) == 1
        assert findings[0].rule == "seed-hash"

    def test_hash_inside_dunder_hash_method_passes(self):
        assert not findings_for(
            """
            class Point:
                def __init__(self, x, y):
                    self.x = x
                    self.y = y

                def __hash__(self):
                    return hash((self.x, self.y))
            """
        )

    def test_suppression_with_reason_is_honoured(self):
        findings = findings_for(
            """
            def bucket(key, n):
                return hash(key) % n  # analysis: allow[seed-hash] in-process dict bucketing only
            """
        )
        assert findings and all(f.suppressed for f in findings)
