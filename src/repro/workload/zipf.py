"""Zipf-distributed request sequences (Figure 6(b)'s workload).

"The sequence follows Zipf distribution, which models the scenario where
a small number of popular streams are requested frequently" — with the
paper's parameters α = 0.223 and maxRank = 300 (Table 3).
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")

#: Table 3 values.
DEFAULT_ALPHA = 0.223
DEFAULT_MAX_RANK = 300


class ZipfSampler:
    """Incremental Zipf(rank) sampling: P(rank r) ∝ (r+1)^-alpha.

    The one ``rank^-α`` table: :func:`zipf_ranks` materializes whole
    sequences through it, :mod:`repro.loadgen.mix` draws once per
    arrival — the caller's rng supplies the randomness.
    """

    def __init__(self, population: int, alpha: float):
        if population <= 0:
            raise ValueError("Zipf population (max rank) must be positive")
        weights = [rank ** (-alpha) for rank in range(1, population + 1)]
        self._cumulative = list(itertools.accumulate(weights))
        self._total = self._cumulative[-1]

    def sample(self, rng: random.Random) -> int:
        """A 0-based rank (0 = most popular)."""
        point = rng.random() * self._total
        return bisect.bisect_left(self._cumulative, point)


def zipf_ranks(
    length: int,
    alpha: float = DEFAULT_ALPHA,
    max_rank: int = DEFAULT_MAX_RANK,
    seed: int = 42,
) -> List[int]:
    """Sample *length* ranks in ``[1, max_rank]`` with P(r) ∝ r^-α."""
    sampler = ZipfSampler(max_rank, alpha)
    rng = random.Random(seed)
    return [sampler.sample(rng) + 1 for _ in range(length)]


def zipf_sequence(
    population: Sequence[T],
    length: int,
    alpha: float = DEFAULT_ALPHA,
    max_rank: int = DEFAULT_MAX_RANK,
    seed: int = 42,
) -> List[T]:
    """A length-*length* sequence over the first *max_rank* items of
    *population*, rank 1 being ``population[0]``.

    Raises when the population holds fewer than *max_rank* items so a
    mis-sized workload fails loudly instead of silently re-weighting.
    """
    if len(population) < max_rank:
        raise ValueError(
            f"population has {len(population)} items but max_rank={max_rank}"
        )
    return [
        population[rank - 1]
        for rank in zipf_ranks(length, alpha, max_rank, seed)
    ]
