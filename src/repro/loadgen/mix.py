"""Seeded op-mix generation: the workload half of the harness.

Each (worker, connection) pair owns one :class:`OpMixStream` — a
deterministic generator of wire ops driven by a single
``random.Random`` seeded arithmetically from ``(seed, worker_id,
connection_id)`` (never from string hashing, which varies per
interpreter run).  Same seed → byte-identical op sequence, the
property the whole harness's reproducibility claim rests on
(``tests/loadgen/test_mix.py`` pins it).

The mix is pyrqg-style: a categorical distribution over op kinds
(evaluate / ingest / policy load-update-revoke churn) with
Zipf-distributed evaluate keys — a small number of popular
(stream, subject) pairs absorb most of the traffic, the paper's
Figure 6(b) skew.  Churn policies live in a namespace private to the
generating connection, so concurrent connections never race on each
other's policy ids and the served run stays decision-deterministic
per connection.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import List, Tuple

from repro.core import stream_policy
from repro.loadgen.config import LoadgenConfig
from repro.serving.wire import (
    EvaluateOp,
    IngestOp,
    LoadOp,
    RevokeOp,
    UpdateOp,
)
from repro.streams.graph import QueryGraph
from repro.streams.operators import FilterOperator
from repro.workload.zipf import ZipfSampler
from repro.xacml.request import Request
from repro.xacml.xml_io import policy_to_xml, request_to_xml

#: Input streams are named ``lg0..lg{N-1}`` (registered by the
#: self-serve builder in ``driver.py`` over the weather schema).
STREAM_PREFIX = "lg"


def stream_name(index: int) -> str:
    return f"{STREAM_PREFIX}{index}"


def subject_name(stream_index: int, subject_index: int) -> str:
    return f"user{stream_index}:{subject_index}"


def derive_seed(*parts: int) -> int:
    """Mix integer parts into one 64-bit seed, splitmix64-style.

    Deliberately arithmetic: tuple/str ``hash()`` is salted per
    process, which would silently break cross-run reproducibility.
    """
    value = 0x9E3779B97F4A7C15
    for part in parts:
        value = (value ^ (part & 0xFFFFFFFFFFFFFFFF)) & 0xFFFFFFFFFFFFFFFF
        value = (value * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        value ^= value >> 27
    return value


def churn_graph(stream: str, threshold: int) -> QueryGraph:
    return QueryGraph(stream).append(FilterOperator(f"rainrate > {threshold}"))


class OpMixStream:
    """Deterministic per-connection op generator."""

    def __init__(self, config: LoadgenConfig, worker_id: int, connection_id: int):
        self.config = config
        self.worker_id = worker_id
        self.connection_id = connection_id
        self._rng = random.Random(
            derive_seed(config.seed, worker_id, connection_id)
        )
        self._mix = config.mix.normalized()
        self._mix_cumulative = list(
            itertools.accumulate(weight for _, weight in self._mix)
        )
        population = config.streams * config.subjects_per_stream
        #: Popularity rank r → (stream, subject), interleaved across
        #: streams so the hot set spans every stream.
        self._population: List[Tuple[int, int]] = [
            (rank % config.streams, rank // config.streams)
            for rank in range(population)
        ]
        self._zipf = ZipfSampler(population, config.zipf_alpha)
        #: Policy ids this connection has loaded and not yet revoked.
        self._live_policies: List[str] = []
        self._churn_sequence = 0

    # -- op builders -------------------------------------------------------------

    def _pick_kind(self) -> str:
        point = self._rng.random()
        index = bisect.bisect_left(self._mix_cumulative, point)
        return self._mix[min(index, len(self._mix) - 1)][0]

    def _evaluate(self) -> EvaluateOp:
        rng = self._rng
        if rng.random() < self.config.stranger_fraction:
            stream_index = rng.randrange(self.config.streams)
            subject = f"stranger{rng.randrange(10_000)}"
        else:
            stream_index, subject_index = self._population[self._zipf.sample(rng)]
            subject = subject_name(stream_index, subject_index)
        return EvaluateOp(
            request_to_xml(Request.simple(subject, stream_name(stream_index))),
            None,
            self.config.decide_only,
        )

    def _ingest(self) -> IngestOp:
        rng = self._rng
        records = [
            {
                "samplingtime": i,
                "temperature": round(rng.uniform(18, 36), 3),
                "humidity": round(rng.uniform(30, 100), 3),
                "solarradiation": round(rng.uniform(0, 900), 3),
                "rainrate": round(rng.uniform(0, 12), 3),
                "windspeed": round(rng.uniform(0, 25), 3),
                "winddirection": rng.randrange(360),
                "barometer": round(rng.uniform(985, 1035), 3),
            }
            for i in range(self.config.ingest_batch)
        ]
        return IngestOp(stream_name(rng.randrange(self.config.streams)), records)

    def _churn_policy_xml(self, policy_id: str) -> str:
        stream = stream_name(self.connection_id % self.config.streams)
        return policy_to_xml(
            stream_policy(
                policy_id,
                stream,
                churn_graph(stream, self._rng.randint(1, 9)),
                subject=f"churn:{self.worker_id}:{self.connection_id}",
            )
        )

    def _load(self) -> LoadOp:
        policy_id = (
            f"churn:{self.worker_id}:{self.connection_id}:{self._churn_sequence}"
        )
        self._churn_sequence += 1
        self._live_policies.append(policy_id)
        return LoadOp(self._churn_policy_xml(policy_id))

    def _update(self) -> UpdateOp:
        return UpdateOp(self._churn_policy_xml(self._rng.choice(self._live_policies)))

    def _revoke(self) -> RevokeOp:
        return RevokeOp(
            self._live_policies.pop(self._rng.randrange(len(self._live_policies)))
        )

    # -- the generator -----------------------------------------------------------

    def next_op(self):
        kind = self._pick_kind()
        if kind == "evaluate":
            return self._evaluate()
        if kind == "ingest":
            return self._ingest()
        # Update/revoke before anything is live degrade to a load, so
        # the churn namespace is self-priming.
        if kind == "load" or not self._live_policies:
            return self._load()
        if kind == "update":
            return self._update()
        return self._revoke()

    def take(self, count: int) -> List[object]:
        """The next *count* ops (test/inspection convenience)."""
        return [self.next_op() for _ in range(count)]


def op_kind(op) -> str:
    """Stable per-op label — matches the server-side recorder's rows."""
    return type(op).__name__
