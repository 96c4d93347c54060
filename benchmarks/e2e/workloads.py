"""Seeded inputs for the end-to-end benchmark: fixture, frames, oracle.

Everything the server and the load generator will see is made here,
from ``--seed`` and constants alone, before anything is timed:

- the shared fixture ``city1500`` — the six input streams of
  :class:`WorkloadGenerator` and 1,500 Table-3-composition policies as
  XML (Fig. 7b's size), plus, for the two ingest workloads, the 240
  full requests whose queries are registered at set-up; the city is
  one fixed data set, the seed draws the traffic over it;
- per connection ("lane"), a list of *prime* frames sent once and a
  *pool* of frames the generator cycles through.  Every pool is built
  so that the server's state at the end of a lap equals its state at
  the start: a closed loop may therefore wrap however fast the server
  becomes, and the pool sizes (hence the pinned digests) do not depend
  on how long a run measures;
- the expected reply of every frame, computed in-process: decisions
  by ``PolicyDecisionPoint.reference()`` (seed linear scan, no index,
  no cache) over the same policy objects, replayed serially per lane
  for the workloads that mutate policies; acks by construction.

All randomness is ``random.Random(derive_seed(seed, domain, lane))`` —
arithmetic mixing, never ``hash()`` — so one seed gives one byte-exact
traffic, which :func:`Workload.digest` pins.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import stream_policy
from repro.loadgen.mix import ZipfSampler, churn_graph, derive_seed
from repro.serving.wire import (
    HEADER_BYTES,
    AckReply,
    EvaluateOp,
    EvaluateReply,
    IngestOp,
    LoadOp,
    RevokeOp,
    UpdateOp,
    encode_message,
)
from repro.workload.generator import TABLE3, WorkloadGenerator, WorkloadItem
from repro.xacml.pdp import PolicyDecisionPoint
from repro.xacml.policy import Policy
from repro.xacml.request import Request
from repro.xacml.response import Decision
from repro.xacml.store import PolicyStore
from repro.xacml.xml_io import policy_to_xml, request_to_xml

#: One generator process, one thread, this many connections (= nproc).
LANES = 2

CITY_SEED = 2012             # the paper's year
N_POLICIES = 1500            # Fig. 7b
HOT_KEYS = TABLE3.zipf_max_rank          # 300 (Table 3)
ZIPF_ALPHA = TABLE3.zipf_alpha           # 0.223 (Table 3)
STRANGER_SHARE = 0.10
STRANGERS = 8                # distinct never-permitted subjects (each costs a full reference scan)
PREREGISTERED = 240          # queries registered at set-up (40 per stream)
RETAINED_TUPLES = 256        # tail every input and output stream of the server keeps

DECIDE_POOL = 8192           # frames per lane; >> hot keys, so Zipf is well sampled
GRANT_CYCLES = 320           # lifecycle cycles per lane and lap
GRANT_UPDATE_AGE = 100       # a policy's graphs are revoked by update at this age...
GRANT_REVOKE_AGE = 150       # ...and the policy itself removed at this one
GRANT_EVALUATES = 4
INGEST_POOL = 600            # batches per lane and lap
INGEST_BATCH = 25
MIXED_POOL = 8192
MIXED_BATCH = 5
#: evaluate / ingest / load / update / revoke.  The loadgen default is
#: 78/8/6/4/4; load and revoke are levelled to 5/5 so the churn
#: namespace neither grows nor drains and a lap can repeat.
MIXED_WEIGHTS = (("evaluate", 78), ("ingest", 8), ("load", 5), ("update", 4), ("revoke", 5))

#: Pool ops per lane answered before warm-up whose query outputs are
#: compared with ``StreamEngine.reference()`` (ingest workloads only).
VERIFY_OPS = {"ingest_fanout": 36, "mixed_churn": 600}

# Seed domains (integer tags; see derive_seed).
_DECIDE, _GRANT, _INGEST, _MIXED, _CITY = 1, 2, 3, 4, 5

_WEATHER_RANGES = {
    "temperature": (15.0, 38.0), "humidity": (20.0, 100.0),
    "solarradiation": (0.0, 1000.0), "rainrate": (0.0, 120.0),
    "windspeed": (0.0, 30.0), "barometer": (990.0, 1025.0),
}
_GPS_RANGES = {
    "latitude": (1.2, 1.5), "longitude": (103.6, 104.1),
    "altitude": (0.0, 80.0), "speed": (0.0, 35.0),
}


@dataclass
class Lane:
    """One connection's traffic: frames and the reply each must get."""

    prime: List[bytes] = field(default_factory=list)
    prime_expected: List[object] = field(default_factory=list)
    pool: List[bytes] = field(default_factory=list)
    pool_expected: List[object] = field(default_factory=list)
    #: (pool index, stream, records) of every ingest op in the pool.
    ingests: List[Tuple[int, str, List[dict]]] = field(default_factory=list)

    def add(self, op, expected, prime: bool = False) -> None:
        frames, replies = (
            (self.prime, self.prime_expected) if prime
            else (self.pool, self.pool_expected)
        )
        seq = len(frames)
        if isinstance(op, IngestOp) and not prime:
            self.ingests.append((seq, op.stream, op.records))
        frames.append(encode_message(seq, op))
        replies.append(expected)

    def frame(self, number: int) -> bytes:
        """The *number*-th frame this lane sends: prime, then laps."""
        if number < len(self.prime):
            return self.prime[number]
        return self.pool[(number - len(self.prime)) % len(self.pool)]

    def expected(self, number: int) -> Tuple[int, object]:
        """``(seq, reply)`` the *number*-th frame must be answered with."""
        if number < len(self.prime):
            return number, self.prime_expected[number]
        index = (number - len(self.prime)) % len(self.pool)
        return index, self.pool_expected[index]


@dataclass
class Workload:
    name: str
    why: str
    paced_rate: float           # arrivals per second in the open-loop phase
    fixture: Dict[str, object]  # everything serve.py is given
    lanes: List[Lane]
    #: The preregistered (policy, request, user query) items, for the
    #: reference-engine output check.
    registered: Sequence[WorkloadItem] = ()

    @property
    def verify_ops(self) -> int:
        return VERIFY_OPS.get(self.name, 0)

    def warm_ops(self, lane: Lane) -> int:
        """Pool ops of *lane* answered before anything is timed."""
        return max(len(lane.pool) // 4, self.verify_ops)

    def fixture_line(self) -> bytes:
        return json.dumps(self.fixture, sort_keys=True, separators=(",", ":")).encode()

    def digest(self) -> str:
        """sha256 over the fixture and every frame, in sending order."""
        sha = hashlib.sha256(self.fixture_line())
        for lane in self.lanes:
            for frame in itertools.chain(lane.prime, lane.pool):
                sha.update(frame)
        return sha.hexdigest()


# -- the shared fixture ---------------------------------------------------------------


class City:
    """``city1500``: streams, policies, and the decision oracle.

    The city is the data set and does not change: its policies and the
    queries registered at set-up come from :data:`CITY_SEED`.  *seed*
    draws the traffic over it — which pairs are hot and in what order,
    the strangers, the tuples, the op order, the lifecycle and churn
    policies.  (With the city drawn from *seed* too, the 240 registered
    queries — a map emits every tuple, an aggregate one in *step* —
    made an ``ingest_fanout`` batch cost 2,470 µs of CPU on one seed
    and 3,020 µs on the next, twice each: wider than any bound.)
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.generator = WorkloadGenerator(
            seed=CITY_SEED,
            parameters=TABLE3._replace(n_policies=N_POLICIES, n_requests=N_POLICIES),
        )
        self.items = self.generator.generate()
        self.stream_names = sorted(self.generator.streams)
        self._decisions: Dict[Tuple[str, str], EvaluateReply] = {}
        self._reference: Optional[PolicyDecisionPoint] = None
        self._request_xml: Dict[Tuple[str, str], str] = {}
        #: Zipf rank r -> the r-th hot permitted (subject, stream) pair.
        self.hot = random.Random(derive_seed(seed, _CITY, 0)).sample(
            [(item.request.subject_id, item.stream) for item in self.items], HOT_KEYS
        )
        self._zipf = ZipfSampler(HOT_KEYS, ZIPF_ALPHA)

    def preregistered(self) -> List[WorkloadItem]:
        """The first ``PREREGISTERED / 6`` items of every stream, in
        generation order: the same fan-out on each stream."""
        room = {name: PREREGISTERED // len(self.stream_names) for name in self.stream_names}
        chosen = []
        for item in self.items:
            if room[item.stream]:
                room[item.stream] -= 1
                chosen.append(item)
        return chosen

    def fixture(self, registered: Sequence[WorkloadItem] = ()) -> Dict[str, object]:
        return {
            "streams": {
                name: [[f.name, f.dtype.value] for f in schema]
                for name, schema in self.generator.streams.items()
            },
            "retained_tuples": RETAINED_TUPLES,
            "policies": [policy_to_xml(item.policy) for item in self.items],
            "preregister": [
                [request_to_xml(item.request),
                 item.user_query.to_xml() if item.user_query else None]
                for item in registered
            ],
        }

    def policies(self) -> List[Policy]:
        return [item.policy for item in self.items]

    def lane_streams(self, lane: int) -> List[str]:
        """Streams fed by *lane*: those with index = lane (mod LANES)."""
        return self.stream_names[lane::LANES]

    def request_xml(self, subject: str, stream: str) -> str:
        key = (subject, stream)
        xml = self._request_xml.get(key)
        if xml is None:
            xml = self._request_xml[key] = request_to_xml(Request.simple(subject, stream))
        return xml

    def hot_key(self, rng: random.Random) -> Tuple[str, str]:
        """Zipf over the 300 permitted pairs, 10% strangers."""
        if rng.random() < STRANGER_SHARE:
            return f"stranger{rng.randrange(STRANGERS)}", rng.choice(self.stream_names)
        return self.hot[self._zipf.sample(rng)]

    def decide_only(self, subject: str, stream: str) -> Tuple[EvaluateOp, EvaluateReply]:
        """A decide-only evaluate and its reference decision (memoised:
        only valid while no policy matching these subjects changes)."""
        key = (subject, stream)
        reply = self._decisions.get(key)
        if reply is None:
            if self._reference is None:
                store = PolicyStore()
                for policy in self.policies():
                    store.load(policy)
                self._reference = PolicyDecisionPoint.reference(store)
            reply = self._decisions[key] = decision_reply(
                self._reference, Request.simple(subject, stream)
            )
        return EvaluateOp(self.request_xml(subject, stream), None, True), reply


def decision_reply(pdp: PolicyDecisionPoint, request: Request) -> EvaluateReply:
    response = pdp.evaluate(request)
    return EvaluateReply(
        ok=response.decision is Decision.PERMIT,
        decision=response.decision.value,
        policy_id=response.policy_id,
    )


def _records(rng: random.Random, stream: str, count: int, clock: Dict[str, int]) -> List[dict]:
    """*count* schema-valid tuples, ``samplingtime`` rising per stream."""
    start = clock.get(stream, 0)
    clock[stream] = start + count
    records = []
    for offset in range(count):
        if stream.startswith("gps"):
            record = {"samplingtime": start + offset, "deviceid": f"dev{rng.randrange(8)}"}
            ranges, whole = _GPS_RANGES, "heading"
        else:
            record = {"samplingtime": start + offset}
            ranges, whole = _WEATHER_RANGES, "winddirection"
        for name, (low, high) in ranges.items():
            record[name] = round(rng.uniform(low, high), 3)
        record[whole] = rng.randrange(360)
        records.append(record)
    return records


# -- the four workloads ---------------------------------------------------------------


def decide_hot(city: City) -> Workload:
    seed = city.seed
    lanes = []
    for index in range(LANES):
        rng = random.Random(derive_seed(seed, _DECIDE, index))
        lane = Lane()
        for _ in range(DECIDE_POOL):
            lane.add(*city.decide_only(*city.hot_key(rng)))
        lanes.append(lane)
    return Workload(
        "decide_hot",
        "served hot path: cache-hit PDP, so frame/JSON/request-XML/queue/drain do the work",
        2000.0, city.fixture(), lanes,
    )


def grant_full(city: City) -> Workload:
    """Load -> 4 full evaluates -> update (age 100) -> revoke (age 150).

    Cycle *k* of a lane loads policy *k*, evaluates its subject four
    times, updates the policy loaded 100 cycles earlier (revoking its
    four graphs) and removes the one loaded 150 cycles earlier, so
    each lane holds 150 policies and 400 live queries throughout.
    Priming replays the last 150 cycles of a lap without their
    removals, which is exactly the state a lap ends in.
    """
    seed = city.seed
    lanes = []
    for index in range(LANES):
        items = WorkloadGenerator(
            seed=derive_seed(seed, _GRANT, index),
            parameters=TABLE3._replace(n_policies=GRANT_CYCLES, n_requests=GRANT_CYCLES),
        ).generate()
        subjects = [f"grantee:{index}:{k}" for k in range(GRANT_CYCLES)]
        policies = [
            stream_policy(f"grant:{index}:{k}", item.stream, item.graph,
                          subject=subjects[k], description=f"lifecycle ({item.shape})")
            for k, item in enumerate(items)
        ]
        updates = [
            stream_policy(policy.policy_id, item.stream, item.graph,
                          subject=subjects[k], description="updated")
            for k, (policy, item) in enumerate(zip(policies, items))
        ]
        outsider = city.decide_only(subjects[0], items[0].stream)[1]
        if outsider.ok:
            raise ValueError(f"city1500 grants {subjects[0]!r}: the lane oracle is unsound")
        store = PolicyStore()
        oracle = PolicyDecisionPoint.reference(store)
        lane = Lane()

        def cycle(k: int, prime: bool, first: int) -> None:
            item = items[k]
            store.load(policies[k])
            lane.add(LoadOp(policy_to_xml(policies[k])), AckReply("load"), prime)
            request = Request.simple(subjects[k], item.stream)
            evaluate = EvaluateOp(
                request_to_xml(request),
                item.user_query.to_xml() if item.user_query else None,
                False,
            )
            granted = decision_reply(oracle, request)
            for _ in range(GRANT_EVALUATES):
                lane.add(evaluate, granted, prime)
            stale = k - GRANT_UPDATE_AGE
            if stale >= first:
                stale %= GRANT_CYCLES
                store.update(updates[stale])
                lane.add(UpdateOp(policy_to_xml(updates[stale])), AckReply("update"), prime)
            dead = k - GRANT_REVOKE_AGE
            if dead >= first:
                dead %= GRANT_CYCLES
                store.remove(policies[dead].policy_id)
                lane.add(RevokeOp(policies[dead].policy_id),
                         AckReply("revoke", detail=policies[dead].policy_id), prime)

        first = GRANT_CYCLES - GRANT_REVOKE_AGE
        for k in range(first, GRANT_CYCLES):
            cycle(k, True, first)
        for k in range(GRANT_CYCLES):
            cycle(k, False, -GRANT_CYCLES)
        lanes.append(lane)
    return Workload(
        "grant_full",
        "the paper's whole workflow: obligations->graph, merge, StreamSQL, engine "
        "registration and revocation dominate; every load flushes the decision cache",
        250.0, city.fixture(), lanes,
    )


def ingest_fanout(city: City) -> Workload:
    seed = city.seed
    registered = city.preregistered()
    lanes = []
    for index in range(LANES):
        rng = random.Random(derive_seed(seed, _INGEST, index))
        streams = city.lane_streams(index)
        clock: Dict[str, int] = {}
        lane = Lane()
        for n in range(INGEST_POOL):
            stream = streams[n % len(streams)]
            lane.add(IngestOp(stream, _records(rng, stream, INGEST_BATCH, clock)),
                     AckReply("ingest", count=INGEST_BATCH))
        lanes.append(lane)
    return Workload(
        "ingest_fanout",
        "25-tuple batches over 240 registered queries: plan dispatch, compiled "
        "filters/maps and windows do the work, XACML none",
        80.0, city.fixture(registered), lanes, registered,
    )


def mixed_churn(city: City) -> Workload:
    seed = city.seed
    registered = city.preregistered()
    kinds = [kind for kind, _ in MIXED_WEIGHTS]
    weights = [weight for _, weight in MIXED_WEIGHTS]
    lanes = []
    for index in range(LANES):
        rng = random.Random(derive_seed(seed, _MIXED, index))
        streams = city.lane_streams(index)
        churn_stream = next(s for s in streams if s.startswith("weather"))
        clock: Dict[str, int] = {}
        live: List[str] = []
        serial = itertools.count()
        lane = Lane()

        def churn_xml(policy_id: str) -> str:
            # Subject never requested by an evaluate: decisions stay
            # those of city1500, only the cache and the index churn.
            return policy_to_xml(stream_policy(
                policy_id, churn_stream, churn_graph(churn_stream, rng.randint(1, 9)),
                subject=f"churn:{index}",
            ))

        def revoke() -> None:
            policy_id = live.pop(rng.randrange(len(live)))
            lane.add(RevokeOp(policy_id), AckReply("revoke", detail=policy_id))

        for kind in rng.choices(kinds, weights, k=MIXED_POOL):
            if kind == "evaluate":
                lane.add(*city.decide_only(*city.hot_key(rng)))
            elif kind == "ingest":
                stream = rng.choice(streams)
                lane.add(IngestOp(stream, _records(rng, stream, MIXED_BATCH, clock)),
                         AckReply("ingest", count=MIXED_BATCH))
            elif kind == "load" or not live:
                live.append(f"churn:{index}:{next(serial)}")
                lane.add(LoadOp(churn_xml(live[-1])), AckReply("load"))
            elif kind == "update":
                lane.add(UpdateOp(churn_xml(rng.choice(live))), AckReply("update"))
            else:
                revoke()
        while live:     # end the lap as it began: no churn policy loaded
            revoke()
        lanes.append(lane)
    return Workload(
        "mixed_churn",
        "writes beside reads: loads flush the decision cache and mutations maintain "
        "the index, so evaluates run cold; catches wins bought by dearer invalidation",
        1000.0, city.fixture(registered), lanes, registered,
    )


BUILDERS: Dict[str, Callable[[City], Workload]] = {
    "decide_hot": decide_hot,
    "grant_full": grant_full,
    "ingest_fanout": ingest_fanout,
    "mixed_churn": mixed_churn,
}


def build(name: str, city: City, fault: bool = False) -> Workload:
    """The named workload over *city*; *fault* plants two errors the
    oracle must catch (smoke test): one wrong expected decision and
    one mistyped ingest record, both just past the verified prefix."""
    workload = BUILDERS[name](city)
    if fault:
        _plant_faults(workload)
    return workload


def _plant_faults(workload: Workload) -> None:
    lane = workload.lanes[0]
    start = workload.verify_ops
    for index in range(start, len(lane.pool)):
        reply = lane.pool_expected[index]
        if isinstance(reply, EvaluateReply):
            lane.pool_expected[index] = EvaluateReply(
                ok=not reply.ok, decision=reply.decision, policy_id=reply.policy_id
            )
            break
    for index, stream, records in lane.ingests:
        if index >= start:
            broken = [dict(record) for record in records]
            broken[0]["samplingtime"] = "yesterday"
            lane.pool[index] = encode_message(index, IngestOp(stream, broken))
            break


def reply_payload(seq: int, reply) -> bytes:
    """The exact payload bytes a correct server answers with."""
    return encode_message(seq, reply)[HEADER_BYTES:]
