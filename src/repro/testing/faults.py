"""Fault-injection harness for the robustness layer.

A :class:`~repro.xacml.sharding.ProcessShardPool` accepts a
``fault_injector`` whose hooks fire on the pool's two traffic planes:

``on_command(pool, shard_id, op)``
    Called for every command submitted to a shard worker (evaluate
    batches, mirrored mutations, catch-up replay, stats/flush) —
    *before* the command is shipped.  :class:`WorkerKiller` uses it to
    terminate a worker after its K-th command, deterministically
    placing a crash mid-traffic.

``on_mirror(pool, shard_id, op) -> Optional[str]``
    Called when a shard-level store mutation is about to be mirrored
    into its live worker.  Returning ``"drop"`` suppresses the mirror —
    the pool retires that worker before the mutation returns (a replica
    that missed a mutation is unknowable), so a dropped invalidation
    ack converts into a supervised rebuild instead of silent staleness.
    :class:`MirrorChaos` drops and/or delays acks this way.

The wire-level faults are plain helpers: :func:`garble_payload`
corrupts a frame payload (keeping the frame intact, so it exercises
payload containment, not connection teardown) and
:func:`stalled_pipeline` drives a client that ships a whole batch and
then stops reading — the backpressure-under-stall shape.

Everything here is deterministic given its inputs (seeded RNGs,
explicit schedules), so a chaos run that fails is replayable from its
printed seed.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple, Union


class FaultInjector:
    """No-op base injector; subclass and override the hooks you need."""

    def on_command(self, pool, shard_id: int, op: str) -> None:
        """A command is about to ship to *shard_id*'s worker."""

    def on_mirror(self, pool, shard_id: int, op: str) -> Optional[str]:
        """A mutation is about to mirror into *shard_id*'s live worker.
        Return ``"drop"`` to suppress it (the pool retires the worker)."""
        return None


class WorkerKiller(FaultInjector):
    """Kill shard workers at scheduled points in the command stream.

    *schedule* maps ``shard_id`` to the 1-based command counts at which
    that shard's worker is terminated — an ``int`` for a single kill, a
    list for repeated kills (each against whatever generation is then
    live, so a respawned worker can be killed again).  Counts are per
    shard and include every command kind, which makes placement
    deterministic for a serial driver and merely *bounded* for
    concurrent ones — either way the differential property must hold.
    """

    def __init__(self, schedule: Dict[int, Union[int, Iterable[int]]]):
        self._lock = threading.Lock()
        self._due: Dict[int, List[int]] = {}
        for shard_id, counts in schedule.items():
            if isinstance(counts, int):
                counts = [counts]
            self._due[shard_id] = sorted(counts)
        self._counts: Dict[int, int] = {}
        #: Log of performed kills: ``(shard_id, command_count, op)``.
        self.kills: List[Tuple[int, int, str]] = []

    def on_command(self, pool, shard_id: int, op: str) -> None:
        kill = False
        with self._lock:
            count = self._counts.get(shard_id, 0) + 1
            self._counts[shard_id] = count
            due = self._due.get(shard_id)
            if due and count >= due[0]:
                due.pop(0)
                self.kills.append((shard_id, count, op))
                kill = True
        if kill:
            pool.kill_worker(
                shard_id,
                reason=f"fault injection: kill after command {count} ({op})",
            )


class MirrorChaos(FaultInjector):
    """Delay and/or drop mirrored invalidation acks.

    A *delay* stretches the synchronous mutation fan-out (mutation
    latency, never correctness — the ack still happens); a *drop*
    suppresses the mirror entirely, which the pool converts into a
    worker retirement + supervised rebuild.  Seeded, with an optional drop
    budget so a run cannot degrade every shard.
    """

    def __init__(
        self,
        seed: int = 0,
        drop_rate: float = 0.0,
        delay: float = 0.0,
        max_drops: Optional[int] = None,
    ):
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self.drop_rate = drop_rate
        self.delay = delay
        self.max_drops = max_drops
        self.delayed = 0
        self.dropped = 0

    def on_mirror(self, pool, shard_id: int, op: str) -> Optional[str]:
        if self.delay > 0:
            time.sleep(self.delay)
            with self._lock:
                self.delayed += 1
        if self.drop_rate <= 0:
            return None
        with self._lock:
            if self.max_drops is not None and self.dropped >= self.max_drops:
                return None
            if self._rng.random() >= self.drop_rate:
                return None
            self.dropped += 1
        return "drop"


def garble_payload(payload: bytes) -> bytes:
    """Corrupt a frame payload so it can never decode.

    The first byte becomes ``0xFF`` — invalid UTF-8, guaranteed
    undecodable — while the frame around it stays well-formed, so the
    server must answer an in-order ``ErrorReply`` (seq ``-1``) and keep
    the connection alive.  (Randomly flipping a byte could leave valid
    JSON with a *different meaning* — e.g. a changed seq digit — which
    tests protocol desync, not payload containment.)
    """
    if not payload:
        return b"\xff"
    return b"\xff" + payload[1:]


async def stalled_pipeline(client, ops, stall: float = 0.25):
    """Ship every op, stall the reader for *stall* seconds, then drain.

    While the reader sleeps, the server keeps executing and writing
    into a path nobody drains — engaging its write-buffer watermark and
    in-flight accounting.  Replies still come back complete and in
    order.  (Reaches into the client's raw send/read internals on
    purpose: the public ``pipeline`` never stalls between phases.)
    """
    seqs = [client.send_nowait(op) for op in ops]
    await client._writer.drain()
    await asyncio.sleep(stall)
    return [await client._read_reply(seq) for seq in seqs]
