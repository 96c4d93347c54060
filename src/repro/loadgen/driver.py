"""The closed-loop load-generation driver.

Topology
    ``processes`` worker processes (spawned, so the parent's serving
    thread is never forked mid-flight), each running an asyncio loop
    with ``connections`` pipelined :class:`AsyncClient` connections.
    Workers stream per-op latency histogram deltas and counter deltas
    back to the parent over a multiprocessing queue; the parent folds
    them into one :class:`LatencyRecorder` and renders the live tables.
    Once the workers are done, the parent asks the server for its
    registry snapshot with a ``stats`` op — the report's ``server``
    section, self-served or ``--host``.

Pacing
    Open-loop arrivals, closed-loop admission.  Each connection owns a
    deterministic arrival schedule at ``target_qps / connections``
    (one tick every ``interval`` seconds); when a tick is due, every
    overdue arrival — capped at ``max_burst`` — is admitted as one
    pipelined batch, and the *next* batch is not admitted until the
    current one's replies are in.  A server that keeps up sees
    Poisson-ish paced traffic at the target rate; a server that falls
    behind is never buried under an unbounded backlog — the schedule
    lags instead, and the gap is exactly the reported
    achieved-vs-target attainment.

Accounting
    The leading ``warmup`` seconds are excluded from every sample and
    the achieved-QPS window.  Error replies are counted per kind;
    retryable errors on idempotent ops are resent (ahead of new
    arrivals, up to ``max_retries`` per op) and counted as retries;
    client deadline misses reconnect the connection and count as
    timeouts.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import queue as queue_module
import time
import traceback
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.core import stream_policy
from repro.errors import ClientTimeoutError, TransportError
from repro.framework.server import DataServer
from repro.loadgen.config import LoadgenConfig
from repro.loadgen.mix import OpMixStream, churn_graph, op_kind, stream_name, subject_name
from repro.loadgen.report import LiveReporter, build_report, write_report
from repro.serving.client import RETRYABLE_OPS, AsyncClient
from repro.serving.wire import ErrorReply, StatsOp, StatsReply
from repro.serving.server import AsyncDataServer
from repro.serving.stats import LatencyRecorder
from repro.streams.engine import StreamEngine
from repro.streams.schema import WEATHER_SCHEMA

#: Counter keys every worker reports (deltas on ticks, totals on done).
COUNTER_KEYS = ("issued", "completed", "retries", "timeouts", "reconnects")


def new_counters() -> Dict[str, object]:
    counters: Dict[str, object] = {key: 0 for key in COUNTER_KEYS}
    counters["errors"] = {}
    return counters


def merge_counters(into: Dict[str, object], delta: Dict[str, object]) -> None:
    for key in COUNTER_KEYS:
        into[key] += delta.get(key, 0)
    for kind, count in delta.get("errors", {}).items():
        into["errors"][kind] = into["errors"].get(kind, 0) + count


# -- self-serve target ----------------------------------------------------------------


def build_server(config: LoadgenConfig) -> DataServer:
    """A DataServer populated for the loadgen workload: ``streams``
    weather-schema input streams, one permissive policy per
    (stream, subject) pair of the Zipf population."""
    engine = StreamEngine()
    for index in range(config.streams):
        engine.register_input_stream(stream_name(index), WEATHER_SCHEMA)
    server = DataServer(
        engine=engine,
        enforce_single_access=False,
        allow_partial_results=True,
    )
    for index in range(config.streams):
        for j in range(config.subjects_per_stream):
            server.load_policy(
                stream_policy(
                    f"p:{index}:{j}",
                    stream_name(index),
                    churn_graph(stream_name(index), 5),
                    subject=subject_name(index, j),
                )
            )
    return server


class ServedInstance:
    """An :class:`AsyncDataServer` on a background thread's event loop.

    The harness's self-serve mode: the parent process owns the server
    while worker processes drive it over real loopback sockets.
    """

    def __init__(self, config: LoadgenConfig):
        self.config = config
        self.port: Optional[int] = None  # guarded by: owner
        self.error: Optional[BaseException] = None  # guarded by: owner
        self._ready = None  # guarded by: owner
        self._loop = None  # guarded by: owner
        self._stopped = None  # guarded by: owner
        self._thread = None  # guarded by: owner

    def __enter__(self) -> "ServedInstance":
        import threading

        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._serve()),
            name="loadgen-served-instance",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise RuntimeError("self-served AsyncDataServer failed to start")
        if self.error is not None:
            raise RuntimeError(
                f"self-served AsyncDataServer failed: {self.error!r}"
            )
        return self

    async def _serve(self) -> None:
        try:
            server = build_server(self.config)
            self._loop = asyncio.get_running_loop()
            self._stopped = asyncio.Event()
            async with AsyncDataServer(server, max_in_flight=1024) as front:
                self.port = front.port
                self._ready.set()
                await self._stopped.wait()
        except BaseException as error:  # surfaced to the entering thread
            self.error = error
            self._ready.set()

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._stopped is not None:
            self._loop.call_soon_threadsafe(self._stopped.set)
        if self._thread is not None:
            self._thread.join(timeout=30)


def server_snapshot(host: str, port: int, timeout: float) -> Dict[str, object]:
    """The server's registry snapshot, asked over the wire (empty when
    the server does not answer ``stats``)."""
    async def ask():
        client = await AsyncClient.connect(host, port, timeout=timeout, max_retries=0)
        async with client:
            return await client.call(StatsOp())

    reply = asyncio.run(ask())
    return reply.values if isinstance(reply, StatsReply) else {}


# -- worker processes -----------------------------------------------------------------


class _WorkerState:
    """Latencies + counters shared by one worker's connection tasks."""

    def __init__(self) -> None:
        self.latency = LatencyRecorder()  # guarded by: owner
        self.counters = new_counters()  # guarded by: owner

    def bump(self, key: str, by: int = 1) -> None:
        self.counters[key] += by

    def error(self, kind: str) -> None:
        errors = self.counters["errors"]
        errors[kind] = errors.get(kind, 0) + 1

    def drain(self) -> Dict[str, object]:
        """The deltas since the last drain, ready to ship."""
        latency, self.latency = self.latency, LatencyRecorder()
        counters, self.counters = self.counters, new_counters()
        return {"latency": latency.histograms(), "counters": counters}


async def _drive_connection(
    config: LoadgenConfig,
    worker_id: int,
    connection_id: int,
    host: str,
    port: int,
    state: _WorkerState,
    started_at: float,
) -> None:
    """One connection's closed loop: pace, admit, record, retry."""
    loop = asyncio.get_running_loop()
    generator = OpMixStream(config, worker_id, connection_id)
    interval = 1.0 / config.per_connection_qps
    deadline = started_at + config.duration
    warmup_until = started_at + config.warmup
    next_fire = started_at
    # (op, attempt) pairs awaiting a resend after a retryable error.
    retry_queue: deque = deque()

    client = await AsyncClient.connect(
        host, port, timeout=config.timeout, max_retries=0
    )
    try:
        while True:
            now = loop.time()
            if now >= deadline:
                break
            if now < next_fire:
                await asyncio.sleep(min(next_fire - now, deadline - now))
                continue
            # Closed-loop admission: every overdue arrival, capped.
            due = min(int((now - next_fire) / interval) + 1, config.max_burst)
            batch: List[Tuple[object, int]] = []
            while retry_queue and len(batch) < due:
                batch.append(retry_queue.popleft())
            fresh = due - len(batch)
            for _ in range(fresh):
                batch.append((generator.next_op(), 0))
            next_fire += fresh * interval
            state.bump("issued", fresh)
            try:
                timed = await client.pipeline_timed(
                    [op for op, _ in batch], timeout=config.timeout
                )
            except ClientTimeoutError:
                # The connection is desynced; drop the batch, reconnect.
                state.bump("timeouts", len(batch))
                await client.aclose()
                state.bump("reconnects")
                client = await AsyncClient.connect(
                    host, port, timeout=config.timeout, max_retries=0
                )
                continue
            except (TransportError, ConnectionError, OSError):
                state.bump("reconnects")
                await client.aclose()
                client = await AsyncClient.connect(
                    host, port, timeout=config.timeout, max_retries=0
                )
                continue
            measured = loop.time() >= warmup_until
            for (op, attempt), (reply, seconds) in zip(batch, timed):
                if isinstance(reply, ErrorReply):
                    if measured:
                        state.error(reply.error_kind)
                    if (
                        reply.retryable
                        and isinstance(op, RETRYABLE_OPS)
                        and attempt < config.max_retries
                    ):
                        retry_queue.append((op, attempt + 1))
                        state.bump("retries")
                    continue
                state.bump("completed")
                if measured:
                    state.latency.record(op_kind(op), seconds)
    finally:
        await client.aclose()


async def _report_ticks(
    config: LoadgenConfig, worker_id: int, state: _WorkerState, out_queue
) -> None:
    while True:
        await asyncio.sleep(config.report_interval)
        delta = state.drain()
        if delta["latency"] or any(delta["counters"][key] for key in COUNTER_KEYS):
            # analysis: allow[async-blocking] mp.Queue.put hands off to the feeder thread; effectively non-blocking
            out_queue.put(("tick", worker_id, delta))


async def _worker(config: LoadgenConfig, worker_id: int, host: str, port: int,
                  out_queue) -> None:
    state = _WorkerState()
    # Connections start against a shared clock *after* the mix
    # generators are built, so pacing is not skewed by setup cost.
    started_at = asyncio.get_running_loop().time()
    reporter = asyncio.create_task(
        _report_ticks(config, worker_id, state, out_queue)
    )
    try:
        await asyncio.gather(
            *(
                _drive_connection(
                    config, worker_id, connection_id, host, port, state,
                    started_at,
                )
                for connection_id in range(config.connections)
            )
        )
    finally:
        reporter.cancel()
        try:
            await reporter
        except asyncio.CancelledError:
            pass
    # analysis: allow[async-blocking] mp.Queue.put hands off to the feeder thread; effectively non-blocking
    out_queue.put(("done", worker_id, state.drain()))


def _worker_entry(config: LoadgenConfig, worker_id: int, host: str, port: int,
                  out_queue) -> None:
    """Top-level (picklable) process entry point."""
    try:
        asyncio.run(
            asyncio.wait_for(
                _worker(config, worker_id, host, port, out_queue),
                timeout=config.duration + 60.0,
            )
        )
    except BaseException:
        out_queue.put(("error", worker_id, traceback.format_exc()))
        raise


# -- the parent orchestration ---------------------------------------------------------


def run_loadgen(
    config: LoadgenConfig, live: bool = False
) -> Dict[str, object]:
    """Run one closed-loop load generation; returns the report dict.

    ``live=True`` prints a per-op percentile table (plus achieved-QPS
    line) every ``report_interval`` seconds while the run progresses.
    When ``config.output`` is set the report is also written there as
    JSON (the ``BENCH_loadgen.json`` artifact).
    """
    config.validate()
    served: Optional[ServedInstance] = None
    try:
        if config.host is None:
            served = ServedInstance(config).__enter__()
            host, port = "127.0.0.1", served.port
        else:
            host, port = config.host, config.port

        context = multiprocessing.get_context("spawn")
        out_queue = context.Queue()
        workers = [
            context.Process(
                target=_worker_entry,
                args=(config, worker_id, host, port, out_queue),
                daemon=True,
            )
            for worker_id in range(config.processes)
        ]
        started = time.monotonic()
        for worker in workers:
            worker.start()

        recorder = LatencyRecorder()
        counters = new_counters()
        reporter = LiveReporter(config, recorder, counters)
        done = 0
        failure: Optional[str] = None
        while done < len(workers):
            try:
                kind, worker_id, payload = out_queue.get(timeout=0.5)
            except queue_module.Empty:
                if all(not worker.is_alive() for worker in workers):
                    # Every worker exited without a closing message.
                    failure = "workers died without reporting"
                    break
                if live:
                    reporter.maybe_print()
                continue
            if kind == "error":
                failure = payload
                break
            recorder.merge(payload["latency"])
            merge_counters(counters, payload["counters"])
            if kind == "done":
                done += 1
            if live:
                reporter.maybe_print()
        for worker in workers:
            worker.join(timeout=30)
            if worker.is_alive():
                worker.terminate()
        if failure is not None:
            raise RuntimeError(f"loadgen worker failed:\n{failure}")
        wall_seconds = time.monotonic() - started

        report = build_report(config, recorder, counters, wall_seconds=wall_seconds)
        report["server"] = server_snapshot(host, port, config.timeout)
        if live:
            reporter.print_final(report)
        if config.output:
            write_report(report, config.output)
        return report
    finally:
        if served is not None:
            served.__exit__(None, None, None)
