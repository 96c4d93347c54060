"""End-to-end served benchmark: one command, four workloads, every metric.

    PYTHONPATH=src python -m benchmarks.e2e.run --seed 2012 --out BENCH_e2e.json

generates every input from the seed (``workloads.py``), and for each
workload starts a real ``AsyncDataServer`` in its own process
(``serve.py``), drives it over loopback from this process — one thread,
two connections — checks every reply against the in-process oracle,
and prints every metric by name with its unit.  README.md defines the
metrics, the workloads and the topology; this docstring is the map of
one server lifetime:

    set-up -> prime -> verify -> warm-up (discarded)
           -> closed windows  (sliding window, 2 x 16 outstanding)
           -> paced windows   (open loop on an arrival grid; traced run only)
           -> shutdown -> oracle check

A metric's value is the median of its windows, timings scaled to a
nominal host speed (README.md, "Host speed").  The benchmark driver's
form, ``--workload W --seed N --seconds S --trace 0|1``, does one such
lifetime and prints, as the last line, the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not __package__:         # `python3 benchmarks/e2e/run.py`: the driver's form
    sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

import argparse
import dataclasses
import json
import os
import platform
import selectors
import socket
import statistics
import subprocess
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e import workloads
from benchmarks.e2e.trace import NETWORK_SPANS
from benchmarks.e2e.workloads import Lane, Workload
from repro.errors import TransportError
from repro.framework.messages import StreamRequestMessage
from repro.framework.metrics import percentile
from repro.framework.network import SimulatedNetwork
from repro.framework.server import DataServer
from repro.serving.wire import EvaluateReply, FrameDecoder, decode_message
from repro.streams.engine import StreamEngine
from repro.streams.schema import Schema

HERE = Path(__file__).resolve().parent
HOST_CPUS = sorted(os.sched_getaffinity(0))     # before the generator pins itself
HELD_OUT_SEED = 4242        # for claim checks: never tune against it
OUTSTANDING = 16            # frames in flight per connection, closed phase
WINDOWS = 12
WAIT_LIMIT = 60.0           # seconds any single wait may take
LATE = 0.001                # a paced frame written later than this is "late"
#: Seconds per ``serve.calibration_rounds`` round that count as host
#: speed 1.0 (what the 2-vCPU sizing host reads on a quiet minute).
NOMINAL_ROUND_S = 43e-6
#: The served code slows by less than the calibration loop when the
#: host is contended: over 20 same-seed runs, five per workload, with
#: the loop's rate between 0.85 and 1.11 of nominal, CPU per op went
#: as that rate to the power -0.64 .. -0.72 on every workload.
HOST_SPEED_EXPONENT = 0.7


class BenchmarkError(RuntimeError):
    """The run could not be completed (server died, wait timed out)."""


# -- the server process ---------------------------------------------------------------


class ServerProcess:
    """``serve.py`` as a child; always reaped by :meth:`close`."""

    def __init__(self, workload: Workload, trace_out: Optional[str]):
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([environment["PYTHONPATH"]] if environment.get("PYTHONPATH") else [])
        )
        command = [sys.executable, "-m", "benchmarks.e2e.serve"]
        if trace_out:
            command += ["--trace-out", trace_out]
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            cwd=ROOT, env=environment, bufsize=0,
        )
        # One CPU each, when the host has two: left to itself the kernel
        # sometimes runs both processes on one CPU (the wakee next to its
        # waker) and sometimes apart, and a decide-only op costs 15% more
        # server CPU apart than together — two modes, drawn per run.
        if len(HOST_CPUS) >= 2:
            os.sched_setaffinity(self.process.pid, {HOST_CPUS[0]})
            os.sched_setaffinity(0, {HOST_CPUS[1]})
        self.fileno = self.process.stdout.fileno()
        self._buffer = bytearray()
        #: (receive time, payload) of every line not yet consumed.
        self.lines: deque = deque()
        try:
            self.send(workload.fixture_line())
            while not self.lines:
                self.read()
        except BaseException:
            self.close()
            raise
        self.ready = self.lines.popleft()[1]

    def send(self, line: bytes) -> None:
        data = memoryview(line + b"\n")
        while data:     # unbuffered pipe: a write may take only part
            data = data[self.process.stdin.write(data):]

    def read(self) -> None:
        """Take whatever the server has written (blocks if nothing)."""
        data = os.read(self.fileno, 1 << 20)
        received = time.perf_counter()
        if not data:
            raise BenchmarkError(
                f"server exited unexpectedly (status {self.process.poll()})"
            )
        self._buffer += data
        while True:
            line, newline, rest = self._buffer.partition(b"\n")
            if not newline:
                return
            self._buffer = rest
            self.lines.append((received, json.loads(line)))

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()


# -- the load generator ---------------------------------------------------------------


class Link:
    """One connection and everything observed on it."""

    def __init__(self, lane: Lane, sock: socket.socket):
        self.lane = lane
        self.sock = sock
        self.decoder = FrameDecoder()
        self.sent = 0
        self.limit = float("inf")       # op number sending stops at
        self.stamps: List[float] = []   # per op: written at (closed) / due at (paced)
        self.arrivals: List[float] = []     # per reply: received at
        self.replies: List[bytes] = []      # per reply: payload, checked after the run
        self.backlog = bytearray()      # bytes the socket would not take yet
        self.bytes_out = 0
        self.bytes_in = 0

    @property
    def outstanding(self) -> int:
        return self.sent - len(self.replies)


def server_cpu_ticks() -> Tuple[int, int]:
    """``(stolen, all)`` clock ticks so far of the CPU the server is
    pinned to (of all CPUs if the host has one), from ``/proc/stat``:
    stolen ticks are those the hypervisor gave to another guest."""
    label = f"cpu{HOST_CPUS[0]}" if len(HOST_CPUS) >= 2 else "cpu"
    with open("/proc/stat") as stat:
        for line in stat:
            fields = line.split()
            if fields[0] == label:
                ticks = [int(field) for field in fields[1:9]]
                return ticks[7], sum(ticks)
    raise OSError(f"/proc/stat has no {label} line")


class Snapshot:
    """Client-side counters at one instant (taken at a mark's reply)."""

    def __init__(self, at: float, links: Sequence[Link]):
        self.at = at
        self.cpu = time.process_time()
        self.stolen, self.ticks = server_cpu_ticks()
        self.replies = [len(link.replies) for link in links]
        self.bytes_out = sum(link.bytes_out for link in links)
        self.bytes_in = sum(link.bytes_in for link in links)


class Generator:
    """Pre-encoded frames in, reply payloads and time stamps out.

    Inside a timed window it only writes bytes, splits reply frames
    and reads the clock; nothing is decoded or checked until the run
    is over.  ``AsyncClient`` is deliberately not used: it costs as
    much CPU per request as the server does.
    """

    def __init__(self, workload: Workload, server: ServerProcess):
        self.server = server
        self.selector = selectors.DefaultSelector()
        self.selector.register(server.fileno, selectors.EVENT_READ, None)
        self.links: List[Link] = []
        for lane in workload.lanes:
            sock = socket.create_connection(("127.0.0.1", server.ready["port"]))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            link = Link(lane, sock)
            self.selector.register(sock, selectors.EVENT_READ, link)
            self.links.append(link)

    def close(self) -> None:
        for link in self.links:
            link.sock.close()
        self.selector.close()

    # -- plumbing -----------------------------------------------------------------

    def send(self, link: Link, count: int, stamp: float) -> None:
        if count <= 0:
            return
        lane, first = link.lane, link.sent
        data = b"".join(lane.frame(number) for number in range(first, first + count))
        link.sent += count
        link.stamps.extend([stamp] * count)
        link.bytes_out += len(data)
        if link.backlog:
            link.backlog += data
            return
        try:
            written = link.sock.send(data)
        except BlockingIOError:
            written = 0
        if written < len(data):
            link.backlog += data[written:]
            self.selector.modify(
                link.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, link
            )

    def _flush(self, link: Link) -> None:
        try:
            written = link.sock.send(link.backlog)
        except BlockingIOError:
            return
        del link.backlog[:written]
        if not link.backlog:
            self.selector.modify(link.sock, selectors.EVENT_READ, link)

    def poll(self, timeout: float, refill: bool) -> None:
        """One selector round.  With *refill*, every reply read is
        answered by one new frame, which keeps the window full."""
        for key, mask in self.selector.select(max(timeout, 0.0)):
            link = key.data
            if link is None:
                self.server.read()
                continue
            if mask & selectors.EVENT_WRITE:
                self._flush(link)
            if mask & selectors.EVENT_READ:
                data = link.sock.recv(1 << 16)
                now = time.perf_counter()
                if not data:
                    raise BenchmarkError("server closed a connection")
                payloads = link.decoder.feed(data)
                link.bytes_in += len(data)
                link.replies.extend(payloads)
                link.arrivals.extend([now] * len(payloads))
                if refill:
                    self.send(link, min(len(payloads), link.limit - link.sent), now)

    def command(self, name: str, refill: bool = False) -> Tuple[float, Dict[str, object]]:
        """Ask the server something; keep the sockets moving meanwhile."""
        self.server.send(name.encode())
        deadline = time.perf_counter() + WAIT_LIMIT
        while not self.server.lines:
            if time.perf_counter() > deadline:
                raise BenchmarkError(f"no answer to {name!r} in {WAIT_LIMIT} s")
            self.poll(1.0, refill)
        return self.server.lines.popleft()

    def mark(self, refill: bool = False) -> Tuple[Snapshot, Dict[str, object]]:
        received, payload = self.command("mark", refill)
        return Snapshot(received, self.links), payload

    # -- the two load shapes ------------------------------------------------------

    def closed(self, seconds: Optional[float] = None,
               upto: Optional[Callable[[Lane], int]] = None) -> None:
        """Sliding window of :data:`OUTSTANDING` frames per connection,
        for *seconds*, or until every lane's op number *upto* is answered."""
        now = time.perf_counter()
        for link in self.links:
            link.limit = float("inf") if upto is None else upto(link.lane)
            self.send(link, min(OUTSTANDING - link.outstanding, link.limit - link.sent), now)
        deadline = now + (WAIT_LIMIT if seconds is None else seconds)
        while True:
            if upto is not None and all(len(l.replies) >= l.limit for l in self.links):
                return
            now = time.perf_counter()
            if now >= deadline:
                if seconds is None:
                    raise BenchmarkError(f"set-up traffic unanswered after {WAIT_LIMIT} s")
                return
            self.poll(min(deadline - now, 0.1), refill=True)

    def drain(self) -> None:
        """Stop sending; wait for every outstanding reply (or give up:
        what is still missing then counts as failed)."""
        deadline = time.perf_counter() + WAIT_LIMIT
        while any(link.outstanding for link in self.links):
            if time.perf_counter() > deadline:
                return
            self.poll(0.1, refill=False)

    def paced(self, rate: float, seconds: float) -> int:
        """Open loop: frame *i* is due at ``start + i / rate`` whatever
        the replies do, and is stamped with that due time.  Returns how
        many frames were written more than :data:`LATE` after it."""
        total = int(rate * seconds)
        interval = 1.0 / rate
        start = time.perf_counter() + interval
        sent = late = 0
        while sent < total:
            now = time.perf_counter()
            due = start + sent * interval
            if due > now:
                # Spin, never sleep: a generator woken from idle adds its
                # own wake-up (two thirds of a decide-only round trip on
                # the sizing VM) to every latency it reports.
                self.poll(0.0, refill=False)
                continue
            late += now - due > LATE
            self.send(self.links[sent % len(self.links)], 1, due)
            sent += 1
        self.drain()
        return late


# -- one server lifetime --------------------------------------------------------------


def phases(seconds: float, quick: bool, traced: bool) -> Tuple[int, float, float]:
    """``(windows, closed window s, paced window s)``.  The end-to-end
    metrics are all read in the closed windows, so an untraced run
    spends its seconds there.  A traced run spends five ninths on one
    more closed window than that — the first stays untraced and is the
    base of ``trace.overhead_ratio`` — and the rest on paced windows."""
    windows = 1 if quick else WINDOWS
    if not traced:
        return windows, (2.0 if quick else seconds / windows), 0.0
    if quick:
        return windows, 1.0, 2.0
    return windows, 5 * seconds / 9 / (windows + 1), 4 * seconds / 9 / windows


def run_once(workload: Workload, seconds: float, quick: bool, traced: bool,
             trace_out: Optional[str] = None) -> Dict[str, object]:
    """Drive *workload* through one server lifetime; returns raw windows."""
    windows, closed_s, paced_s = phases(seconds, quick, traced)
    server = ServerProcess(workload, trace_out)
    generator = None
    try:
        generator = Generator(workload, server)
        generator.closed(upto=lambda lane: len(lane.prime))
        verified = True
        if workload.verify_ops:
            generator.closed(upto=lambda lane: len(lane.prime) + workload.verify_ops)
            verified = verify_outputs(workload, generator.command("outputs")[1])
        # Warm-up is a count of ops, not a time: the server has then done
        # the same work whatever its speed, so the peak RSS read here does
        # not grow when a later change raises throughput.
        generator.closed(upto=lambda lane: len(lane.prime) + workload.warm_ops(lane))
        warmed = generator.mark()[1]
        generator.command("stats")

        closed: List[Dict[str, object]] = []
        before = generator.mark(refill=True)
        for index in range(windows + traced):
            if traced and index == 1:
                generator.command("trace", refill=True)
                generator.command("stats", refill=True)
                before = generator.mark(refill=True)
            generator.closed(closed_s)
            after = generator.mark(refill=True)
            closed.append({"before": before, "after": after})
            before = after
        closed_stats = generator.command("stats", refill=True)[1]["stats"]
        generator.drain()

        paced: List[Dict[str, object]] = []
        if traced:      # latencies are read without the tracer's cost
            generator.command("untrace")
        for _ in range(windows if paced_s else 0):
            first = [link.sent for link in generator.links]
            before = generator.mark()[1]
            late = generator.paced(workload.paced_rate, paced_s)
            paced.append({"first": first, "late": late,
                          "last": [link.sent for link in generator.links],
                          "before": before, "after": generator.mark()[1]})
        paced_stats = generator.command("stats")[1]["stats"]

        server.send(b"quit")
        while not server.lines:
            server.read()
        final = server.lines.popleft()[1]
        server.process.wait(WAIT_LIMIT)
    finally:
        if generator is not None:
            generator.close()
        server.close()
    return {
        "links": generator.links, "ready": server.ready, "warmed": warmed,
        "closed": closed, "closed_stats": closed_stats,
        "paced": paced, "paced_stats": paced_stats,
        "final": final, "verified": verified,
    }


# -- the oracle -----------------------------------------------------------------------


def verify_outputs(workload: Workload, served: Dict[str, object]) -> bool:
    """The verified prefix through ``StreamEngine.reference()``: every
    registered query must have emitted exactly as many tuples."""
    engine = StreamEngine.reference()
    for name, fields in workload.fixture["streams"].items():
        engine.register_input_stream(name, Schema(name, [tuple(f) for f in fields]))
    reference = DataServer(SimulatedNetwork(), engine=engine,
                           enforce_single_access=False, allow_partial_results=True)
    for item in workload.registered:
        reference.load_policy(item.policy)
        reference.process(StreamRequestMessage(item.request, item.user_query))
    for lane in workload.lanes:
        for index, stream, records in lane.ingests:
            if index < workload.verify_ops:
                engine.push_batch(stream, records)
    expected = [query.output.total_appended for query in engine.active_queries()]
    return served["outputs"] == expected and sum(expected) > 0


def failed_ops(link: Link) -> List[int]:
    """Op numbers of *link* whose reply is not what the oracle expects."""
    lane, prime = link.lane, len(link.lane.prime)
    wanted: Dict[int, bytes] = {}
    failed = []
    for number, payload in enumerate(link.replies):
        seq, expected = lane.expected(number)
        key = seq if number >= prime else -1 - seq
        exact = wanted.get(key)
        if exact is None:
            exact = wanted[key] = workloads.reply_payload(seq, expected)
        if payload == exact:
            continue
        try:
            got_seq, got = decode_message(payload)
        except TransportError:
            failed.append(number)
            continue
        if isinstance(got, EvaluateReply):
            # The handle is the server's to choose; ``ok`` already says
            # whether one was issued.
            got = dataclasses.replace(got, handle_uri=None)
        if got_seq != seq or got != expected:
            failed.append(number)
    return failed


def ingest_conserved(workload: Workload, links: Sequence[Link],
                     final: Dict[str, object]) -> bool:
    """Whole run: every input stream holds exactly the tuples acked."""
    expected: Dict[str, int] = {name: 0 for name in workload.fixture["streams"]}
    for link in links:
        lane = link.lane
        laps, rest = divmod(max(len(link.replies) - len(lane.prime), 0), len(lane.pool))
        for index, stream, records in lane.ingests:
            expected[stream] += len(records) * (laps + (index < rest))
    return final["ingested"] == expected


# -- metrics --------------------------------------------------------------------------

END_TO_END = (
    ("throughput_rps", "ops/s"),
    ("server_cpu_us_per_op", "us"),
    ("setup_s", "s"),
    ("server_peak_rss_mb", "MiB"),
)

#: (span name = metric stem, metric suffix).  ``_per_op``: self time per
#: op completed in the window; ``_per_call``: per call of the layer;
#: ``_per_tuple``: per tuple ingested.  Each also reports ``.calls``.
SPAN_LAYERS = (
    ("wire.decode", "us_per_op"),
    ("wire.encode", "us_per_op"),
    ("xml_io.parse_request", "us_per_call"),
    ("server.execute", "self_us_per_op"),
    ("server.queue_wait", "us_per_op"),
    ("pdp.evaluate", "us_per_call"),
    ("xml_io.parse_policy", "us_per_call"),
    ("store.load", "us_per_call"),
    ("store.update", "us_per_call"),
    ("store.remove", "us_per_call"),
    ("user_query.from_xml", "us_per_call"),
    ("obligations.to_graph", "us_per_call"),
    ("merge.merge_query_graphs", "us_per_call"),
    ("streamsql.generate", "us_per_call"),
    ("framework.process", "self_us_per_call"),
    ("framework.policy_admin", "self_us_per_call"),
    ("engine.register_query", "us_per_call"),
    ("engine.withdraw", "us_per_call"),
    ("engine.push_batch", "us_per_tuple"),
)


def median_of(values: Sequence[float],
              measured: Optional[Sequence[float]] = None) -> Dict[str, object]:
    """*measured*: the same windows as the clock read them, before they
    were scaled to nominal host speed."""
    entry = {"value": statistics.median(values), "windows": list(values)}
    if measured is not None:
        entry["measured"] = statistics.median(measured)
    return entry


def speed_of(round_s: float) -> float:
    """How fast the host ran the served code while a calibration round
    took *round_s*, as a share of nominal."""
    return (NOMINAL_ROUND_S / round_s) ** HOST_SPEED_EXPONENT


def host_speed(mark0: Dict[str, object], mark1: Dict[str, object]) -> float:
    """Host speed between two marks: timings are multiplied by it (rates
    divided), which turns them into what they would have read at
    nominal speed.  See ``serve.Calibrator``."""
    rounds = mark1["calibration_rounds"] - mark0["calibration_rounds"]
    cpu = mark1["calibration_cpu_s"] - mark0["calibration_cpu_s"]
    return speed_of(cpu / rounds) if cpu > 0 and rounds else 1.0


def window_latencies(links: Sequence[Link], first: Sequence[int],
                     last: Sequence[int]) -> List[float]:
    return sorted(
        link.arrivals[number] - link.stamps[number]
        for link, lo, hi in zip(links, first, last)
        for number in range(lo, min(hi, len(link.arrivals)))
    )


def cpu_us_per_op(mark0: Dict[str, object], mark1: Dict[str, object]) -> float:
    """Server CPU between two marks per op, without what the marks'
    own handlers and the calibration slices took."""
    cpu = mark1["cpu_s"] - mark0["cpu_after_s"] - sum(
        mark1[key] - mark0[key] for key in ("calibration_cpu_s", "calibration_warm_cpu_s")
    )
    return cpu * 1e6 / max(mark1["ops"] - mark0["ops"], 1)


def stolen_share(before: Snapshot, after: Snapshot) -> float:
    """Share of the server's CPU the hypervisor withheld in a window."""
    return (after.stolen - before.stolen) / max(after.ticks - before.ticks, 1)


def end_to_end(raw: Dict[str, object], failed: Sequence[Sequence[int]]) -> Dict[str, Dict]:
    throughput, cpu = [], []        # (as measured, host speed) per window
    for window in raw["closed"]:
        (before, mark0), (after, mark1) = window["before"], window["after"]
        speed = host_speed(mark0, mark1)
        good = sum(
            hi - lo - sum(lo <= number < hi for number in bad)
            for lo, hi, bad in zip(before.replies, after.replies, failed)
        )
        # Process CPU time does not count stolen time; the wall clock
        # does, so a rate is also divided by the share of the server's
        # CPU that was there to be used.
        throughput.append((good / (after.at - before.at),
                           speed * (1.0 - stolen_share(before, after))))
        cpu.append((cpu_us_per_op(mark0, mark1), speed))
    ready = raw["ready"]
    setup = [(seconds, speed_of(round_s))
             for seconds, round_s in zip(ready["setup_s"], ready["calibration_round_s"])]

    def timing(windows) -> Dict[str, object]:
        return median_of([value * speed for value, speed in windows],
                         [value for value, _ in windows])

    return {
        "throughput_rps": median_of([value / speed for value, speed in throughput],
                                    [value for value, _ in throughput]),
        "server_cpu_us_per_op": timing(cpu),
        "setup_s": timing(setup),
        "server_peak_rss_mb": median_of([raw["warmed"]["rss_kb"] / 1024.0]),
    }


def recorded(stats: Dict[str, Dict[str, float]]) -> Tuple[float, Dict[str, float]]:
    """``(mean ms over all ops, the busiest op kind's row)`` of a
    ``LatencyRecorder`` table."""
    total = sum(row["count"] for row in stats.values())
    if not total:
        return 0.0, {"p50_ms": 0.0, "p99_ms": 0.0}
    mean = sum(row["count"] * row["mean_ms"] for row in stats.values()) / total
    return mean, max(stats.values(), key=lambda row: row["count"])


def per_layer(raw: Dict[str, object]) -> Dict[str, Dict]:
    """Per-layer metrics of a traced run; see README.md for each."""
    links = raw["links"]
    closed = raw["closed"]
    base, traced = closed[0], closed[1:]
    layers = raw["final"]["layers"]
    series: Dict[str, List[float]] = {}

    def put(name: str, value: float) -> None:
        series.setdefault(name, []).append(value)

    def cpu_per_op(window) -> float:
        return cpu_us_per_op(window["before"][1], window["after"][1])

    recorded_mean_us = recorded(raw["closed_stats"])[0] * 1e3
    for window, spans in zip(traced, layers):
        (before, mark0), (after, mark1) = window["before"], window["after"]
        # Every time below is scaled to nominal host speed, like the
        # end-to-end metrics; counts and ratios are not.
        speed = host_speed(mark0, mark1)
        put("host.speed_ratio", speed)
        ops = max(mark1["ops"] - mark0["ops"], 1)
        tuples = max(mark1["tuples"] - mark0["tuples"], 1)
        empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        for span, suffix in SPAN_LAYERS:
            layer = spans.get(span, empty)
            divisor = {"op": ops, "tuple": tuples,
                       "call": max(layer["calls"], 1)}[suffix.rpartition("_per_")[2]]
            put(f"{span}.{suffix}", layer["self_s"] * speed * 1e6 / divisor)
            put(f"{span}.calls", layer["calls"])
        network = [spans.get(name, empty) for name in NETWORK_SPANS]
        put("network.simulated.us_per_op",
            sum(l["self_s"] for l in network) * speed * 1e6 / ops)
        put("network.simulated.calls", sum(l["calls"] for l in network))

        def total_us(name: str) -> float:
            return spans.get(name, empty)["total_s"] * 1e6 / ops

        inside = total_us("server.queue_wait") + total_us("server.execute") + total_us("wire.encode")
        put("server.queue_drain.us_per_op",
            (recorded_mean_us - total_us("server.execute") - total_us("wire.encode")) * speed)
        put("trace.layer_sum_ratio", inside / recorded_mean_us if recorded_mean_us else 0.0)
        in_spans = sum(
            layer["self_s"] for name, layer in spans.items() if name != "server.queue_wait"
        ) * 1e6 / ops
        put("server.loop.us_per_op", (cpu_per_op(window) - in_spans) * speed)
        put("trace.overhead_ratio",
            cpu_per_op(window) * speed
            / (cpu_per_op(base) * host_speed(base["before"][1], base["after"][1])))

        put("server.read_pauses", mark1["read_pauses"] - mark0["read_pauses"])
        cache0, cache1 = mark0["cache"], mark1["cache"]
        lookups = (cache1["hits"] - cache0["hits"]) + (cache1["misses"] - cache0["misses"])
        put("pdp.cache.hit_ratio", (cache1["hits"] - cache0["hits"]) / max(lookups, 1))
        put("pdp.cache.full_flushes", cache1["full_flushes"] - cache0["full_flushes"])
        put("pdp.cache.targeted_evictions",
            cache1["targeted_evictions"] - cache0["targeted_evictions"])
        put("graph_manager.revocations", mark1["revocations"] - mark0["revocations"])
        put("engine.active_queries", mark1["active_queries"])
        plans = mark1["plans"].values()
        put("plan.live_nodes", sum(plan["live_nodes"] for plan in plans))
        reused = sum(plan["nodes_shared"] + plan["nodes_subsumed"] for plan in plans)
        put("plan.shared_ratio",
            reused / max(reused + sum(plan["nodes_created"] for plan in plans), 1))

        replies = sum(after.replies) - sum(before.replies)
        put("wire.request_bytes_per_op", (after.bytes_out - before.bytes_out) / max(replies, 1))
        put("wire.reply_bytes_per_op", (after.bytes_in - before.bytes_in) / max(replies, 1))
        latencies = window_latencies(links, before.replies, after.replies)
        put("client.closed_p50_ms", percentile(latencies, 0.5) * speed * 1e3)
        put("client.closed_p99_ms", percentile(latencies, 0.99) * speed * 1e3)
        put("client.generator_cpu_share", (after.cpu - before.cpu) / (after.at - before.at))

    for window in raw["paced"]:
        speed = host_speed(window["before"], window["after"])
        latencies = window_latencies(links, window["first"], window["last"])
        put("client.paced_p50_ms", percentile(latencies, 0.5) * speed * 1e3)
        put("client.paced_p99_ms", percentile(latencies, 0.99) * speed * 1e3)
        sent = sum(window["last"]) - sum(window["first"])
        put("client.paced_late_share", window["late"] / max(sent, 1))
    paced_speed = host_speed(raw["paced"][0]["before"], raw["paced"][-1]["after"])
    busiest = recorded(raw["paced_stats"])[1]
    put("server.recorded_p50_ms", busiest["p50_ms"] * paced_speed)
    put("server.recorded_p99_ms", busiest["p99_ms"] * paced_speed)
    return {name: median_of(values) for name, values in series.items()}


def unit_of(metric: str) -> str:
    for suffix, unit in (
        ("_ms", "ms"), ("us_per_op", "us"), ("us_per_call", "us"), ("us_per_tuple", "us"),
        ("bytes_per_op", "B"), ("_ratio", "ratio"), ("_share", "ratio"),
    ):
        if metric.endswith(suffix):
            return unit
    return "count"


# -- the command ----------------------------------------------------------------------


def measure(workload: Workload, seconds: float, quick: bool, traced: bool,
            trace_out: Optional[str]) -> Dict[str, object]:
    """One lifetime, checked: metrics plus the attempted/failed counts."""
    raw = run_once(workload, seconds, quick, traced, trace_out)
    links = raw["links"]
    failed = [failed_ops(link) for link in links]
    missing = sum(link.outstanding for link in links)
    problems = sum(len(bad) for bad in failed) + missing
    conserved = ingest_conserved(workload, links, raw["final"])
    metrics = per_layer(raw) if traced else end_to_end(raw, failed)
    return {
        "traced": traced,
        "host_speed": {
            "setup": [speed_of(r) for r in raw["ready"]["calibration_round_s"]],
            "closed": [host_speed(w["before"][1], w["after"][1]) for w in raw["closed"]],
            "paced": [host_speed(w["before"], w["after"]) for w in raw["paced"]],
        },
        "host_stolen": [stolen_share(w["before"][0], w["after"][0]) for w in raw["closed"]],
        "attempted": sum(link.sent for link in links),
        "failed": problems,
        "outputs_verified": raw["verified"],
        "ingest_conserved": conserved,
        "correct": problems == 0 and raw["verified"] and conserved,
        "metrics": {
            name: dict(entry, unit=dict(END_TO_END).get(name) or unit_of(name))
            for name, entry in metrics.items()
        },
    }


def host_fingerprint() -> Dict[str, object]:
    return {
        "cpus": len(HOST_CPUS),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def print_metrics(name: str, result: Dict[str, object]) -> None:
    kind = "per-layer (traced run)" if result["traced"] else "end-to-end"
    print(f"\n{name}: {kind}; attempted {result['attempted']}, failed {result['failed']}, "
          f"outputs verified {result['outputs_verified']}, "
          f"ingest conserved {result['ingest_conserved']}")
    for metric, entry in result["metrics"].items():
        low, high = min(entry["windows"]), max(entry["windows"])
        measured = f" as measured {entry['measured']:.4f}" if "measured" in entry else ""
        print(f"  {metric:44s} {entry['value']:14.4f} {entry['unit']:6s} "
              f"[{low:.4f} .. {high:.4f}] n={len(entry['windows'])}{measured}")


def pinned_digests() -> Dict[str, Dict[str, str]]:
    return json.loads((HERE / "digests.json").read_text())


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="default: all four")
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="measured seconds per server lifetime")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: only the untraced (0) or only the traced (1) "
                             "run, and the result object as the last line; "
                             "default: both runs")
    parser.add_argument("--out", help="write the full report here (BENCH_e2e.json)")
    parser.add_argument("--quick", action="store_true",
                        help="1 s warm-up and one 2 s window per phase: every code "
                             "path, no usable numbers")
    parser.add_argument("--inject-fault", action="store_true",
                        help="plant one wrong expected decision and one mistyped "
                             "ingest record; the run must then fail (smoke test)")
    args = parser.parse_args(argv)
    if args.trace is not None and args.workload is None:
        parser.error("--trace 0|1 needs --workload")

    selected = [args.workload] if args.workload else names
    passes = [False, True] if args.trace is None else [bool(args.trace)]
    pinned = pinned_digests().get(str(args.seed), {})
    report: Dict[str, object] = {
        "benchmark": "benchmarks/e2e",
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "quick": args.quick,
        "host": host_fingerprint(),
        "workloads": {},
    }
    correct = True
    city = workloads.City(args.seed)
    for name in selected:
        workload = workloads.build(name, city, fault=args.inject_fault)
        digest = workload.digest()
        entry: Dict[str, object] = {"why": workload.why, "digest": digest,
                                    "paced_rate": workload.paced_rate}
        if not args.inject_fault and pinned.get(name, digest) != digest:
            print(f"{name}: input digest {digest} differs from the pinned "
                  f"{pinned[name]} for seed {args.seed}: the generated traffic changed")
            entry["digest_pinned"] = pinned[name]
            correct = False
        for traced in passes:
            trace_out = None
            if args.out and traced:
                trace_out = str(Path(args.out).resolve().with_name(f"BENCH_e2e_trace_{name}.json"))
            result = measure(workload, args.seconds, args.quick, traced, trace_out)
            print_metrics(name, result)
            entry["per_layer" if traced else "end_to_end"] = result
            correct = correct and result["correct"]
        report["workloads"][name] = entry
    report["correct"] = correct
    report["claim"] = None
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")

    if args.trace is None:
        summary = {
            "workloads": {
                name: {metric: value["value"]
                       for metric, value in entry["end_to_end"]["metrics"].items()}
                for name, entry in report["workloads"].items()
            },
            "correct": correct,
            "claim": None,
        }
        print(json.dumps(summary))
    else:
        result = report["workloads"][args.workload][
            "per_layer" if args.trace else "end_to_end"]
        print(json.dumps({
            "correct": correct,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": value["value"], "unit": value["unit"]}
                        for name, value in result["metrics"].items()},
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
