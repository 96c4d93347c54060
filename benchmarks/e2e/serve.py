"""The benchmark's server process: a real ``AsyncDataServer`` on loopback.

Protocol (all JSON lines; the load generator owns both pipes):

stdin, first line
    the fixture — stream schemas, policy XML documents and the full
    requests to pre-register.  The process is never told the seed or
    the workload's name: it receives generated inputs only.
stdout, first line
    ``{"port": ..., "setup_s": [...], "calibration_round_s": [...]}``
    once the listener is bound.  The fixture is built
    :data:`SETUP_REPEATS` times, each build timed from scratch (policy
    XML parse + ``store.load`` + stream and query registration) and
    followed by a calibration reading; the last build is the one served.
stdin, then
    ``mark``    cheap counters and the :class:`Calibrator` totals,
                stamped on entry and on exit so the caller can keep the
                handler itself out of its windows;
    ``stats``   the front-end's ``LatencyRecorder`` table, after which
                the recorder is replaced by a fresh one (it keeps every
                sample, so reading it is not cheap and is kept apart);
    ``outputs`` per-query output tuple counts, in registration order;
    ``trace``   install the span tracer (``trace.py``), ``untrace`` removes it;
    ``quit``    (or end of file) final counters, then a clean exit.

End of file on stdin ends the server too, so a load generator that
dies never leaves a ``serve.py`` behind.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import sys
import time
import xml.etree.ElementTree as ElementTree
from typing import Dict, List, Optional

from benchmarks.e2e.trace import Tracer
from repro.core.user_query import UserQuery
from repro.framework.messages import StreamRequestMessage
from repro.framework.network import SimulatedNetwork
from repro.framework.server import DataServer
from repro.serving.server import AsyncDataServer
from repro.serving.stats import LatencyRecorder
from repro.streams.engine import StreamEngine
from repro.streams.schema import Schema
from repro.xacml.xml_io import parse_request_xml

SETUP_REPEATS = 7

#: Inputs of :func:`calibration_rounds`: shaped like a served evaluate
#: (a JSON envelope around an XML document), standard-library calls only.
_CALIBRATION_XML = "<Request>" + "".join(
    f'<Attribute AttributeId="urn:calibration:{n}" DataType="string">'
    f"<AttributeValue>value{n}</AttributeValue></Attribute>"
    for n in range(6)
) + "</Request>"
_CALIBRATION_FRAME = json.dumps(
    {"seq": 7, "op": "evaluate", "body": {"request_xml": _CALIBRATION_XML, "decide_only": True}}
)
CALIBRATION_INTERVAL = 0.01     # seconds between two slices while serving
CALIBRATION_SLICE = 4           # timed rounds per slice (after one untimed)
CALIBRATION_SETUP = 400         # rounds after each timed fixture build


def calibration_rounds(rounds: int) -> float:
    """CPU seconds this process needs, now, for a fixed piece of work.

    The host is shared: the same code costs up to 1.5x more CPU time
    from one minute to the next, which would drown any bound the
    benchmark could set.  The load generator therefore divides every
    timing by how long this work took around it.  The work uses no code
    of the repository, so no change under ``src/`` can move it;
    collection is off meanwhile so its cost does not depend on the
    size of the server's heap.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.process_time()
        for _ in range(rounds):
            message = json.loads(_CALIBRATION_FRAME)
            found = {}
            for element in ElementTree.fromstring(message["body"]["request_xml"]):
                found[element.get("AttributeId")] = element[0].text
            rows = [(key, len(value)) for key, value in found.items()] * 8
            total = 0
            for key, size in rows:
                if key.endswith("3") or size > 5:
                    total += size
            json.dumps({"seq": total, "body": found}, separators=(",", ":"))
        return time.process_time() - started
    finally:
        if was_enabled:
            gc.enable()


class Calibrator:
    """Interleaves calibration slices with the served traffic, on the
    server's own loop, so the reading sees the host exactly as the
    requests around it do.  Costs about 2.5% of one CPU; marks report
    the totals so the load generator can take that cost back out."""

    def __init__(self) -> None:
        self.rounds = 0         # timed rounds
        self.cpu_s = 0.0        # CPU of the timed rounds
        self.warm_cpu_s = 0.0   # CPU of the untimed ones

    async def run(self) -> None:
        while True:
            await asyncio.sleep(CALIBRATION_INTERVAL)
            # The first round refills the caches the served requests just
            # emptied; timing it would make the reading depend on how idle
            # the server is, not only on how fast the host runs.
            self.warm_cpu_s += calibration_rounds(1)
            self.cpu_s += calibration_rounds(CALIBRATION_SLICE)
            self.rounds += CALIBRATION_SLICE


def peak_rss_kb() -> int:
    """This process's peak resident set, from ``VmHWM``.  Not
    ``ru_maxrss``: across ``exec`` Linux carries the peak of the address
    space that spawned the process into it, so a server smaller than its
    load generator would report the generator's size."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("/proc/self/status has no VmHWM line")


class FixtureError(ValueError):
    """A pre-registered request was not granted: the fixture is broken."""


def build_server(fixture: Dict[str, object]) -> DataServer:
    """``city1500`` as ``loadgen.driver.build_server`` configures a
    server: no pool, no shards, single-access off, partial results on."""
    engine = StreamEngine()
    retained = fixture["retained_tuples"]
    for name, fields in fixture["streams"].items():
        engine.catalog.register(name, Schema(name, [tuple(f) for f in fields]),
                                max_buffer=retained)
    server = DataServer(
        SimulatedNetwork(),
        engine=engine,
        enforce_single_access=False,
        allow_partial_results=True,
    )
    for policy_xml in fixture["policies"]:
        server.load_policy(policy_xml)
    for request_xml, user_query_xml in fixture["preregister"]:
        response, _timing = server.process(StreamRequestMessage(
            parse_request_xml(request_xml),
            UserQuery.from_xml(user_query_xml) if user_query_xml else None,
        ))
        if not response.ok:
            raise FixtureError(f"pre-registered request refused: {response}")
    # Nobody reads the query outputs here, and a stream keeps a tail of a
    # million tuples by default: the heap, and with it the cost of every
    # full collection, would grow for as long as the run lasts, so that a
    # window's cost would depend on how many ops came before it.
    for query in engine.active_queries():
        query.output.max_buffer = retained
    return server


def timed_builds(fixture: Dict[str, object]):
    """Build :data:`SETUP_REPEATS` times; keep the last.  Returns the
    server, each build's seconds and the calibration seconds per round
    read after each build."""
    seconds: List[float] = []
    calibration: List[float] = []
    server = None
    for _ in range(SETUP_REPEATS):
        server = None       # the previous build goes before the next is timed
        gc.collect()
        started = time.perf_counter()
        server = build_server(fixture)
        seconds.append(time.perf_counter() - started)
        calibration.append(calibration_rounds(CALIBRATION_SETUP) / CALIBRATION_SETUP)
    return server, seconds, calibration


class Monitor:
    """Answers the stdin commands from the live server's public state."""

    def __init__(self, front: AsyncDataServer, calibrator: Calibrator,
                 trace_out: Optional[str]):
        self.front = front
        self.calibrator = calibrator
        self.trace_out = trace_out
        self.tracer: Optional[Tracer] = None
        self.tracing = False
        #: Span count at every mark taken while tracing: two neighbours
        #: bound the spans of one window.
        self.span_marks: List[int] = []
        self._ops_before_reset = 0
        self.commands = {
            "mark": self.mark,
            "stats": self.stats,
            "outputs": self.outputs,
            "trace": self.trace,
            "untrace": self.untrace,
        }

    def mark(self) -> Dict[str, object]:
        cpu = time.process_time()
        wall = time.perf_counter()
        instance = self.front.server.instance
        catalog = instance.engine.catalog
        if self.tracing:
            self.span_marks.append(self.tracer.position())
        payload = {
            "cpu_s": cpu,
            "wall_s": wall,
            "ops": self._ops_before_reset + self.front.stats.count(),
            "tuples": sum(catalog.get(name).total_appended for name in catalog.names()),
            "rss_kb": peak_rss_kb(),
            "read_pauses": self.front.read_pauses,
            "cache": instance.pdp.cache_stats(),
            "plans": instance.engine.plan_stats(),
            "active_queries": instance.engine.active_query_count,
            "revocations": instance.graph_manager.revocations,
            "calibration_cpu_s": self.calibrator.cpu_s,
            "calibration_rounds": self.calibrator.rounds,
            "calibration_warm_cpu_s": self.calibrator.warm_cpu_s,
        }
        payload["cpu_after_s"] = time.process_time()
        payload["wall_after_s"] = time.perf_counter()
        return payload

    def stats(self) -> Dict[str, object]:
        recorder = self.front.stats
        self._ops_before_reset += recorder.count()
        self.front.stats = LatencyRecorder()
        return {"stats": recorder.to_dict()}

    def outputs(self) -> Dict[str, object]:
        engine = self.front.server.instance.engine
        return {
            "outputs": [q.output.total_appended for q in engine.active_queries()],
            "ingested": {
                name: engine.catalog.get(name).total_appended
                for name in engine.catalog.names()
            },
        }

    def trace(self) -> Dict[str, object]:
        self.tracer = Tracer(self.front)
        self.tracer.install()
        self.tracing = True
        return {"tracing": True}

    def untrace(self) -> Dict[str, object]:
        self.tracer.uninstall()
        self.tracing = False
        return {"tracing": False}

    def final(self) -> Dict[str, object]:
        payload = self.mark()
        payload.update(self.outputs())
        if self.tracer is not None:
            if self.tracing:
                self.untrace()
            payload["layers"] = [
                self.tracer.aggregate(start, stop)
                for start, stop in zip(self.span_marks, self.span_marks[1:])
            ]
            payload["server_timing_s"] = self.tracer.server_timing
            if self.trace_out:
                self.tracer.dump(self.trace_out)
        return payload


def emit(payload: Dict[str, object]) -> None:
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    sys.stdout.flush()


async def serve(trace_out: Optional[str]) -> None:
    loop = asyncio.get_running_loop()
    commands = asyncio.StreamReader(limit=1 << 28)     # the fixture is one long line
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(commands), sys.stdin
    )
    fixture = json.loads(await commands.readline())
    server, setup_seconds, setup_calibration = timed_builds(fixture)
    del fixture
    calibrator = Calibrator()
    calibrating = asyncio.create_task(calibrator.run())
    async with AsyncDataServer(server) as front:
        monitor = Monitor(front, calibrator, trace_out)
        emit({"port": front.port, "setup_s": setup_seconds,
              "calibration_round_s": setup_calibration})
        while True:
            command = (await commands.readline()).decode().strip()
            if command in ("", "quit"):
                break
            emit(monitor.commands[command]())
        calibrating.cancel()
        try:
            await calibrating
        except asyncio.CancelledError:
            pass    # cancelled just above, by this coroutine
        emit(monitor.final())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", help="write the raw spans here at shutdown")
    args = parser.parse_args(argv)
    asyncio.run(serve(args.trace_out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
