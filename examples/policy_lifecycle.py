#!/usr/bin/env python3
"""Policy lifecycle and revocation (Section 3.3).

With bounded data, enforcement ends when the query returns.  With
streams, the user holds a *handle* to a standing query — so removing or
modifying a policy must immediately withdraw every query graph the
policy spawned, or revoked users keep drinking from the stream.

This script walks the full lifecycle: author a policy as XML, load it,
grant access, tighten the policy (update → revoke + re-grant), remove it
(revoke), and show the bookkeeping the query-graph manager maintains.

Run with::

    python examples/policy_lifecycle.py
"""

from repro import Request, XacmlPlusInstance, stream_policy
from repro.errors import PartialResultWarning, UnknownHandleError
from repro.streams import QueryGraph
from repro.streams.operators import FilterOperator, MapOperator
from repro.streams.schema import WEATHER_SCHEMA
from repro.streams.sources import WeatherSource
from repro.xacml.xml_io import parse_policy_xml, policy_to_xml


def policy_version(threshold: float):
    graph = QueryGraph("weather")
    graph.append(FilterOperator(f"rainrate > {threshold}"))
    graph.append(MapOperator(["samplingtime", "rainrate"]))
    return stream_policy(
        "nea:weather:press", "weather", graph, subject="press",
        description=f"press may see rain above {threshold} mm/h",
    )


def main():
    instance = XacmlPlusInstance(allow_partial_results=True)
    instance.engine.register_input_stream("weather", WEATHER_SCHEMA)

    # -- author as XML, load from XML (the paper's workload file format) --
    xml_document = policy_to_xml(policy_version(threshold=5))
    print("=== Policy as shipped to the data server ===")
    print(xml_document)
    instance.load_policy(xml_document)

    # -- grant ------------------------------------------------------------
    result = instance.request_stream(Request.simple("press", "weather"))
    print(f"press holds {result.handle.uri}")
    manager = instance.graph_manager
    spawned = manager.for_handle(result.handle)
    print(
        f"manager records: policy={spawned.policy_id} subject={spawned.subject} "
        f"stream={spawned.stream}"
    )

    instance.engine.push_batch("weather", WeatherSource(seed=3).records(150))
    before = len(instance.engine.read(result.handle))
    print(f"press has received {before} tuples under the v1 policy")

    # -- update: tighten the threshold — the old grant dies instantly ------
    print("\n=== NEA tightens the policy (update → immediate revocation) ===")
    instance.update_policy(policy_version(threshold=50))
    try:
        instance.engine.read(result.handle)
    except UnknownHandleError:
        print("the old handle is dead; the v1 query graph was withdrawn")
    print(f"revocations performed by the manager: {manager.revocations}")

    # -- the press re-requests and now sees only heavy rain ----------------
    result2 = instance.request_stream(Request.simple("press", "weather"))
    instance.engine.push_batch("weather", WeatherSource(seed=5).records(150))
    tuples = instance.engine.read(result2.handle)
    assert all(t["rainrate"] > 50 for t in tuples)
    print(f"re-granted under v2: {len(tuples)} tuples, all with rainrate > 50")

    # -- removal ---------------------------------------------------------------
    print("\n=== NEA removes the policy entirely ===")
    instance.remove_policy("nea:weather:press")
    try:
        instance.engine.read(result2.handle)
    except UnknownHandleError:
        print("handle withdrawn; no standing query outlives its policy")
    from repro import AccessDeniedError

    try:
        instance.request_stream(Request.simple("press", "weather"))
    except AccessDeniedError:
        print("new requests are now denied — decision and enforcement agree")


if __name__ == "__main__":
    main()
