#!/usr/bin/env python3
"""Quickstart: share a weather stream under a fine-grained policy.

Reproduces the paper's running example (Section 2.2): the National
Environmental Agency (NEA) publishes a real-time weather stream through
the cloud; the Land Transport Authority (LTA) may only see windowed
aggregates of (samplingtime, rainrate, windspeed) when it is raining
hard.

Run with::

    python examples/quickstart.py
"""

from repro import Request, UserQuery, XacmlPlusInstance, stream_policy
from repro.streams import QueryGraph
from repro.streams.operators import (
    AggregateOperator,
    AggregationSpec,
    FilterOperator,
    MapOperator,
    WindowSpec,
    WindowType,
)
from repro.streams.schema import WEATHER_SCHEMA
from repro.streams.sources import WeatherSource
from repro.xacml.xml_io import policy_to_xml


def main():
    # -- 1. The cloud provider deploys an XACML+ instance with a stream ---
    instance = XacmlPlusInstance(allow_partial_results=True)
    instance.engine.register_input_stream("weather", WEATHER_SCHEMA)

    # -- 2. NEA (the data owner) writes the Example 1 policy --------------
    # Only samplingtime, rainrate and windspeed are visible; data comes in
    # windows of 5 tuples advancing by 2 (lastval / avg / max); and only
    # when rainrate > 5 mm/hour.
    policy_graph = QueryGraph("weather")
    policy_graph.append(FilterOperator("rainrate > 5"))
    policy_graph.append(MapOperator(["samplingtime", "rainrate", "windspeed"]))
    policy_graph.append(
        AggregateOperator(
            WindowSpec(WindowType.TUPLE, size=5, step=2),
            [
                AggregationSpec.parse("samplingtime:lastval"),
                AggregationSpec.parse("rainrate:avg"),
                AggregationSpec.parse("windspeed:max"),
            ],
        )
    )
    policy = stream_policy(
        "nea:weather:lta", "weather", policy_graph, subject="LTA",
        description="NEA weather sharing policy for LTA (paper Example 1)",
    )
    instance.load_policy(policy)
    print("=== XACML policy (obligations carry the query graph) ===")
    print(policy_to_xml(policy))

    # -- 3. LTA requests the stream ----------------------------------------
    result = instance.request_stream(Request.simple("LTA", "weather"))
    print("=== Stream handle returned to LTA ===")
    print(result.handle.uri)
    print()
    print("=== StreamSQL submitted to the DSMS ===")
    print(result.streamsql)

    # -- 4. Weather data flows; LTA reads its authorized view -------------
    source = WeatherSource(seed=3, interval_seconds=30.0)
    instance.engine.push_batch("weather", source.records(400))
    outputs = instance.engine.read(result.handle)
    print(f"=== First 5 of {len(outputs)} windowed records visible to LTA ===")
    for tup in outputs[:5]:
        print(
            f"  t={tup['lastvalsamplingtime']:.0f}  "
            f"avg(rainrate)={tup['avgrainrate']:6.2f}  "
            f"max(windspeed)={tup['maxwindspeed']:5.2f}"
        )

    # -- 5. An unauthorized subject is denied ------------------------------
    from repro import AccessDeniedError

    try:
        instance.request_stream(Request.simple("acme-corp", "weather"))
    except AccessDeniedError as error:
        print(f"\nacme-corp is denied: {error}")

    # -- 6. NEA revokes the policy; LTA's standing query is withdrawn -----
    instance.remove_policy("nea:weather:lta")
    from repro.errors import UnknownHandleError

    try:
        instance.engine.read(result.handle)
    except UnknownHandleError:
        print("after policy removal, LTA's handle is dead (Section 3.3)")


if __name__ == "__main__":
    main()
