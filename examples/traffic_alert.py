#!/usr/bin/env python3
"""Customised user queries: the LTA traffic-warning refinement.

Section 3.1's scenario: LTA discovers only rain above 50 mm/h affects
traffic, and its warning system wants windows of 10 tuples instead of 5.
Rather than post-processing locally, LTA ships a customised query (the
paper's Figure 4(a) XML) with its request; the PEP merges it with the
policy graph — demonstrating filter simplification, aggregation-spec
intersection and the NR/PR warnings when the refinement conflicts with
policy.

Run with::

    python examples/traffic_alert.py
"""

from repro import (
    EmptyResultWarning,
    PartialResultWarning,
    Request,
    UserQuery,
    XacmlPlusInstance,
    stream_policy,
)
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

#: LTA's customised query, exactly the paper's Figure 4(a).
USER_QUERY_XML = """
<UserQuery>
  <Stream name="weather" />
  <Filter>
    <FilterCondition> RainRate > 50 </FilterCondition>
  </Filter>
  <Map>
    <Attribute>RainRate</Attribute>
  </Map>
  <Aggregation>
    <WindowType>tuple</WindowType>
    <WindowSize>10</WindowSize>
    <WindowStep>2</WindowStep>
    <Attribute>avg(RainRate)</Attribute>
  </Aggregation>
</UserQuery>
"""


def build_instance():
    instance = XacmlPlusInstance(allow_partial_results=True)
    instance.engine.register_input_stream("weather", WEATHER_SCHEMA)
    graph = QueryGraph("weather")
    graph.append(FilterOperator("rainrate > 5"))
    graph.append(MapOperator(["samplingtime", "rainrate", "windspeed"]))
    graph.append(
        AggregateOperator(
            WindowSpec(WindowType.TUPLE, 5, 2),
            [
                AggregationSpec.parse("samplingtime:lastval"),
                AggregationSpec.parse("rainrate:avg"),
                AggregationSpec.parse("windspeed:max"),
            ],
        )
    )
    instance.load_policy(stream_policy("nea:weather:lta", "weather", graph, subject="LTA"))
    return instance


def main():
    instance = build_instance()

    # -- Merge the Figure 4(a) query with the Figure 1 policy -------------
    result = instance.request_stream(
        Request.simple("LTA", "weather"), USER_QUERY_XML
    )
    print("=== Merged StreamSQL (compare with the paper's Figure 4(b)) ===")
    print(result.streamsql)
    if result.warnings:
        print("warnings raised during merge:")
        for warning in result.warnings:
            print(f"  [{warning.verdict.name}] {warning.operator}: {warning.detail}")

    # -- Alerts fire only on heavy rain -------------------------------------
    instance.engine.push_batch("weather", WeatherSource(seed=3).records(600))
    alerts = instance.engine.read(result.handle)
    print(f"\n{len(alerts)} heavy-rain windows reached the warning system:")
    for tup in alerts[:5]:
        print(f"  ALERT avg(rainrate)={tup['avgrainrate']:.1f} mm/h")
    instance.release_stream(result.handle)

    # -- A conflicting refinement triggers PR ------------------------------
    print("\n=== PR: user asks for lighter rain than policy exposes ===")
    try:
        instance.pep.allow_partial_results = False
        instance.request_stream(
            Request.simple("LTA", "weather"),
            UserQuery("weather", filter_condition="rainrate > 2"),
        )
    except PartialResultWarning as warning:
        print(f"PR warning: {warning}")
        for report in warning.conflicts:
            print(f"  {report.operator}: {report.detail}")

    # -- An impossible refinement triggers NR -------------------------------
    print("\n=== NR: user condition contradicts policy ===")
    try:
        instance.request_stream(
            Request.simple("LTA", "weather"),
            UserQuery("weather", filter_condition="rainrate < 2"),
        )
    except EmptyResultWarning as warning:
        print(f"NR warning: {warning}")

    # -- A finer window than policy allows is rejected too ------------------
    print("\n=== NR: finer-grained window than policy permits ===")
    try:
        instance.request_stream(
            Request.simple("LTA", "weather"),
            UserQuery(
                "weather",
                window=WindowSpec(WindowType.TUPLE, 3, 1),
                aggregations=["avg(rainrate)"],
            ),
        )
    except EmptyResultWarning as warning:
        print(f"blocked: {warning}")


if __name__ == "__main__":
    main()
