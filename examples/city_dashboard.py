#!/usr/bin/env python3
"""A multi-tenant "intelligent city" dashboard over one cloud deployment.

The paper's motivating vision: many data owners (weather stations, GPS
fleets), many consumers (transport authority, a health agency, the
public), each with a *different* granularity of access to the same
underlying streams — all enforced by per-subject XACML policies on one
cloud, with handle caching at the proxy.

Subjects and their views of the weather stream:

- ``LTA``     — heavy-rain aggregate windows (the warning system);
- ``health``  — hourly temperature/humidity aggregates (flu tracking);
- ``public``  — coarse 20-tuple windows of temperature only;
- the GPS stream is shared with ``LTA`` as positions of its own fleet
  (filter on deviceid), nobody else.

Run with::

    python examples/city_dashboard.py
"""

from repro import AccessDeniedError, Request, stream_policy
from repro.framework.client import ClientInterface
from repro.framework.network import SimulatedNetwork
from repro.framework.proxy import Proxy
from repro.framework.server import DataServer
from repro.streams import QueryGraph, StreamEngine
from repro.streams.operators import (
    AggregateOperator,
    AggregationSpec,
    FilterOperator,
    MapOperator,
    WindowSpec,
    WindowType,
)
from repro.streams.schema import GPS_SCHEMA, WEATHER_SCHEMA
from repro.streams.sources import GpsSource, WeatherSource


def tuple_window(size, step, *specs):
    return AggregateOperator(
        WindowSpec(WindowType.TUPLE, size, step),
        [AggregationSpec.parse(s) for s in specs],
    )


def build_policies():
    lta_weather = QueryGraph("weather")
    lta_weather.append(FilterOperator("rainrate > 5"))
    lta_weather.append(MapOperator(["samplingtime", "rainrate", "windspeed"]))
    lta_weather.append(
        tuple_window(5, 2, "samplingtime:lastval", "rainrate:avg", "windspeed:max")
    )

    health_weather = QueryGraph("weather")
    health_weather.append(
        MapOperator(["samplingtime", "temperature", "humidity"])
    )
    health_weather.append(
        tuple_window(
            120, 120, "samplingtime:lastval", "temperature:avg", "humidity:avg"
        )
    )

    public_weather = QueryGraph("weather")
    public_weather.append(MapOperator(["samplingtime", "temperature"]))
    public_weather.append(
        tuple_window(20, 20, "samplingtime:lastval", "temperature:avg")
    )

    lta_gps = QueryGraph("gps")
    lta_gps.append(FilterOperator("deviceid = 'device-00'"))
    lta_gps.append(MapOperator(["samplingtime", "deviceid", "latitude", "longitude", "speed"]))

    return [
        stream_policy("city:weather:lta", "weather", lta_weather, subject="LTA"),
        stream_policy("city:weather:health", "weather", health_weather, subject="health"),
        stream_policy("city:weather:public", "weather", public_weather, subject="public"),
        stream_policy("city:gps:lta", "gps", lta_gps, subject="LTA"),
    ]


def main():
    # -- deploy the cloud ----------------------------------------------------
    network = SimulatedNetwork()
    engine = StreamEngine(host="cloud.city.sg")
    engine.register_input_stream("weather", WEATHER_SCHEMA)
    engine.register_input_stream("gps", GPS_SCHEMA)
    # Single-access enforcement is relaxed so tenants can refresh their
    # dashboards (re-request the same stream); see examples/privacy_attack.py
    # for the guard in action.
    server = DataServer(
        network, engine=engine, allow_partial_results=True,
        enforce_single_access=False,
    )
    proxy = Proxy(server, network)
    client = ClientInterface(proxy, network)

    # The server is the simulation-free service core; the deployment
    # charges the paper's per-policy load delay once each load succeeded.
    total_load = 0.0
    for policy in build_policies():
        server.load_policy(policy)
        total_load += network.policy_load()
    print(f"loaded 4 policies in {total_load:.2f} simulated seconds")

    # -- each tenant requests its view ---------------------------------------
    handles = {}
    for subject, stream in (
        ("LTA", "weather"), ("health", "weather"),
        ("public", "weather"), ("LTA", "gps"),
    ):
        response, trace = client.request_stream(Request.simple(subject, stream))
        handles[(subject, stream)] = response.handle_uri
        print(
            f"{subject:>7s} ← {stream:<8s} handle={response.handle_uri}  "
            f"({trace.total:.3f}s simulated)"
        )

    # access control is subject-specific:
    try:
        client_response, _ = client.request_stream(Request.simple("public", "gps"))
        assert not client_response.ok
        print(f" public ← gps      DENIED ({client_response.error_kind})")
    except AccessDeniedError as error:
        print(f" public ← gps      DENIED ({error})")

    # -- data flows -------------------------------------------------------------
    engine.push_batch("weather", WeatherSource(seed=3).records(800))
    engine.push_batch("gps", GpsSource(seed=11).records(400))

    print("\n=== What each tenant sees ===")
    lta = engine.read(handles[("LTA", "weather")])
    print(f"LTA warning system: {len(lta)} heavy-rain windows; "
          f"first: avg rainrate {lta[0]['avgrainrate']:.1f} mm/h" if lta
          else "LTA warning system: no heavy rain in this period")
    health = engine.read(handles[("health", "weather")])
    for window in health:
        print(
            f"health agency: hourly avg temperature {window['avgtemperature']:.1f}°C, "
            f"humidity {window['avghumidity']:.0f}%"
        )
    public = engine.read(handles[("public", "weather")])
    print(f"public dashboard: {len(public)} coarse temperature windows")
    fleet = engine.read(handles[("LTA", "gps")])
    print(f"LTA fleet view: {len(fleet)} positions of device-00 only")
    others = {t["deviceid"] for t in fleet}
    assert others == {"device-00"}

    # -- the proxy cache makes repeated dashboard loads cheap -----------------
    print("\n=== Proxy cache effect on a dashboard refresh ===")
    proxy.invalidate()  # start from a cold cache for a fair comparison
    _, cold = client.request_stream(Request.simple("health", "weather"))
    _, warm = client.request_stream(Request.simple("health", "weather"))
    print(f"first load:  {cold.total:.3f}s simulated (cache_hit={cold.cache_hit})")
    print(f"refresh:     {warm.total:.3f}s simulated (cache_hit={warm.cache_hit})")
    print(f"speedup:     {cold.total / warm.total:.1f}x")


if __name__ == "__main__":
    main()
