"""Settings that no caller set stay deleted.

The merge's filter simplification and Figure 4(b)'s timestamp carrier
are rules, not options; the entities' names, the client's trace label
and the synthetic sources' clocks and storms are constants; no
constructor passes merge options along, nor selects a sharded PDP; and
the policy-load message nobody sent is gone.
"""

import inspect

import repro.framework.messages as messages
from repro.core.merge import MergeOptions
from repro.core.pep import PolicyEnforcementPoint
from repro.core.xacml_plus import XacmlPlusInstance
from repro.framework.client import ClientInterface
from repro.framework.direct import DirectQuerySystem
from repro.framework.metrics import MetricsCollector
from repro.framework.server import DataServer
from repro.streams.sources import GpsSource, WeatherSource
from repro.workload.runner import ExperimentRunner


def parameters(callable_):
    return list(inspect.signature(callable_).parameters)


def test_deleted_options_stay_deleted():
    assert MergeOptions._fields == ("map_semantics",)
    assert parameters(ExperimentRunner) == [
        "seed", "generator", "cache_enabled", "cache_capacity",
    ]
    assert parameters(DataServer) == [
        "network", "engine", "enforce_single_access", "allow_partial_results",
    ]
    assert parameters(XacmlPlusInstance) == [
        "engine", "enforce_single_access", "allow_partial_results",
    ]
    assert parameters(PolicyEnforcementPoint) == [
        "pdp", "engine", "access_registry", "graph_manager", "allow_partial_results",
    ]
    assert parameters(ClientInterface) == ["proxy", "network", "metrics"]
    assert parameters(DirectQuerySystem) == ["engine", "network", "metrics"]
    assert not hasattr(messages, "PolicyLoadMessage")
    assert parameters(MetricsCollector.ascii_cdf) == ["self", "systems", "points"]
    assert parameters(WeatherSource) == ["seed", "interval_seconds"]
    assert parameters(GpsSource) == ["seed", "device_count", "interval_seconds"]


def test_constants_keep_their_values():
    assert (DataServer.name, DirectQuerySystem.name) == ("server", "direct-client")
    assert ClientInterface.system_label == "exacml+"
    assert WeatherSource.START_TIME == GpsSource.START_TIME == 1_330_560_000.0
    assert (WeatherSource.STORM_PROBABILITY, WeatherSource.STORM_DURATION_MEAN) == (0.08, 12.0)
    for source in (WeatherSource(seed=1), GpsSource(seed=1)):
        assert source.next_record()["samplingtime"] == 1_330_560_000.0
