"""Tests for the PEP workflow, access registry and graph manager."""

import pytest

from repro.core import UserQuery, XacmlPlusInstance, stream_policy
from repro.core.access_registry import AccessRegistry
from repro.errors import (
    AccessDeniedError,
    ConcurrentAccessError,
    EmptyResultWarning,
    PartialResultWarning,
    UnknownHandleError,
)
from repro.streams.engine import StreamEngine
from repro.streams.graph import QueryGraph
from repro.streams.handles import StreamHandle
from repro.streams.operators import FilterOperator, MapOperator, WindowSpec, WindowType
from repro.streams.schema import WEATHER_SCHEMA
from repro.xacml.request import Request
from tests.conftest import build_lta_user_query, build_nea_policy_graph, engine_outputs


def make_instance(**kwargs):
    instance = XacmlPlusInstance(**kwargs)
    instance.engine.register_input_stream("weather", WEATHER_SCHEMA)
    return instance


def load_simple_policy(instance, subject="LTA", condition="rainrate > 5",
                       policy_id="p1"):
    graph = QueryGraph("weather").append(FilterOperator(condition))
    policy = stream_policy(policy_id, "weather", graph, subject=subject)
    instance.load_policy(policy)
    return policy


class TestAccessRegistry:
    def test_acquire_conflict(self):
        registry = AccessRegistry()
        handle = StreamHandle("h", "q1")
        registry.acquire("u", "s", handle)
        with pytest.raises(ConcurrentAccessError):
            registry.acquire("u", "s", StreamHandle("h", "q2"))

    def test_check_without_binding(self):
        registry = AccessRegistry()
        registry.check("u", "s")
        registry.acquire("u", "s", StreamHandle("h", "q1"))
        with pytest.raises(ConcurrentAccessError):
            registry.check("u", "S")  # stream names case-insensitive

    def test_release_enables_reacquire(self):
        registry = AccessRegistry()
        handle = StreamHandle("h", "q1")
        registry.acquire("u", "s", handle)
        assert registry.release("u", "s") == handle
        registry.acquire("u", "s", StreamHandle("h", "q2"))

    def test_release_handle(self):
        registry = AccessRegistry()
        handle = StreamHandle("h", "q1")
        registry.acquire("u", "s", handle)
        registry.acquire("u", "other", handle)
        released = registry.release_handle(handle)
        assert len(released) == 2
        assert registry.active_count() == 0

    def test_different_subjects_independent(self):
        registry = AccessRegistry()
        registry.acquire("u1", "s", StreamHandle("h", "q1"))
        registry.acquire("u2", "s", StreamHandle("h", "q2"))

    def test_enforcement_off(self):
        registry = AccessRegistry(enforce=False)
        registry.acquire("u", "s", StreamHandle("h", "q1"))
        registry.acquire("u", "s", StreamHandle("h", "q2"))  # no error


class TestPepWorkflow:
    def test_permit_returns_handle_and_sql(self):
        instance = make_instance()
        load_simple_policy(instance)
        result = instance.request_stream(Request.simple("LTA", "weather"))
        assert result.handle.uri.startswith("stream://")
        assert "WHERE rainrate > 5" in result.streamsql
        assert result.response.policy_id == "p1"
        assert result.timings.total > 0

    def test_deny_unknown_subject(self):
        instance = make_instance()
        load_simple_policy(instance)
        with pytest.raises(AccessDeniedError):
            instance.request_stream(Request.simple("stranger", "weather"))

    def test_deny_unknown_stream_resource(self):
        instance = make_instance()
        load_simple_policy(instance)
        with pytest.raises(AccessDeniedError):
            instance.request_stream(Request.simple("LTA", "gps"))

    def test_user_query_stream_mismatch(self):
        instance = make_instance()
        load_simple_policy(instance)
        with pytest.raises(AccessDeniedError):
            instance.request_stream(
                Request.simple("LTA", "weather"), UserQuery("gps")
            )

    def test_single_access_enforced(self):
        instance = make_instance()
        load_simple_policy(instance)
        instance.request_stream(Request.simple("LTA", "weather"))
        with pytest.raises(ConcurrentAccessError):
            instance.request_stream(Request.simple("LTA", "weather"))

    def test_release_allows_reaccess(self):
        instance = make_instance()
        load_simple_policy(instance)
        result = instance.request_stream(Request.simple("LTA", "weather"))
        instance.release_stream(result.handle)
        instance.request_stream(Request.simple("LTA", "weather"))

    def test_nr_blocks_registration(self):
        instance = make_instance()
        load_simple_policy(instance, condition="rainrate < 4")
        query = UserQuery("weather", filter_condition="rainrate > 5")
        with pytest.raises(EmptyResultWarning) as excinfo:
            instance.request_stream(Request.simple("LTA", "weather"), query)
        assert excinfo.value.conflicts
        assert len(instance.engine.active_queries()) == 0

    def test_pr_blocks_by_default(self):
        instance = make_instance()
        load_simple_policy(instance, condition="rainrate > 8")
        query = UserQuery("weather", filter_condition="rainrate > 5")
        with pytest.raises(PartialResultWarning):
            instance.request_stream(Request.simple("LTA", "weather"), query)

    def test_pr_allowed_when_configured(self):
        instance = make_instance(allow_partial_results=True)
        load_simple_policy(instance, condition="rainrate > 8")
        query = UserQuery("weather", filter_condition="rainrate > 5")
        result = instance.request_stream(Request.simple("LTA", "weather"), query)
        assert any(w.is_pr for w in result.warnings)

    def test_merged_query_executes(self):
        instance = make_instance(allow_partial_results=True)
        graph = build_nea_policy_graph()
        instance.load_policy(stream_policy("nea", "weather", graph, subject="LTA"))
        result = instance.request_stream(
            Request.simple("LTA", "weather"), build_lta_user_query()
        )
        from repro.streams.sources import WeatherSource

        instance.engine.push_batch("weather", WeatherSource(seed=3).records(400))
        outputs = instance.engine.read(result.handle)
        assert outputs
        assert set(outputs[0].schema.attribute_names) == {
            "lastvalsamplingtime", "avgrainrate",
        }
        # Every emitted average is over tuples with rainrate > 50.
        assert all(t["avgrainrate"] > 50 for t in outputs)


class TestRevocation:
    def test_policy_removal_withdraws_queries(self):
        instance = make_instance()
        load_simple_policy(instance)
        result = instance.request_stream(Request.simple("LTA", "weather"))
        instance.remove_policy("p1")
        with pytest.raises(UnknownHandleError):
            instance.engine.read(result.handle)
        assert instance.graph_manager.revocations == 1
        # The registry binding is released too: a fresh policy allows access.
        load_simple_policy(instance, policy_id="p2")
        instance.request_stream(Request.simple("LTA", "weather"))

    def test_policy_update_withdraws_queries(self):
        instance = make_instance()
        policy = load_simple_policy(instance)
        result = instance.request_stream(Request.simple("LTA", "weather"))
        instance.update_policy(policy)
        with pytest.raises(UnknownHandleError):
            instance.engine.read(result.handle)

    def test_other_policies_unaffected(self):
        instance = make_instance()
        load_simple_policy(instance, subject="LTA", policy_id="p1")
        load_simple_policy(instance, subject="NEA", policy_id="p2")
        lta = instance.request_stream(Request.simple("LTA", "weather"))
        nea = instance.request_stream(Request.simple("NEA", "weather"))
        instance.remove_policy("p1")
        with pytest.raises(UnknownHandleError):
            instance.engine.read(lta.handle)
        instance.engine.read(nea.handle)  # still live

    def test_manager_bookkeeping(self):
        instance = make_instance()
        load_simple_policy(instance)
        result = instance.request_stream(Request.simple("LTA", "weather"))
        manager = instance.graph_manager
        assert manager.active_count() == 1
        spawned = manager.for_handle(result.handle)
        assert spawned.policy_id == "p1"
        assert spawned.subject == "LTA"
        assert manager.spawned_by("p1") == [spawned]
        manager.withdraw(result.handle)
        assert manager.active_count() == 0
        assert manager.spawned_by("p1") == []


class TestWindowRefinementThroughPep:
    def test_finer_user_window_is_nr_error(self):
        instance = make_instance()
        from repro.streams.operators import AggregateOperator, AggregationSpec

        graph = QueryGraph("weather").append(
            AggregateOperator(
                WindowSpec(WindowType.TUPLE, 5, 2),
                [AggregationSpec.parse("rainrate:avg")],
            )
        )
        instance.load_policy(stream_policy("p-agg", "weather", graph, subject="LTA"))
        query = UserQuery(
            "weather",
            window=WindowSpec(WindowType.TUPLE, 3, 2),
            aggregations=["rainrate:avg"],
        )
        with pytest.raises(EmptyResultWarning):
            instance.request_stream(Request.simple("LTA", "weather"), query)


class TestGrantTemplates:
    """Identical grants are stamped from one compiled template: what
    they share must be out of every grant's reach."""

    def nea_instance(self):
        instance = make_instance(allow_partial_results=True, enforce_single_access=False)
        instance.load_policy(
            stream_policy("nea", "weather", build_nea_policy_graph(), subject="LTA")
        )
        return instance

    def grant(self, instance):
        return instance.request_stream(
            Request.simple("LTA", "weather"), build_lta_user_query()
        )

    def test_a_grant_cannot_reach_the_next_identical_grant(self):
        """Appending to and running one grant's ``merged_graph`` leaves
        the next identical grant's graph, StreamSQL and output exactly
        what an untouched first grant's are."""
        from repro.streams.sources import WeatherSource

        records = WeatherSource(seed=3).records(400)
        untouched = self.nea_instance()
        expected = self.grant(untouched)
        untouched.engine.push_batch("weather", records)

        instance = self.nea_instance()
        first = self.grant(instance)
        # Run the granted graph on an engine of its own, windows and
        # all, then grow it.
        assert engine_outputs(
            StreamEngine(),
            first.merged_graph,
            WEATHER_SCHEMA,
            [untouched.engine.catalog.get("weather").snapshot()],
        )
        first.merged_graph.append(FilterOperator("avgrainrate > 1000"))
        first.warnings.append("scribbled")
        second = self.grant(instance)
        assert instance.pep.templates.hits == 1
        assert second.merged_graph is not first.merged_graph
        assert second.merged_graph.describe() == expected.merged_graph.describe()
        assert len(second.merged_graph) == len(first.merged_graph) - 1
        assert second.streamsql == expected.streamsql
        assert second.warnings == expected.warnings
        instance.engine.push_batch("weather", records)
        outputs = [t.values for t in instance.engine.read(second.handle)]
        assert outputs == [t.values for t in untouched.engine.read(expected.handle)]
        assert outputs == [t.values for t in instance.engine.read(first.handle)]

    def test_every_grant_has_its_own_name_handle_and_record(self):
        instance = self.nea_instance()
        instance.load_policy(
            stream_policy("nea2", "weather", build_nea_policy_graph(), subject="PUB")
        )
        first = self.grant(instance)
        other = instance.request_stream(
            Request.simple("PUB", "weather"), build_lta_user_query()
        )
        # Two policies, one obligation set: one template.
        assert (instance.pep.templates.hits, len(instance.pep.templates)) == (1, 1)
        assert first.merged_graph.name == "policy:nea+user:LTA"
        assert other.merged_graph.name == "policy:nea2+user:PUB"
        assert first.handle != other.handle
        assert instance.graph_manager.for_handle(other.handle).graph is other.merged_graph
        instance.remove_policy("nea")
        with pytest.raises(UnknownHandleError):
            instance.engine.read(first.handle)
        instance.engine.read(other.handle)

    def test_memo_is_bounded(self, monkeypatch):
        from repro import obs

        capacity = 8
        monkeypatch.setattr(obs, "MEMO_ENTRIES", capacity)
        instance = make_instance(enforce_single_access=False)
        memo = instance.pep.templates
        for n in range(capacity + 20):
            load_simple_policy(instance, condition=f"rainrate > {n}", policy_id=f"p{n}",
                               subject=f"u{n}")
            instance.request_stream(Request.simple(f"u{n}", "weather"))
            assert len(memo) <= capacity
        assert (memo.hits, memo.misses, len(memo)) == (0, capacity + 20, capacity)
        assert memo.bytes == sum(map(memo.weigh, memo.entries, memo.entries.values()))
        # Least recently granted goes first: the newest is a hit, the oldest not.
        instance.request_stream(Request.simple(f"u{capacity + 19}", "weather"))
        instance.request_stream(Request.simple("u0", "weather"))
        assert (memo.hits, memo.misses) == (1, capacity + 21)

    def test_templates_are_a_memo_of_this_pep_with_the_shared_bounds(self):
        from repro.obs import MEMO_ENTRIES, MEMOS, Memo

        templates = make_instance().pep.templates
        assert isinstance(templates, Memo) and templates not in MEMOS.values()
        assert templates.info().maxsize == MEMO_ENTRIES
        assert make_instance().pep.templates is not templates


@pytest.mark.xfail(strict=True, reason="ROADMAP item 20: the merge lets a user "
                   "filter on an attribute the policy withholds")
def test_a_user_filter_cannot_read_a_withheld_attribute():
    """Noninterference (ROADMAP item 20).  The policy releases
    ``samplingtime, rainrate`` of rows with ``rainrate > 5``, so two
    inputs that differ only in ``temperature`` look the same through it,
    and the merged query must answer both alike.  Today the merge keeps
    the user's ``temperature > 25``, which reads the withheld attribute:
    ten such rows return 4 or 10."""
    policy = (QueryGraph("weather").append(FilterOperator("rainrate > 5"))
              .append(MapOperator(["samplingtime", "rainrate"])))
    query = UserQuery("weather", filter_condition="temperature > 25",
                      map_attributes=("samplingtime", "rainrate"))
    returned = []
    for temperatures in ([30.0] * 10, [30.0] * 4 + [20.0] * 6):
        instance = make_instance()
        instance.load_policy(stream_policy("p1", "weather", policy, subject="LTA"))
        handle = instance.request_stream(Request.simple("LTA", "weather"), query).handle
        instance.engine.push_batch("weather", [
            dict.fromkeys(WEATHER_SCHEMA.attribute_names, 1.0)
            | {"samplingtime": 1000.0, "rainrate": 8.0, "winddirection": 90,
               "temperature": temperature}
            for temperature in temperatures
        ])
        returned.append([t.values for t in instance.engine.read(handle)])
    assert returned[0] == returned[1]
