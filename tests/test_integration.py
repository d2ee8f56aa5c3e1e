"""End-to-end lifecycle integration tests: several features interacting
over multi-source scenarios, the way a downstream user would drive them."""

from repro.cim.manager import CimPolicy
from repro.core.mediator import Mediator
from repro.core.views import ViewManager
from repro.dcsm.persistence import load_observations, save_observations
from repro.domains.base import simple_domain
from repro.storage import SqliteBackend
from repro.workloads.datasets import (
    build_inventory_engine,
    build_logistics_terrain,
    build_rope_testbed,
)


class TestLogisticsLifecycle:
    """The §2 scenario driven through caching, invalidation, and views."""

    def make(self) -> Mediator:
        mediator = Mediator()
        mediator.register_domain(build_inventory_engine(), site="maryland")
        mediator.register_domain(build_logistics_terrain(), site="bucknell")
        mediator.load_program(
            """
            routetosupplies(From, Item, To, Cost) :-
                in(T, ingres:select_eq('inventory', 'item', Item)) &
                =(T.loc, To) &
                in(R, terraindb:findrte(From, To)) &
                =(R.cost, Cost).
            """
        )
        return mediator

    def test_warm_invalidate_rewarm(self):
        mediator = self.make()
        query = "?- routetosupplies(place1, 'h-22 fuel', To, Cost)."
        cold = mediator.query(query, use_cim=True)
        warm = mediator.query(query, use_cim=True)
        assert warm.t_all_ms < cold.t_all_ms / 20

        # the inventory changed: drop only the relational entries
        engine = mediator.registry.get("ingres").domain
        engine.table("inventory").insert(("h-22 fuel", "fob_delta", 10))
        dropped = mediator.notify_source_changed("ingres")
        assert dropped >= 1
        fresh = mediator.query(query, use_cim=True)
        assert fresh.cardinality == cold.cardinality + 1
        # routes for the previously known locations still hit the cache
        assert fresh.execution.provenance["cache"] >= 3

    def test_view_materializes_route_table(self):
        mediator = self.make()
        views = ViewManager(mediator)
        view = views.materialize(
            "fuel_routes", "?- routetosupplies(place1, 'h-22 fuel', To, Cost)."
        )
        assert view.cardinality == 3
        local = mediator.query("?- fuel_routes(To, Cost).")
        assert local.t_all_ms < 10.0
        cheapest = min(local.answers, key=lambda a: a[1])
        assert cheapest[0] == "airstrip"

    def test_statistics_survive_restart(self, tmp_path):
        first_session = self.make()
        first_session.query("?- routetosupplies(place1, ammo, To, Cost).")
        backend = SqliteBackend(tmp_path / "stats.db")
        save_observations(first_session.dcsm, backend)
        backend.close()

        second_session = self.make()
        backend = SqliteBackend(tmp_path / "stats.db")
        second_session.dcsm.restore(load_observations(backend))
        backend.close()
        # the new session can price plans before running anything
        plans = second_session.plans(
            "?- routetosupplies(place1, ammo, To, Cost)."
        )
        estimate = second_session.cost_estimator.estimate(plans[0])
        assert estimate.vector.t_all_ms > 0


class TestRopeLifecycle:
    def test_interactive_session_then_full(self):
        mediator = build_rope_testbed()
        mediator.cim.policy = CimPolicy.PARTIAL_ONLY
        # warm with a narrow interval
        mediator.query("?- objects(4, 47, O).", use_cim=True)
        # interactive user peeks at the wider interval: partial, instant
        peek = mediator.query("?- objects(4, 200, O).", use_cim=True)
        assert not peek.complete
        assert peek.t_all_ms < 20.0
        # the user wants everything after all
        mediator.cim.policy = CimPolicy.SERIAL
        full = mediator.query("?- objects(4, 200, O).", use_cim=True)
        assert full.complete
        assert set(peek.answers) <= set(full.answers)

    def test_optimizer_improves_with_experience(self):
        mediator = build_rope_testbed()
        query = "?- query1(4, 47, Object, Size)."
        plans = mediator.plans(query)
        assert len(plans) == 2
        # run both orderings once (training)
        timings = {}
        for plan in plans:
            result = mediator.query(query, plan=plan)
            timings[plan.signature()] = result.t_all_ms
        # now the optimizer must pick the measured-faster ordering
        chosen = mediator.query(query)
        best_signature = min(timings, key=timings.get)
        assert chosen.chosen.signature() == best_signature

    def test_cursor_over_remote_join(self):
        mediator = build_rope_testbed(video_site="italy")
        with mediator.cursor("?- query3(4, 47, Object, Actor).") as cursor:
            first = cursor.fetch(2)
            assert len(first) == 2
            early_ms = cursor.elapsed_ms
            rest = cursor.fetch_all()
        assert len(first) + len(rest) == 6
        assert early_ms < cursor.elapsed_ms

    def test_union_vs_access_path_on_equivalent_rules(self):
        mediator = build_rope_testbed()
        # query3 and query4 are different predicates; make a predicate
        # with BOTH bodies as alternative rules
        mediator.load_program(
            """
            either(First, Last, Object, Actor) :- query3(First, Last, Object, Actor).
            either(First, Last, Object, Actor) :- query4(First, Last, Object, Actor).
            """
        )
        access_path = mediator.query("?- either(4, 47, O, A).")
        union = mediator.query(
            "?- either(4, 47, O, A).", semantics="union", deduplicate=True
        )
        # equivalent rules: dedup'd union equals the single branch
        assert sorted(set(access_path.answers)) == sorted(union.answers)


class TestMixedFeatureSession:
    def test_explain_validate_query_loop(self):
        from repro.core.explain import explain

        mediator = Mediator()
        mediator.register_domain(
            simple_domain("d", {"f": lambda: [1, 2, 3], "g": lambda x: [x * 2]})
        )
        mediator.load_program("p(X, Y) :- in(X, d:f()) & in(Y, d:g(X)).")
        assert mediator.validate_program() == []
        report = explain(mediator, "?- p(X, Y).")
        assert "candidate plan" in report
        result = mediator.query("?- p(X, Y).")
        assert result.cardinality == 3
        report_after = explain(mediator, "?- p(X, Y).")
        assert "<== chosen" in report_after  # statistics now price it
