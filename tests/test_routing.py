import math
import random

import pytest

from eprnet import (
    Link,
    LossParams,
    Node,
    PhysicalTopology,
    RoutingError,
    all_pair_routes,
    build_routing_graph,
    bundled_topology,
    route_nodes,
    suurballe_disjoint_pair,
    topology_from_dict,
)
from oracles import best_disjoint_total, reference_route_table, reference_suurballe


class TestSuurballeSmall:
    def test_parallel_edges(self):
        pair = suurballe_disjoint_pair([("s", "t", 1.0), ("s", "t", 2.0)], "s", "t")
        assert pair is not None
        assert pair.first == (0,)
        assert pair.second == (1,)
        assert pair.total_weight == 3.0

    def test_diamond(self):
        edges = [
            ("s", "a", 1.0), ("a", "t", 1.0),
            ("s", "b", 2.0), ("b", "t", 2.0),
        ]
        pair = suurballe_disjoint_pair(edges, "s", "t")
        assert pair is not None
        assert pair.total_weight == 6.0
        assert set(pair.first) | set(pair.second) == {0, 1, 2, 3}

    def test_shortest_path_blocks_both(self):
        # The weight-0 middle edge belongs to the unique shortest path;
        # the optimal pair must route around it on one side.
        edges = [
            ("s", "a", 1.0), ("a", "t", 4.0),
            ("s", "b", 2.0), ("b", "t", 2.0),
            ("a", "b", 0.0),
        ]
        pair = suurballe_disjoint_pair(edges, "s", "t")
        assert pair is not None
        assert pair.total_weight == best_disjoint_total(edges, "s", "t")

    def test_single_path_only(self):
        assert suurballe_disjoint_pair([("s", "a", 1.0), ("a", "t", 1.0)],
                                       "s", "t") is None

    def test_disconnected(self):
        assert suurballe_disjoint_pair([("s", "a", 1.0)], "s", "t") is None

    def test_reversal_relaxed_after_real_edges(self):
        # Zero-weight ties: relaxing vertex 1's reversed first-path edge
        # before its real edges would return ((5, 3, 4), (6, 9)) instead,
        # of equal weight.
        edges = [(1, 3, 0.0), (1, 3, 1.0), (1, 0, 0.0), (1, 2, 1.0),
                 (2, 4, 1.0), (0, 1, 0.0), (0, 3, 1.0), (2, 1, 0.0),
                 (3, 1, 0.0), (3, 4, 0.0)]
        pair = suurballe_disjoint_pair(edges, 0, 4)
        assert pair is not None
        assert (pair.first, pair.second) == ((5, 0, 8, 3, 4), (6, 9))
        assert [pair.first, pair.second] == reference_suurballe(edges, 0, 4)

    @pytest.mark.parametrize("weight", [math.inf, math.nan, -1.0])
    def test_invalid_weight_rejected(self, weight):
        with pytest.raises(RoutingError, match="invalid weight"):
            suurballe_disjoint_pair([("s", "t", 1.0), ("s", "t", weight)],
                                    "s", "t")

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValueError):
            suurballe_disjoint_pair([("s", "t", 1.0)], "s", "s")

    def test_edge_disjoint_not_vertex_disjoint(self):
        # Both paths may share vertex "m" but never an edge.
        edges = [
            ("s", "m", 1.0), ("s", "m", 1.0),
            ("m", "t", 1.0), ("m", "t", 1.0),
        ]
        pair = suurballe_disjoint_pair(edges, "s", "t")
        assert pair is not None
        assert not set(pair.first) & set(pair.second)
        assert pair.total_weight == 4.0


class TestSuurballeRandomized:
    @pytest.mark.parametrize("case", range(60))
    def test_matches_exhaustive_oracle(self, case):
        rng = random.Random(1234 + case)
        n = rng.randint(2, 6)
        vertices = list(range(n))
        edges = []
        for _ in range(rng.randint(1, 12)):
            a, b = rng.sample(vertices, 2)
            edges.append((a, b, round(rng.uniform(0.0, 5.0), 3)))
        got = suurballe_disjoint_pair(edges, 0, n - 1)
        want = best_disjoint_total(edges, 0, n - 1)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got.total_weight == pytest.approx(want, rel=1e-9, abs=1e-9)
            assert not set(got.first) & set(got.second)

    @pytest.mark.parametrize("case", range(10))
    def test_paths_are_walks(self, case):
        rng = random.Random(555 + case)
        n = rng.randint(3, 6)
        edges = []
        for _ in range(14):
            a, b = rng.sample(range(n), 2)
            edges.append((a, b, rng.uniform(0.1, 3.0)))
        pair = suurballe_disjoint_pair(edges, 0, n - 1)
        if pair is None:
            return
        for path in (pair.first, pair.second):
            assert edges[path[0]][0] == 0
            assert edges[path[-1]][1] == n - 1
            for prev, cur in zip(path, path[1:]):
                assert edges[prev][1] == edges[cur][0]


class TestPairRoutes:
    def test_two_node_anchor(self, two_node, default_loss):
        graph = build_routing_graph(two_node, "s", default_loss)
        plan = all_pair_routes(graph).plans[("a", "s")]
        assert plan.total_loss_db == pytest.approx(32.4, abs=1e-9)
        assert plan.eta == pytest.approx(10 ** -3.24, rel=1e-12)

    def test_star3_anchor(self, star3, default_loss):
        graph = build_routing_graph(star3, "s", default_loss)
        plan = all_pair_routes(graph).plans[("a", "b")]
        assert plan.total_loss_db == pytest.approx(48.8, abs=1e-9)
        assert plan.eta == pytest.approx(1.3182567385564074e-5, rel=1e-12)

    def test_chain_pair_infeasible(self, chain3, default_loss):
        # Both fibers out of the middle node are needed twice; the two
        # endpoint memories cannot be reached edge-disjointly from s.
        graph = build_routing_graph(chain3, "s", default_loss)
        assert ("a", "b") not in all_pair_routes(graph).plans

    def test_route_nodes_decodes_ports(self, two_node, default_loss):
        graph = build_routing_graph(two_node, "s", default_loss)
        plan = all_pair_routes(graph).plans[("a", "s")]
        paths = sorted((plan.path_a, plan.path_b), key=len)
        assert route_nodes(graph, paths[0]) == ["s"]
        assert route_nodes(graph, paths[1]) == ["s", "a"]


class TestRouteTables:
    def test_simple6_all_pairs_feasible(self, default_loss):
        topology = bundled_topology("simple6")
        graph = build_routing_graph(topology, "A", default_loss)
        table = all_pair_routes(graph)
        assert table.source == "A"
        assert len(table.plans) == math.comb(6, 2)
        assert table.infeasible == ()
        for (i, j), plan in table.plans.items():
            assert i < j
            assert plan.pair == (i, j)
            assert not set(plan.path_a) & set(plan.path_b)
            assert plan.eta == pytest.approx(10 ** (-plan.total_loss_db / 10),
                                             rel=1e-12)

    def test_ilec17_all_pairs_feasible(self, default_loss):
        topology = bundled_topology("ilec17")
        graph = build_routing_graph(topology, "M", default_loss)
        table = all_pair_routes(graph)
        assert len(table.plans) == math.comb(17, 2)
        assert table.infeasible == ()

    def test_chain_reports_infeasible_pair(self, chain3, default_loss):
        graph = build_routing_graph(chain3, "s", default_loss)
        table = all_pair_routes(graph)
        assert table.infeasible == (("a", "b"),)
        assert set(table.plans) == {("a", "s"), ("b", "s")}

    def test_losses_monotone_in_wss(self, star3):
        cheap = build_routing_graph(star3, "s", LossParams(0.4, 4.0))
        dear = build_routing_graph(star3, "s", LossParams(0.4, 8.0))
        plan_cheap = all_pair_routes(cheap).plans[("a", "b")]
        plan_dear = all_pair_routes(dear).plans[("a", "b")]
        assert plan_cheap.total_loss_db < plan_dear.total_loss_db


class TestNonFiniteGraphs:
    def test_infinite_link_rejected_at_compile(self, default_loss):
        # A topology built in code skips the loader's checks; routing
        # must still refuse the infinite fiber loss instead of routing it.
        topology = PhysicalTopology(
            name="far", nodes=(Node("s"), Node("a")),
            links=(Link("s", "a", math.inf),),
        )
        graph = build_routing_graph(topology, "s", default_loss)
        with pytest.raises(RoutingError, match="invalid weight inf"):
            all_pair_routes(graph)


def _tie_heavy_topology(rng: random.Random, tree: bool):
    """Random connected topology whose links share a few lengths.

    Equal lengths (and zero switch loss) give many equal-loss routes, so
    only the tie rules decide which one is returned.
    """
    n = rng.randint(2, 7)
    names = [chr(ord("a") + i) for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    lengths = (1.0, 2.0, 2.5)
    links = {}
    for i in range(1, n):
        pair = tuple(sorted((order[i], order[rng.randrange(i)])))
        links[pair] = rng.choice(lengths)
    if not tree:
        extra = [(a, b) for ai, a in enumerate(names) for b in names[ai + 1:]
                 if (a, b) not in links]
        rng.shuffle(extra)
        for pair in extra[: rng.randint(0, len(extra))]:
            links[pair] = rng.choice(lengths)
    return topology_from_dict({
        "name": "ties",
        "nodes": [{"id": name} for name in names],
        "links": [{"a": a, "b": b, "distance_km": d}
                  for (a, b), d in sorted(links.items())],
    })


def _tie_heavy_graphs(block: int):
    """Block ``block``'s 60 random loss graphs; every fourth is a tree."""
    rng = random.Random(7001 + block)
    for case in range(60):
        topology = _tie_heavy_topology(rng, tree=case % 4 == 0)
        source = rng.choice(topology.node_ids)
        loss = LossParams(rng.choice([0.0, 0.4]), rng.choice([0.0, 4.0, 8.0]))
        yield build_routing_graph(topology, source, loss)


class TestRouteIdentity:
    """The shared-first-pass router returns the pinned router's paths.

    Totals alone are checked against the exhaustive oracle elsewhere; this
    pins every path, so the tie rules cannot drift.
    """

    @pytest.mark.parametrize("block", range(6))
    def test_random_tie_heavy_topologies(self, block):
        infeasible = 0
        for graph in _tie_heavy_graphs(block):
            table = all_pair_routes(graph)
            assert table == reference_route_table(graph)
            infeasible += len(table.infeasible)
        assert infeasible > 0

    def test_random_tie_heavy_multigraphs(self):
        # Small integer weights and parallel edges: many equal-weight
        # alternatives for the generic entry point.
        rng = random.Random(9090)
        for _ in range(300):
            n = rng.randint(2, 6)
            edges = [(*rng.sample(range(n), 2), float(rng.randint(0, 2)))
                     for _ in range(rng.randint(1, 16))]
            got = suurballe_disjoint_pair(edges, 0, n - 1)
            want = reference_suurballe(edges, 0, n - 1)
            if want is None:
                assert got is None
            else:
                assert got is not None and [got.first, got.second] == want

    @pytest.mark.parametrize("source", bundled_topology("ilec17").node_ids)
    def test_every_ilec17_placement(self, source, default_loss):
        graph = build_routing_graph(bundled_topology("ilec17"), source,
                                    default_loss)
        assert all_pair_routes(graph) == reference_route_table(graph)


def _u_turns(graph, table) -> list[int]:
    """Edges ``in(i, j) -> out(i, j)`` on the table's routes."""
    return [eid for plan in table.plans.values()
            for eid in plan.path_a + plan.path_b
            if _is_u_turn(graph.edges[eid])]


def _is_u_turn(edge) -> bool:
    return (edge.tail[0] == "in" and edge.head[0] == "out"
            and edge.tail[1:] == edge.head[1:])


class TestRoutesNeverUTurn:
    """The loss graph keeps U-turn edges, but no route takes one: cutting
    the detour j -> i -> j out of a path never costs loss or disjointness.
    """

    @pytest.mark.parametrize("wss", [0.0, 4.0, 8.0])
    @pytest.mark.parametrize("fiber", [0.0, 0.4])
    @pytest.mark.parametrize("name", ["simple6", "ilec17"])
    def test_bundled_topologies(self, name, fiber, wss):
        topology = bundled_topology(name)
        for source in topology.node_ids:
            graph = build_routing_graph(topology, source, LossParams(fiber, wss))
            assert any(_is_u_turn(edge) for edge in graph.edges)
            assert _u_turns(graph, all_pair_routes(graph)) == []

    @pytest.mark.parametrize("block", range(6))
    def test_random_tie_heavy_topologies(self, block):
        for graph in _tie_heavy_graphs(block):
            assert _u_turns(graph, all_pair_routes(graph)) == []
