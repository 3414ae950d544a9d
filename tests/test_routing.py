import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eprnet.routing
from eprnet import (
    GraphEdge,
    Link,
    LossParams,
    Node,
    PhysicalTopology,
    RoutingError,
    RoutingGraph,
    all_pair_routes,
    build_routing_graph,
    gen_vertex,
    load_topology,
    mem_vertex,
    route_nodes,
    topology_from_dict,
)
from oracles import (_ref_dijkstra, best_disjoint_total, element_edges,
                     reference_route_table)

GEN, A, B = gen_vertex(), mem_vertex("a"), mem_vertex("b")


def _graph(edges, extra=()) -> RoutingGraph:
    """A hand-built loss graph from (tail, head, weight) triples, each
    edge's loss ``(weight, 0.0)``; an edge's id is its position.  ``extra``
    vertices are listed right after the generator, even those that no edge
    touches."""
    vertices = dict.fromkeys(
        [GEN, *extra, *(v for tail, head, _ in edges for v in (tail, head))])
    return RoutingGraph("s", tuple(vertices), tuple(
        GraphEdge(tail, head, weight, 0.0, "fiber") for tail, head, weight in edges))


def _routes(graph):
    """``all_pair_routes(graph)``, checked path for path against the pinned
    router and total for total against exhaustive search."""
    table = all_pair_routes(graph)
    assert table == reference_route_table(graph)
    assert list(table.plans) == sorted(table.plans)
    edges = element_edges(graph)
    nodes = sorted(v[1] for v in graph.vertices if v[0] == "mem")
    for a, b in itertools.combinations(nodes, 2):
        ext = edges + [(mem_vertex(a), "end", 0.0), (mem_vertex(b), "end", 0.0)]
        want = best_disjoint_total(ext, GEN, "end")
        plan = table.plans.get((a, b))
        if want is None:
            assert plan is None and (a, b) in table.infeasible
        else:
            assert plan is not None
            assert plan.total_loss_db == want
            assert not set(plan.path_a) & set(plan.path_b)
    return table


def _random_graph(rng: random.Random, max_edges: int = 14) -> RoutingGraph:
    """The generator, two to four memories, one to four other vertices, at
    least one pair of parallel edges and small integer weights, so that
    equal-loss alternatives abound."""
    mems = [mem_vertex(name) for name in "abcd"[:rng.randint(2, 4)]]
    vertices = [GEN, *mems, *(("v", i) for i in range(rng.randint(1, 4)))]
    edges = []
    for k in range(rng.randint(2, max_edges)):
        # Two edges leave the generator, so that some pairs are servable.
        tail, head = rng.sample(vertices, 2) if k >= 2 else (
            GEN, rng.choice(vertices[1:]))
        edges.append((tail, head, float(rng.randint(0, 2))))
    tail, head, _ = rng.choice(edges)
    edges.append((tail, head, float(rng.randint(0, 2))))
    return _graph(edges, extra=mems)


class TestSuurballeSmall:
    def test_parallel_edges(self):
        v = ("v",)
        table = _routes(_graph([(GEN, v, 1.0), (GEN, v, 2.0),
                                (v, A, 0.0), (v, B, 0.0)]))
        plan = table.plans[("a", "b")]
        assert (plan.path_a, plan.path_b) == ((0, 2), (1, 3))
        assert plan.total_loss_db == 3.0

    def test_diamond(self):
        x, y, t = ("x",), ("y",), ("t",)
        table = _routes(_graph([(GEN, x, 1.0), (x, t, 1.0),
                                (GEN, y, 2.0), (y, t, 2.0),
                                (t, A, 0.0), (t, B, 0.0)]))
        plan = table.plans[("a", "b")]
        assert plan.total_loss_db == 6.0
        assert set(plan.path_a) | set(plan.path_b) == set(range(6))

    def test_shortest_path_blocks_both(self):
        # The weight-0 edge x -> y lies on the unique shortest path to t;
        # the optimal pair must route around it on one side.
        x, y, t = ("x",), ("y",), ("t",)
        table = _routes(_graph([(GEN, x, 1.0), (x, t, 4.0),
                                (GEN, y, 2.0), (y, t, 2.0), (x, y, 0.0),
                                (t, A, 0.0), (t, B, 0.0)]))
        plan = table.plans[("a", "b")]
        assert plan.total_loss_db == 9.0
        assert 4 not in plan.path_a + plan.path_b

    def test_single_path_only(self):
        v = ("v",)
        table = _routes(_graph([(GEN, v, 1.0), (v, A, 1.0), (v, B, 1.0)]))
        assert table.plans == {}
        assert table.infeasible == (("a", "b"),)

    def test_disconnected(self):
        # mem(b) has no in-edge at all.
        table = _routes(_graph([(GEN, A, 1.0), (GEN, A, 2.0)], extra=(A, B)))
        assert table.plans == {}
        assert table.infeasible == (("a", "b"),)

    def test_no_edges(self):
        table = _routes(_graph([], extra=(A, B)))
        assert table.plans == {}
        assert table.infeasible == (("a", "b"),)

    def test_reversal_relaxed_after_real_edges(self):
        # Zero-weight ties: relaxing the reversed first-path edge out of a
        # vertex before its real edges would return ((5, 6), (4,)) instead,
        # of equal total.
        v0, v1 = ("v", 0), ("v", 1)
        table = _routes(_graph([(v0, v1, 1.0), (v1, v0, 0.0), (v0, B, 0.0),
                                (v0, v1, 0.0), (GEN, B, 1.0), (GEN, v1, 0.0),
                                (v1, A, 1.0)], extra=(A, B)))
        plan = table.plans[("a", "b")]
        assert (plan.path_a, plan.path_b) == ((5, 1, 3, 6), (4,))
        assert plan.total_loss_db == 2.0

    def test_reduced_cost_summed_as_in_the_port_graph(self):
        # mem(a) is at 0.2 + 0.7 + 0.1 == 0.9999999999999999.  In b's
        # second pass edge 3 costs 0.1 + (0.2 + 0.7) - that == 0.0, as its
        # switch and fiber arcs would through an output port, and edge 0
        # an ulp.  Summed as (0.7 + 0.1) + 0.2 - that, edge 3 would cost
        # an ulp too, and the tie would go to edge 0.
        v = ("v",)
        graph = RoutingGraph("s", (GEN, A, B, v), (
            GraphEdge(GEN, A, 0.0, 1.0, "fiber"),
            GraphEdge(GEN, B, 0.2, 0.3, "fiber"),
            GraphEdge(GEN, v, 0.2, 0.0, "fiber"),
            GraphEdge(v, A, 0.7, 0.1, "fiber")))
        plan = _routes(graph).plans[("a", "b")]
        assert (plan.path_a, plan.path_b) == ((2, 3), (1,))

    @pytest.mark.parametrize("weight", [math.inf, math.nan, -1.0, "1", True])
    def test_invalid_weight_rejected(self, weight):
        # In either loss field; the error names the edge and the field.
        good = _graph([(GEN, A, 1.0), (GEN, B, 1.0)])
        for field in ("switch_db", "fiber_db"):
            bad = good.edges[1]._replace(**{field: weight})
            graph = RoutingGraph("s", good.vertices, (good.edges[0], bad))
            message = f"edge 1 has invalid {field} {weight!r}"
            with pytest.raises(RoutingError, match=re.escape(message)):
                all_pair_routes(graph)

    def test_edge_off_the_vertex_list_rejected(self):
        graph = _graph([(GEN, A, 1.0), (GEN, B, 1.0)])
        graph = RoutingGraph("s", graph.vertices[:-1], graph.edges)
        with pytest.raises(RoutingError, match="is not a vertex"):
            all_pair_routes(graph)

    def test_missing_generator_rejected(self):
        graph = RoutingGraph("s", (A, B), ())
        with pytest.raises(RoutingError, match="no generator vertex"):
            all_pair_routes(graph)

    def test_repeated_vertex_rejected(self):
        graph = _graph([(GEN, A, 1.0), (GEN, B, 1.0)])
        graph = RoutingGraph("s", graph.vertices + (A,), graph.edges)
        with pytest.raises(RoutingError, match="listed more than once"):
            all_pair_routes(graph)

    def test_edge_disjoint_not_vertex_disjoint(self):
        # Both paths pass through m and n but never share an edge.
        m, n = ("m",), ("n",)
        graph = _graph([(GEN, m, 1.0), (GEN, m, 1.0), (m, n, 1.0),
                        (m, n, 1.0), (n, A, 0.0), (n, B, 0.0)])
        plan = _routes(graph).plans[("a", "b")]
        assert plan.total_loss_db == 4.0
        for path in (plan.path_a, plan.path_b):
            assert [graph.edges[eid].head for eid in path][:2] == [m, n]


class TestSuurballeRandomized:
    @pytest.mark.parametrize("case", range(60))
    def test_matches_exhaustive_oracle(self, case):
        _routes(_random_graph(random.Random(1234 + case)))

    @pytest.mark.parametrize("case", range(10))
    def test_paths_are_walks(self, case):
        graph = _random_graph(random.Random(555 + case), max_edges=24)
        for (a, b), plan in all_pair_routes(graph).plans.items():
            for path, end in ((plan.path_a, a), (plan.path_b, b)):
                edges = [graph.edges[eid] for eid in path]
                assert edges[0].tail == GEN
                assert edges[-1].head == mem_vertex(end)
                for prev, cur in zip(edges, edges[1:]):
                    assert prev.head == cur.tail


@st.composite
def arc_lists(draw):
    """A start vertex and (tail, head, switch_db, fiber_db) arcs on up to 7
    vertices: self-loops, parallel arcs, zero losses, repeated losses and
    ties that only rounding makes (1e16 + 1.0 == 1e16)."""
    n = draw(st.integers(1, 7))
    vertex = st.integers(0, n - 1)
    loss = st.sampled_from([0.0, 1.0, 2.0, 1e16]) | st.floats(0.0, 4.0)
    arcs = st.lists(st.tuples(vertex, vertex, loss, loss), max_size=24)
    return draw(vertex), draw(arcs), n


class TestDijkstra:
    @settings(max_examples=400, deadline=None)
    @given(arc_lists())
    def test_matches_reference(self, case):
        start, arcs, n = case
        adjacency = [[] for _ in range(n)]
        ref_adjacency = {}
        for eid, (tail, head, switch_db, fiber_db) in enumerate(arcs):
            adjacency[tail].append((eid, head, switch_db, fiber_db))
            ref_adjacency.setdefault(tail, []).append(eid)
        dist, pred, order = eprnet.routing._dijkstra(adjacency, start)
        ref_dist, ref_pred = _ref_dijkstra(ref_adjacency, arcs, start)
        reached = {v: d for v, d in enumerate(dist) if d < math.inf}
        assert reached == ref_dist
        assert {v: pred[v] for v in reached if v != start} == ref_pred
        # Every reached vertex pops once, in order of distance.
        assert sorted(order) == sorted(reached)
        assert [dist[v] for v in order] == sorted(reached.values())


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
        topology = load_topology("simple6")
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
        topology = load_topology("ilec17")
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
        with pytest.raises(RoutingError, match="invalid fiber_db inf"):
            all_pair_routes(graph)

    def test_route_loss_past_the_largest_float_rejected(self):
        # Every hop is finite; a and b each lie one 1e308 dB hop out, so
        # the pair's two routes sum past the largest float.
        topology = PhysicalTopology(
            name="far", nodes=tuple(Node(i) for i in "absyz"),
            links=(Link("s", "y", 1.0), Link("s", "z", 1.0), Link("y", "z", 1.0),
                   Link("z", "a", 1e308), Link("y", "b", 1e308),
                   Link("a", "b", 1e308)),
        )
        graph = build_routing_graph(topology, "s", LossParams(1.0, 8.0))
        with pytest.raises(RoutingError, match="pair a-b: route loss overflows"):
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
        # alternatives in hand-built graphs.
        rng = random.Random(9090)
        feasible = infeasible = 0
        for _ in range(300):
            table = _routes(_random_graph(rng, max_edges=16))
            feasible += len(table.plans)
            infeasible += len(table.infeasible)
        assert feasible > 0 and infeasible > 0

    @pytest.mark.parametrize("source", load_topology("ilec17").node_ids)
    def test_every_ilec17_placement(self, source, default_loss):
        graph = build_routing_graph(load_topology("ilec17"), source,
                                    default_loss)
        table = all_pair_routes(graph)
        assert table == reference_route_table(graph)
        assert list(table.plans) == sorted(table.plans)

    @pytest.mark.parametrize("name", ["simple6", "ilec17"])
    def test_all_zero_weights(self, name):
        # Every route is lossless, so every edge-disjoint pair ties and
        # only the tie rules pick one: the heaviest tie case a second pass
        # shared by all pairs of one first memory meets.
        topology = load_topology(name)
        for source in topology.node_ids:
            graph = build_routing_graph(topology, source, LossParams(0.0, 0.0))
            assert all_pair_routes(graph) == reference_route_table(graph)


def _route_counting_passes(monkeypatch, graph):
    """``all_pair_routes(graph)``, the number of Dijkstra runs it made, and
    the first memory of each second pass.  That memory is the one vertex
    of ``mem`` kind with a reversed first-path arc out of it, provided no
    memory has real out-edges."""
    adjacencies = []
    dijkstra = eprnet.routing._dijkstra

    def counting(adjacency, start):
        adjacencies.append(adjacency)
        return dijkstra(adjacency, start)

    monkeypatch.setattr(eprnet.routing, "_dijkstra", counting)
    table = all_pair_routes(graph)
    firsts = [graph.vertices[v] for adjacency in adjacencies
              for v, arcs in enumerate(adjacency)
              if graph.vertices[v][0] == "mem"
              and any(arc[0] < 0 for arc in arcs)]
    return table, len(adjacencies), firsts


class TestSecondPassPerFirstMemory:
    """One first pass per placement, then one second pass per memory that
    pops before another, shared by all of that memory's pairs."""

    @pytest.mark.parametrize("source", load_topology("ilec17").node_ids)
    def test_ilec17_runs_one_pass_per_memory(self, source, default_loss,
                                             monkeypatch):
        graph = build_routing_graph(load_topology("ilec17"), source,
                                    default_loss)
        table, runs, firsts = _route_counting_passes(monkeypatch, graph)
        assert table.infeasible == ()
        assert runs == 17
        assert len(set(firsts)) == len(firsts) == 16

    @pytest.mark.parametrize("block", range(2))
    def test_at_most_one_second_pass_per_memory(self, block, monkeypatch):
        for graph in _tie_heavy_graphs(block):
            memories = sum(v[0] == "mem" for v in graph.vertices)
            _, runs, firsts = _route_counting_passes(monkeypatch, graph)
            assert runs == 1 + len(firsts) <= memories
            assert len(set(firsts)) == len(firsts)

    def test_unreachable_memory_runs_no_second_pass(self, monkeypatch):
        # mem(c) has no in-edge.  mem(a) pops before mem(b), so the one
        # second pass is a's; b, the last to pop, would need one only if
        # the pair (b, c) were routed.
        v, c = ("v",), mem_vertex("c")
        graph = _graph([(GEN, v, 1.0), (GEN, v, 2.0), (v, A, 0.0),
                        (v, B, 0.0)], extra=(A, B, c))
        table, runs, firsts = _route_counting_passes(monkeypatch, graph)
        assert set(table.plans) == {("a", "b")}
        assert table.infeasible == (("a", "c"), ("b", "c"))
        assert (runs, firsts) == (2, [A])


def _u_turns(graph, table) -> list[list[str]]:
    """Routes of the table that visit some site j, i, j in a row."""
    return [hops for plan in table.plans.values()
            for hops in (route_nodes(graph, plan.path_a),
                         route_nodes(graph, plan.path_b))
            if any(h == hops[k + 2] for k, h in enumerate(hops[:-2]))]


class TestRoutesNeverUTurn:
    """No route turns back on the fiber it arrived on: cutting the detour
    j -> i -> j out of a path never costs loss or disjointness.
    """

    @pytest.mark.parametrize("wss", [0.0, 4.0, 8.0])
    @pytest.mark.parametrize("fiber", [0.0, 0.4])
    @pytest.mark.parametrize("name", ["simple6", "ilec17"])
    def test_bundled_topologies(self, name, fiber, wss):
        topology = load_topology(name)
        for source in topology.node_ids:
            graph = build_routing_graph(topology, source, LossParams(fiber, wss))
            assert _u_turns(graph, all_pair_routes(graph)) == []

    @pytest.mark.parametrize("block", range(6))
    def test_random_tie_heavy_topologies(self, block):
        for graph in _tie_heavy_graphs(block):
            assert _u_turns(graph, all_pair_routes(graph)) == []
