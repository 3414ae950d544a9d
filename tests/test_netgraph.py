import json
import math
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eprnet
from eprnet import (
    GraphEdge,
    Link,
    LossParams,
    Node,
    PhysicalTopology,
    TopologyError,
    all_pair_routes,
    build_routing_graph,
    gen_vertex,
    link_distance,
    load_topology,
    mem_vertex,
    topology_from_dict,
    transmittance,
)
from oracles import reference_hop_graph, reference_routing_graph


def random_connected_topology(rng: random.Random, n: int) -> PhysicalTopology:
    """Spanning tree plus a few extra links, random distances in (0.1, 10]."""
    names = [chr(ord("A") + i) for i in range(n)]
    links = []
    seen = set()
    for i in range(1, n):
        j = rng.randrange(i)
        links.append(Link(names[j], names[i], rng.uniform(0.1, 10.0) + 1e-6))
        seen.add((names[j], names[i]))
    candidates = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
                  if (names[i], names[j]) not in seen]
    rng.shuffle(candidates)
    for a, b in candidates[:rng.randrange(0, 4)]:
        links.append(Link(a, b, rng.uniform(0.1, 10.0) + 1e-6))
    nodes = tuple(Node(name, float(i), 0.0) for i, name in enumerate(names))
    return PhysicalTopology(name=f"rand{n}", nodes=nodes, links=tuple(links))


class TestTwoNodeConstruction:
    def test_exact_vertices_and_edges(self, two_node, default_loss):
        graph = build_routing_graph(two_node, "s", default_loss)
        assert graph.vertices == (
            gen_vertex(), mem_vertex("a"), mem_vertex("s"), ("node", "a"))
        assert graph.edges == (
            GraphEdge(("node", "a"), mem_vertex("a"), 8.0, 0.0, "drop"),
            GraphEdge(gen_vertex(), ("node", "a"), 16.0, 0.4 * 1.0, "fiber"),
            GraphEdge(gen_vertex(), mem_vertex("s"), 8.0, 0.0, "drop"),
        )


class TestGraphInvariants:
    @pytest.mark.parametrize("case", range(25))
    def test_counts_match_closed_form(self, case, default_loss):
        rng = random.Random(900 + case)
        topology = random_connected_topology(rng, rng.randint(2, 6))
        source = rng.choice(topology.node_ids)
        graph = build_routing_graph(topology, source, default_loss)

        deg = {i: len(topology.neighbors(i)) for i in topology.node_ids}
        two_l = 2 * len(topology.links)
        n = len(topology.node_ids)

        # The generator, n memories and a switch per consumer.
        assert len(graph.vertices) == 2 * n

        by_kind = {"fiber": 0, "drop": 0}
        for e in graph.edges:
            by_kind[e.kind] += 1
        # One hop per directed fiber that does not point at the source.
        assert by_kind["fiber"] == two_l - deg[source]
        assert by_kind["drop"] == n

    @pytest.mark.parametrize("case", range(10))
    def test_port_direction_rules(self, case, default_loss):
        rng = random.Random(7000 + case)
        topology = random_connected_topology(rng, rng.randint(2, 6))
        source = rng.choice(topology.node_ids)
        graph = build_routing_graph(topology, source, default_loss)
        vertices = set(graph.vertices)
        assert {v[0] for v in vertices} == {"gen", "mem", "node"}
        assert ("node", source) not in vertices, (
            "the generator is the source's switch")
        for e in graph.edges:
            assert e.tail in vertices and e.head in vertices
            assert e.head != gen_vertex(), "no fiber may point at the source"
            assert e.tail[0] != "mem"
            if e.kind == "fiber":
                assert e.head[0] == "node"
                assert e.switch_db == 2 * default_loss.wss_loss_db
                assert e.fiber_db > 0
            else:
                assert e.kind == "drop" and e.head[0] == "mem"
                assert (e.switch_db, e.fiber_db) == (default_loss.wss_loss_db, 0.0)

    def test_unknown_source(self, two_node, default_loss):
        with pytest.raises(TopologyError):
            build_routing_graph(two_node, "zz", default_loss)


def _layout(graph):
    """Source, vertices, and edges as plain tuples, in order."""
    return graph.source, graph.vertices, [tuple(e) for e in graph.edges]


@st.composite
def placements(draw):
    """A random connected topology, one of its sites and a loss model.  Site
    names come in a random order, so sorting them is not a no-op, and some
    links take their length from the coordinates."""
    names = draw(st.permutations("abcdef"))[:draw(st.integers(1, 6))]
    pairs = {frozenset((names[i], names[draw(st.integers(0, i - 1))]))
             for i in range(1, len(names))}
    if len(names) > 1:
        pairs |= set(draw(st.lists(st.sampled_from(
            [frozenset((a, b)) for a in names for b in names if a < b]), max_size=5)))
    links = tuple(Link(*sorted(pair, reverse=draw(st.booleans())),
                       draw(st.none() | st.floats(0.1, 50.0)))
                  for pair in sorted(pairs, key=sorted))
    nodes = tuple(Node(name, float(k), float(k * k)) for k, name in enumerate(names))
    loss = LossParams(draw(st.sampled_from([0.0, 0.4]) | st.floats(0.0, 1.0)),
                      draw(st.sampled_from([0.0, 4.0, 8.0]) | st.floats(0.0, 20.0)))
    return PhysicalTopology("rand", nodes, links), draw(st.sampled_from(names)), loss


class TestGraphLayout:
    """``build_routing_graph`` keeps the pinned hop-by-hop build's vertex
    and edge order: edge ids are the router's tie-breakers."""

    @pytest.mark.parametrize("wss", [0.0, 4.0, 8.0])
    @pytest.mark.parametrize("fiber", [0.0, 0.4])
    @pytest.mark.parametrize("name", ["simple6", "ilec17"])
    def test_bundled_placements(self, name, fiber, wss):
        topology, loss = load_topology(name), LossParams(fiber, wss)
        for source in topology.node_ids:
            assert _layout(build_routing_graph(topology, source, loss)) == _layout(
                reference_hop_graph(topology, source, loss))

    @settings(max_examples=200, deadline=None)
    @given(placements())
    def test_random_topologies(self, placement):
        assert _layout(build_routing_graph(*placement)) == _layout(
            reference_hop_graph(*placement))

    def test_graph_edge_shape(self):
        edge = GraphEdge(gen_vertex(), mem_vertex("a"), 8.0, 0.0, "drop")
        assert GraphEdge._fields == ("tail", "head", "switch_db", "fiber_db",
                                     "kind")
        assert (edge.tail, edge.head, edge.switch_db, edge.fiber_db,
                edge.kind) == (("gen",), ("mem", "a"), 8.0, 0.0, "drop")
        assert repr(edge) == ("GraphEdge(tail=('gen',), head=('mem', 'a'), "
                              "switch_db=8.0, fiber_db=0.0, kind='drop')")
        with pytest.raises(AttributeError):
            edge.fiber_db = 1.0


def _route_values(graph):
    """Plan keys, infeasible pairs, and each plan's total and eta."""
    table = all_pair_routes(graph)
    return (list(table.plans), table.infeasible,
            [(p.total_loss_db, p.eta) for p in table.plans.values()])


class TestSwitchGraphMatchesPortGraph:
    """Routing the hop graph, one edge per directed fiber, gives bit for
    bit the totals, etas and infeasible pairs of routing the port-level
    graph, with a vertex per input and output port."""

    @pytest.mark.parametrize("wss", [0.0, 4.0, 8.0])
    @pytest.mark.parametrize("fiber", [0.0, 0.4])
    @pytest.mark.parametrize("name", ["simple6", "ilec17"])
    def test_bundled_placements(self, name, fiber, wss):
        topology, loss = load_topology(name), LossParams(fiber, wss)
        for source in topology.node_ids:
            assert _route_values(build_routing_graph(topology, source, loss)) == (
                _route_values(reference_routing_graph(topology, source, loss)))

    @settings(max_examples=200, deadline=None)
    @given(placements())
    def test_random_topologies(self, placement):
        assert _route_values(build_routing_graph(*placement)) == _route_values(
            reference_routing_graph(*placement))


class TestLossParams:
    @pytest.mark.parametrize("fiber, wss", [
        (math.nan, 8.0), (0.4, math.nan), (math.inf, 8.0), (0.4, math.inf),
        (-0.1, 8.0), (0.4, -1.0),
    ])
    def test_non_finite_or_negative_rejected(self, fiber, wss):
        with pytest.raises(ValueError):
            LossParams(fiber, wss)

    def test_zero_allowed(self):
        assert LossParams(0.0, 0.0).wss_loss_db == 0.0


class TestTransmittance:
    def test_anchors(self):
        assert transmittance(0.0) == 1.0
        assert transmittance(10.0) == pytest.approx(0.1, rel=1e-12)
        assert transmittance(23.0) == pytest.approx(10 ** -2.3, rel=1e-12)
        assert transmittance(23.0) == pytest.approx(0.005012, abs=1e-6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            transmittance(-0.1)

    @pytest.mark.parametrize("loss", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, loss):
        with pytest.raises(ValueError, match="finite"):
            transmittance(loss)

    def test_underflow_to_zero_rejected(self):
        # 10**-323.6 is the smallest subnormal; a little further rounds to 0.
        assert transmittance(3236.0) == 5e-324
        for loss in (3237.0, 1e300, sys.float_info.max):
            with pytest.raises(ValueError, match=re.escape(
                    f"loss {loss:g} dB underflows transmittance to 0")):
                transmittance(loss)


class TestHopLossOverflow:
    @pytest.mark.parametrize("fiber, wss, km, message", [
        # LossParams takes 1e308; the hop's two switches make it inf.
        (0.4, 1e308, 1.0, "2 x wss_loss_db 1e+308 + fiber_loss_db_per_km 0.4 x 1 km"),
        (1e300, 8.0, 1e10, "2 x wss_loss_db 8 + fiber_loss_db_per_km 1e+300 x 1e+10 km"),
        # Each part is finite; their sum is not.
        (1e308, 5e307, 1.0,
         "2 x wss_loss_db 5e+307 + fiber_loss_db_per_km 1e+308 x 1 km"),
    ])
    def test_hop_loss_past_the_largest_float_rejected(self, two_node, fiber, wss,
                                                      km, message):
        topology = PhysicalTopology("far", two_node.nodes, (Link("s", "a", km),))
        for source in ("s", "a"):
            with pytest.raises(ValueError, match=re.escape(
                    f"link s-a: hop loss {message} is not finite")):
                build_routing_graph(topology, source, LossParams(fiber, wss))

    def test_largest_finite_hop_builds(self, two_node):
        wss = sys.float_info.max / 4
        graph = build_routing_graph(two_node, "s", LossParams(wss, wss))
        assert {edge.switch_db for edge in graph.edges} == {wss, 2 * wss}
        assert {edge.fiber_db for edge in graph.edges} == {0.0, wss}


class TestLinkDistance:
    def test_euclidean_fallback(self):
        topology = PhysicalTopology(
            name="t345",
            nodes=(Node("a", 0.0, 0.0), Node("b", 3.0, 4.0)),
            links=(Link("a", "b", None),),
        )
        assert link_distance(topology, "a", "b") == pytest.approx(5.0)

    def test_stored_distance_wins(self):
        topology = PhysicalTopology(
            name="t22",
            nodes=(Node("a", 0.0, 0.0), Node("b", 3.0, 4.0)),
            links=(Link("a", "b", 2.2),),
        )
        assert link_distance(topology, "a", "b") == 2.2

    def test_missing_everything(self):
        # The length is resolved, or refused, when the topology is made.
        with pytest.raises(TopologyError, match="^link a-b has no distance"):
            PhysicalTopology(
                name="tnone",
                nodes=(Node("a", None, None), Node("b", 3.0, 4.0)),
                links=(Link("a", "b", None),),
            )

    def test_unknown_link(self, two_node):
        with pytest.raises(TopologyError):
            link_distance(two_node, "s", "s")


# What json.load can return: its floats include nan and inf, and its ints
# may lie beyond the float range.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 400, 10 ** 400)
    | st.floats() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)
NAMES = st.sampled_from(["a", "b", "c"])


@st.composite
def topology_docs(draw):
    """The accepted schema; in a messy document, now and then a value is
    arbitrary JSON, a key is missing, or a stray key is added."""
    messy = draw(st.booleans())

    def rarely() -> bool:
        return messy and draw(st.integers(0, 9)) == 9

    def length():
        if rarely():  # any float, or an int beyond the float range
            return draw(st.floats() | st.integers(2 ** 1024, 10 ** 400)
                        | st.integers(-10 ** 400, -2 ** 1024))
        return draw(st.none() | st.floats(0.1, 100.0))

    def obj(items):
        if rarely():
            return draw(JSON_VALUES)
        doc = {key: draw(JSON_VALUES) if rarely() else value
               for key, value in items.items() if not rarely()}
        if rarely():
            doc[draw(st.text(max_size=3))] = draw(JSON_VALUES)
        return doc

    ids = draw(st.lists(NAMES, min_size=1, max_size=3, unique=not rarely()))
    pairs = list(zip(ids, ids[1:]))  # a chain, so no node is isolated
    if messy:
        ends = st.sampled_from(ids) | NAMES
        pairs += draw(st.lists(st.tuples(ends, ends), max_size=2))
    nodes = [obj({"id": node, "x_km": length(), "y_km": length()})
             for node in ids]
    links = [obj({"a": a, "b": b, "distance_km": length()}) for a, b in pairs]
    return obj({"name": draw(NAMES), "nodes": nodes, "links": links,
                "provenance": draw(st.text(max_size=3))})


def is_float(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


class TestLoader:
    def base_doc(self):
        return {
            "name": "pair",
            "nodes": [{"id": "a", "x_km": 0.0, "y_km": 0.0},
                      {"id": "b", "x_km": 1.0, "y_km": 0.0}],
            "links": [{"a": "a", "b": "b", "distance_km": 1.0}],
        }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(self.base_doc()))
        topology = load_topology(path)
        assert topology.node_ids == ("a", "b")
        assert topology.links[0].distance_km == 1.0

    def test_unknown_top_key_rejected(self):
        doc = self.base_doc()
        doc["comment"] = "nope"
        with pytest.raises(TopologyError):
            topology_from_dict(doc)

    def test_unknown_node_key_rejected(self):
        doc = self.base_doc()
        doc["nodes"][0]["elevation"] = 12
        with pytest.raises(TopologyError):
            topology_from_dict(doc)

    def test_provenance_allowed(self):
        doc = self.base_doc()
        doc["provenance"] = "synthesized for tests"
        assert topology_from_dict(doc).name == "pair"

    @pytest.mark.parametrize("mutate", [
        lambda d: d["nodes"].append({"id": "a", "x_km": 2.0, "y_km": 0.0}),
        lambda d: d["links"].append({"a": "a", "b": "zz", "distance_km": 1.0}),
        lambda d: d["links"].append({"a": "a", "b": "a", "distance_km": 1.0}),
        lambda d: d["links"].append({"a": "b", "b": "a", "distance_km": 2.0}),
        lambda d: d["links"].__setitem__(0, {"a": "a", "b": "b", "distance_km": 0.0}),
    ])
    def test_invalid_documents_rejected(self, mutate):
        doc = self.base_doc()
        mutate(doc)
        with pytest.raises(TopologyError):
            topology_from_dict(doc)

    @pytest.mark.parametrize("value", [
        "5", True, {"km": 1.0}, [1.0], math.nan, math.inf, -math.inf,
        pytest.param(10 ** 400, id="1e400"), pytest.param(-10 ** 400, id="-1e400"),
    ])
    @pytest.mark.parametrize("where, key", [
        ("links", "distance_km"), ("nodes", "x_km"), ("nodes", "y_km"),
    ])
    def test_non_finite_or_non_numeric_lengths_rejected(self, where, key, value):
        doc = self.base_doc()
        doc[where][0][key] = value
        with pytest.raises(TopologyError, match="finite number"):
            topology_from_dict(doc)

    @pytest.mark.parametrize("value", [5, "ab", {"id": "a"}, None])
    @pytest.mark.parametrize("key", ["nodes", "links"])
    def test_non_list_nodes_or_links_rejected(self, key, value):
        doc = self.base_doc()
        doc[key] = value
        with pytest.raises(TopologyError, match=f"{key} must be a list"):
            topology_from_dict(doc)

    def test_json_infinity_distance_rejected(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(self.base_doc()).replace("1.0}]", "Infinity}]"))
        with pytest.raises(TopologyError, match="distance_km"):
            load_topology(path)

    def test_isolated_node_rejected(self):
        doc = self.base_doc()
        doc["nodes"].append({"id": "c", "x_km": 5.0, "y_km": 5.0})
        with pytest.raises(TopologyError):
            topology_from_dict(doc)

    @pytest.mark.parametrize("ends", [{}, {"x_km": 1.0}, {"y_km": 1.0}])
    def test_link_without_a_length_rejected_on_load(self, tmp_path, ends):
        doc = self.base_doc()
        doc["nodes"][1] = {"id": "b", **ends}
        doc["links"][0].pop("distance_km")
        path = tmp_path / "nolength.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(TopologyError, match="^link a-b has no distance and "
                           "endpoint coordinates are incomplete$"):
            load_topology(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_topology(tmp_path / "absent.json")

    @settings(max_examples=300, deadline=None)
    @given(topology_docs())
    def test_documents_load_or_raise_topology_error(self, doc):
        try:
            topology = topology_from_dict(doc)
        except TopologyError:
            return
        ids = [node.id for node in topology.nodes]
        assert len(set(ids)) == len(ids)
        for node in topology.nodes:
            assert isinstance(node.id, str)
            assert all(v is None or is_float(v) for v in (node.x_km, node.y_km))
        for link in topology.links:
            assert link.a in ids and link.b in ids and link.a != link.b
            assert link.distance_km is None or (is_float(link.distance_km)
                                                and link.distance_km > 0)


class TestBundledTopologies:
    def test_simple6_shape(self):
        topology = load_topology("simple6")
        assert len(topology.node_ids) == 6
        assert len(topology.links) == 8
        degrees = sorted(len(topology.neighbors(i)) for i in topology.node_ids)
        assert degrees == [2, 2, 3, 3, 3, 3]

    def test_ilec17_degree_profile(self):
        topology = load_topology("ilec17")
        assert len(topology.node_ids) == 17
        assert len(topology.links) == 110
        degrees = {i: len(topology.neighbors(i)) for i in topology.node_ids}
        assert degrees["M"] == 16
        assert degrees["P"] == 2
        assert degrees["Q"] == 4
        assert degrees["N"] == 15
        assert degrees["O"] == 15
        assert all(degrees[i] == 14 for i in "ABCDEFGHIJKL")

    def test_load_by_bare_name(self):
        # A bare bundled name reads the file packaged with eprnet.
        packaged = Path(eprnet.__file__).parent / "data" / "simple6.json"
        topology = load_topology("simple6")
        assert topology == topology_from_dict(json.loads(packaged.read_text()))
        assert topology.name == "simple6"


class TestTopologyValidation:
    def test_duplicate_undirected_link(self):
        with pytest.raises(TopologyError):
            PhysicalTopology(
                name="dup",
                nodes=(Node("a", 0.0, 0.0), Node("b", 1.0, 0.0)),
                links=(Link("a", "b", 1.0), Link("b", "a", 1.0)),
            )

    def test_neighbors_sorted(self, star3):
        assert star3.neighbors("s") == ("a", "b")

    def test_lookup_maps_stay_out_of_equality_hash_and_repr(self):
        nodes = (Node("a", 0.0, 0.0), Node("b", 3.0, 4.0))
        links = (Link("a", "b"),)
        one = PhysicalTopology("ab", nodes, links)
        two = PhysicalTopology("ab", nodes, links)
        assert one == two and hash(one) == hash(two)
        assert repr(one) == (
            f"PhysicalTopology(name='ab', nodes={nodes!r}, links={links!r})")
        assert link_distance(one, "b", "a") == 5.0
