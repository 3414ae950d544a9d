"""Physical fiber topologies and the directed loss graph.

A physical topology is an undirected graph of sites joined by fiber links.
For a chosen source site the topology expands into a directed graph whose
vertices are switches, output ports and quantum memories:

* ``("gen",)`` - the photon-pair generator, colocated with the source; it
  is the source's switch;
* ``("mem", i)`` - node i's quantum memory, where photons terminate;
* ``("node", i)`` - consumer i's switch, where every fiber into i ends;
* ``("out", i, j)`` - node i's output port for the fiber departing to j.

Edge weights are losses in dB, so shortest paths are minimum-loss routes.
Every photon leaving a node traverses two wavelength-selective switches
(one demux, one mux), while a photon dropped into the local memory passes
only one; fiber spans lose ``fiber_loss_db_per_km`` per km.  The source
never relays foreign photons, so no fiber edge points toward it;
consequently consumer output ports facing the source are never created
(they could carry no traffic).

One switch vertex per consumer is exact.  A graph with one input port
``in(i, j)`` per incoming fiber would link it to every output port of i
at ``2 * wss`` and to i's memory at ``wss``, whatever j is, and its only
in-edge would be the fiber from j.  So each path through such ports maps
onto a path through ``node(i)`` with the same multiset of edge weights,
and so the same ``math.fsum`` total, and back.  Edge-disjointness maps
too: paths that share an edge out of ``in(i, j)`` share the fiber into
it, paths that share ``node(i) -> out(i, k)`` share the fiber i -> k out
of it, and a drop edge ends a path at its own memory.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Iterable, NamedTuple

Vertex = tuple
_ALLOWED_TOP_KEYS = {"name", "nodes", "links", "provenance"}
_ALLOWED_NODE_KEYS = {"id", "x_km", "y_km"}
_ALLOWED_LINK_KEYS = {"a", "b", "distance_km"}
_BUNDLED = ("simple6", "ilec17")


class TopologyError(ValueError):
    """Raised for malformed topology documents or invalid queries."""


@dataclass(frozen=True)
class Node:
    id: str
    x_km: float | None = None
    y_km: float | None = None


@dataclass(frozen=True)
class Link:
    a: str
    b: str
    distance_km: float | None = None


@dataclass(frozen=True)
class LossParams:
    """Loss model constants, all in dB."""

    fiber_loss_db_per_km: float = 0.4
    wss_loss_db: float = 8.0

    def __post_init__(self) -> None:
        if not 0 <= self.fiber_loss_db_per_km < math.inf:
            raise ValueError(
                "fiber_loss_db_per_km must be finite and >= 0, "
                f"got {self.fiber_loss_db_per_km}"
            )
        if not 0 <= self.wss_loss_db < math.inf:
            raise ValueError(
                f"wss_loss_db must be finite and >= 0, got {self.wss_loss_db}"
            )


@dataclass(frozen=True)
class PhysicalTopology:
    """Undirected fiber network of named sites."""

    name: str
    nodes: tuple[Node, ...]
    links: tuple[Link, ...]

    def __post_init__(self) -> None:
        by_id = {n.id: n for n in self.nodes}
        if len(by_id) != len(self.nodes):
            raise TopologyError(f"duplicate node ids in topology {self.name!r}")
        by_pair: dict[frozenset[str], Link] = {}
        adjacent: dict[str, set[str]] = {node_id: set() for node_id in by_id}
        for link in self.links:
            if link.a not in by_id or link.b not in by_id:
                raise TopologyError(
                    f"link {link.a}-{link.b} references unknown node"
                )
            if link.a == link.b:
                raise TopologyError(f"self-link at node {link.a}")
            key = frozenset((link.a, link.b))
            if key in by_pair:
                raise TopologyError(f"duplicate link {link.a}-{link.b}")
            by_pair[key] = link
            adjacent[link.a].add(link.b)
            adjacent[link.b].add(link.a)
            if link.distance_km is not None and not link.distance_km > 0:
                raise TopologyError(
                    f"link {link.a}-{link.b} distance must be > 0, got {link.distance_km}"
                )
        if len(self.nodes) > 1:
            isolated = sorted(node_id for node_id, nbrs in adjacent.items() if not nbrs)
            if isolated:
                raise TopologyError(f"isolated nodes: {', '.join(isolated)}")
        # Lookup maps, built once.  They are not dataclass fields, so
        # equality, hashing and repr still see only name, nodes and links.
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_by_pair", by_pair)
        object.__setattr__(self, "_neighbors", {
            node_id: tuple(sorted(nbrs)) for node_id, nbrs in adjacent.items()})

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(sorted(n.id for n in self.nodes))

    def node(self, node_id: str) -> Node:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise TopologyError(f"unknown node {node_id!r}") from None

    def neighbors(self, node_id: str) -> tuple[str, ...]:
        try:
            return self._neighbors[node_id]
        except KeyError:
            raise TopologyError(f"unknown node {node_id!r}") from None


def _require_keys(obj: dict, allowed: set[str], required: Iterable[str], what: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise TopologyError(f"unknown {what} keys: {', '.join(sorted(unknown))}")
    for key in required:
        if key not in obj:
            raise TopologyError(f"{what} missing required key {key!r}")


def _optional_km(entry: dict, key: str, what: str) -> float | None:
    """A finite real number, or None when the key is absent or null; the
    exact bound refuses an int too large for a float instead of overflowing."""
    value = entry.get(key)
    if value is None:
        return None
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise TopologyError(f"{what} {key} must be a finite number, got {value!r}")
    return value


def topology_from_dict(doc: dict[str, Any]) -> PhysicalTopology:
    """Build and validate a topology from a parsed JSON document.

    Accepted schema: top-level ``name``, ``nodes`` (objects with ``id``
    and optional ``x_km``/``y_km``), ``links`` (objects with ``a``, ``b``
    and optional ``distance_km``), plus an optional free-text
    ``provenance`` note.  Lengths and coordinates must be finite numbers.
    Anything else is rejected.
    """
    if not isinstance(doc, dict):
        raise TopologyError("topology document must be a JSON object")
    _require_keys(doc, _ALLOWED_TOP_KEYS, ("name", "nodes", "links"), "topology")
    for key in ("nodes", "links"):
        if not isinstance(doc[key], list):
            raise TopologyError(f"topology {key} must be a list")
    nodes = []
    for entry in doc["nodes"]:
        if not isinstance(entry, dict):
            raise TopologyError("node entries must be objects")
        _require_keys(entry, _ALLOWED_NODE_KEYS, ("id",), "node")
        what = f"node {entry['id']}"
        nodes.append(Node(str(entry["id"]), _optional_km(entry, "x_km", what),
                          _optional_km(entry, "y_km", what)))
    links = []
    for entry in doc["links"]:
        if not isinstance(entry, dict):
            raise TopologyError("link entries must be objects")
        _require_keys(entry, _ALLOWED_LINK_KEYS, ("a", "b"), "link")
        what = f"link {entry['a']}-{entry['b']}"
        links.append(Link(str(entry["a"]), str(entry["b"]),
                          _optional_km(entry, "distance_km", what)))
    return PhysicalTopology(str(doc["name"]), tuple(nodes), tuple(links))


def load_topology(path: str | Path) -> PhysicalTopology:
    """Load a topology JSON file; bare bundled names are resolved too."""
    name = str(path)
    if name in _BUNDLED and not Path(name).exists():
        return bundled_topology(name)
    with open(path, "r", encoding="utf-8") as fh:
        return topology_from_dict(json.load(fh))


def bundled_topology(name: str) -> PhysicalTopology:
    """Load one of the topologies shipped with the package."""
    if name not in _BUNDLED:
        raise TopologyError(
            f"unknown bundled topology {name!r}; available: {', '.join(_BUNDLED)}"
        )
    text = resources.files("eprnet.data").joinpath(f"{name}.json").read_text("utf-8")
    return topology_from_dict(json.loads(text))


def link_distance(topology: PhysicalTopology, a: str, b: str) -> float:
    """Length in km of the link between a and b.

    An explicitly stored distance wins; otherwise the Euclidean distance
    between node coordinates is used.
    """
    link = topology._by_pair.get(frozenset((a, b)))
    if link is None:
        raise TopologyError(f"no link between {a!r} and {b!r}")
    if link.distance_km is not None:
        return link.distance_km
    na, nb = topology.node(a), topology.node(b)
    if None in (na.x_km, na.y_km, nb.x_km, nb.y_km):
        raise TopologyError(
            f"link {a}-{b} has no distance and endpoint coordinates are incomplete"
        )
    return math.hypot(na.x_km - nb.x_km, na.y_km - nb.y_km)


def transmittance(loss_db: float) -> float:
    """Convert a loss in dB to a power/probability transmittance."""
    if not (0 <= loss_db < math.inf):  # also rejects NaN
        raise ValueError(f"loss must be finite and >= 0 dB, got {loss_db}")
    return 10.0 ** (-loss_db / 10.0)


def gen_vertex() -> Vertex:
    return ("gen",)


def mem_vertex(node_id: str) -> Vertex:
    return ("mem", node_id)


def out_port(node_id: str, neighbor_id: str) -> Vertex:
    return ("out", node_id, neighbor_id)


class GraphEdge(NamedTuple):
    """One directed loss edge; ``kind`` names the physical element.

    fiber: a fiber span (weight = fiber loss/km * distance)
    transit: through two switches (generator launch or node pass-through)
    drop: through one switch into a memory
    """

    tail: Vertex
    head: Vertex
    weight_db: float
    kind: str


@dataclass(frozen=True)
class RoutingGraph:
    """Directed loss graph for one source placement."""

    source: str
    vertices: tuple[Vertex, ...]
    edges: tuple[GraphEdge, ...]


def build_routing_graph(topology: PhysicalTopology, source: str,
                        loss: LossParams) -> RoutingGraph:
    """Expand a topology into the directed loss graph for one source.

    Args:
        topology: physical fiber network.
        source: id of the site hosting the generator.
        loss: loss model constants.

    Returns:
        RoutingGraph with deterministic vertex and edge ordering.
    """
    topology.node(source)
    node_ids = topology.node_ids
    mems = {i: mem_vertex(i) for i in node_ids}
    # Each vertex tuple is made once and shared by all edges at it.  Output
    # ports exist only where the outgoing fiber exists; fibers never point
    # at the source, so ports facing it are omitted everywhere.
    switches = {i: ("node", i) for i in node_ids}
    switches[source] = gen_vertex()
    outs = {i: {j: out_port(i, j) for j in topology.neighbors(i) if j != source}
            for i in node_ids}
    vertices = [switches[source], *mems.values()]
    vertices += [switches[i] for i in node_ids if i != source]
    for ports in outs.values():
        vertices.extend(ports.values())

    edges: list[GraphEdge] = []
    wss, transit_db = loss.wss_loss_db, 2 * loss.wss_loss_db
    for link in sorted(topology.links, key=lambda l: tuple(sorted((l.a, l.b)))):
        fiber_db = loss.fiber_loss_db_per_km * link_distance(topology, link.a, link.b)
        for tail_node, head_node in ((link.a, link.b), (link.b, link.a)):
            if head_node != source:
                edges.append(GraphEdge(outs[tail_node][head_node],
                                       switches[head_node], fiber_db, "fiber"))
    for i, switch in switches.items():
        edges += [GraphEdge(switch, q, transit_db, "transit") for q in outs[i].values()]
        edges.append(GraphEdge(switch, mems[i], wss, "drop"))

    return RoutingGraph(source, tuple(vertices), tuple(edges))
