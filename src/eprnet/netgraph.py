"""Physical fiber topologies and the directed loss graph.

A physical topology is an undirected graph of sites joined by fiber links.
For a chosen source site the topology expands into a directed graph whose
vertices are switches and quantum memories:

* ``("gen",)`` - the photon-pair generator, colocated with the source; it
  is the source's switch;
* ``("mem", i)`` - node i's quantum memory, where photons terminate;
* ``("node", i)`` - consumer i's switch, where every fiber into i ends.

Edge losses are in dB, split by element, so shortest paths are minimum-loss
routes.  A ``"fiber"`` edge ``switch(a) -> switch(b)`` is one hop: out
through two wavelength-selective switches (one demux, one mux), ``switch_db
= 2 * wss``, then over the span, ``fiber_db`` = ``fiber_loss_db_per_km`` per
km.  A ``"drop"`` edge into the local memory passes one switch: ``(wss,
0.0)``.  The source never relays foreign photons, so no fiber edge points
toward it.

Routing this graph gives bit for bit the losses of routing a port graph,
where consumer i has an input port ``in(i, j)`` per incoming fiber, linked
to each output port ``out(i, k)`` at ``2 * wss`` and to mem(i) at ``wss``,
and ``out(i, k)`` to ``in(k, i)`` by the fiber:

* ``in(i, j)``'s only in-edge is the fiber from j, and its out-edges do not
  depend on j, so paths through input ports map onto paths through
  ``node(i)`` with the same edges, and back.  Paths sharing an edge out of
  ``in(i, j)`` share the fiber into it, so edge-disjointness maps too.
* ``out(i, k)`` has one in-edge and one out-edge, so a path takes both or
  neither.  Relaxing ``d + switch_db + fiber_db`` left to right gives k the
  float ``(d + 2 * wss) + fiber`` the port gave it in two steps.  The port's
  switch arc has reduced cost ``(d + 2 * wss) - dist[out]``, exactly 0, and
  its fiber arc ``fiber + (d + 2 * wss) - dist[k]``, which the hop's fields
  give again.  A plan's total, ``math.fsum`` over both fields of its edges,
  only adds zeros to the port edges' losses.

Routes that tie on loss may still take other hops: edge ids break ties.
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
    eta = 10.0 ** (-loss_db / 10.0)
    if eta == 0.0:  # beyond about 3,236 dB
        raise ValueError(f"loss {loss_db:g} dB underflows transmittance to 0")
    return eta


def gen_vertex() -> Vertex:
    return ("gen",)


def mem_vertex(node_id: str) -> Vertex:
    return ("mem", node_id)


class GraphEdge(NamedTuple):
    """One directed loss edge; its losses are split by element.

    fiber: one hop, out through two switches (``switch_db``) and over a
        fiber span (``fiber_db`` = fiber loss/km * distance)
    drop: through one switch into a memory (``fiber_db`` = 0.0)
    """

    tail: Vertex
    head: Vertex
    switch_db: float
    fiber_db: float
    kind: str


@dataclass(frozen=True)
class RoutingGraph:
    """Directed loss graph for one source placement."""

    source: str
    vertices: tuple[Vertex, ...]
    edges: tuple[GraphEdge, ...]


def build_routing_graph(topology: PhysicalTopology, source: str,
                        loss: LossParams) -> RoutingGraph:
    """Expand a topology into the directed loss graph for one source, the
    site hosting the generator.  Vertex and edge order are deterministic:
    edge ids break the router's ties.  A hop loss past the largest float
    is refused with a ValueError naming the link."""
    topology.node(source)
    node_ids = topology.node_ids
    # Each vertex tuple is made once and shared by all edges at it.
    switches = {i: ("node", i) for i in node_ids}
    switches[source] = gen_vertex()
    mems = {i: mem_vertex(i) for i in node_ids}
    vertices = [switches[source], *mems.values()]
    vertices += [switches[i] for i in node_ids if i != source]

    wss, transit_db = loss.wss_loss_db, 2 * loss.wss_loss_db
    fiber_db: dict[tuple[str, str], float] = {}
    for link in topology.links:
        km = link_distance(topology, link.a, link.b)
        db = loss.fiber_loss_db_per_km * km
        # The router refuses an infinite link; an overflow is the loss's.
        if math.isfinite(km) and not math.isfinite(transit_db + db):
            raise ValueError(
                f"link {link.a}-{link.b}: hop loss 2 x wss_loss_db {wss:g} + "
                f"fiber_loss_db_per_km {loss.fiber_loss_db_per_km:g} x {km:g} km"
                " is not finite")
        fiber_db[link.a, link.b] = fiber_db[link.b, link.a] = db
    # Each switch's hops in neighbour order, then its drop; fibers never
    # point at the source.
    edges: list[GraphEdge] = []
    for i, switch in switches.items():
        edges += [GraphEdge(switch, switches[k], transit_db, fiber_db[i, k], "fiber")
                  for k in topology.neighbors(i) if k != source]
        edges.append(GraphEdge(switch, mems[i], wss, 0.0, "drop"))

    return RoutingGraph(source, tuple(vertices), tuple(edges))


__all__ = [
    "GraphEdge", "Link", "LossParams", "Node", "PhysicalTopology",
    "RoutingGraph", "TopologyError", "build_routing_graph", "bundled_topology",
    "gen_vertex", "link_distance", "load_topology", "mem_vertex",
    "topology_from_dict", "transmittance",
]
