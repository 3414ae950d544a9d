"""Minimum-loss edge-disjoint route pairs from the source to node pairs.

Both photons of an entangled pair leave the generator together, so serving
the node pair (i, j) means finding two edge-disjoint directed paths in the
port-level loss graph: one from the generator to i's memory and one to j's
memory.  A joint minimum-total-loss pair of paths is found with Suurballe's
algorithm after funneling both memories into a shared terminal with
zero-weight edges.

One first pass serves every pair of a placement.  Suurballe's first
Dijkstra runs from the generator, and the terminal's only in-edges are
the two zero-weight memory edges, so the terminal adds no vertex to any
other shortest path: the distances and the shortest-path tree are the
same for every pair (Suurballe & Tarjan, Networks 14, 1984, share one
tree across destinations the same way).  The terminal's own first-pass
predecessor is the pair's memory that Dijkstra pops first, so the first
path, and with it the residual graph of the second pass, depend only on
that memory.  Weights are non-negative and relaxation needs a strictly
shorter distance, so a popped vertex's predecessor never changes
afterwards: one second pass run to exhaustion from a first memory gives
each of its pairs the predecessor chain a pass stopped at the pair's
other memory would find, and an other memory it never pops means no
second path exists.  So the loss graph is compiled into integer arrays
once, the first pass and every edge's reduced cost are computed once per
placement, and one second pass runs per memory that pops before another,
not one per pair.  The terminal is never materialized: the second pass
reaches it only through the other memory.

Tie rules, which fix the routes exactly and not just their losses:

* Dijkstra's heap orders ties by (distance, insertion counter), and each
  vertex relaxes its out-edges in edge-id order;
* in the second pass, the reversed first-path edge out of a vertex comes
  after its real edges;
* the splice walks the combined edge set from the generator twice, always
  taking the smallest edge id out of the current vertex.

Infeasibility (no two edge-disjoint paths exist) is reported as a value,
not an exception, because source-placement sweeps probe many placements
and must survive the bad ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Sequence

from .netgraph import RoutingGraph, gen_vertex, mem_vertex, transmittance

# (edge marker, head, weight); a marker is an edge id, or ~eid for the
# reversal of first-path edge eid.
_Arc = tuple[int, int, float]


class RoutingError(ValueError):
    """Raised for malformed routing queries and graphs."""


@dataclass(frozen=True)
class RoutePlan:
    """Accepted light paths for one node pair, as loss-graph edge ids."""

    pair: tuple[str, str]
    path_a: tuple[int, ...]  # ends at mem(pair[0])
    path_b: tuple[int, ...]  # ends at mem(pair[1])
    total_loss_db: float
    eta: float


@dataclass(frozen=True)
class RouteTable:
    """Routes for every node pair of one source placement."""

    source: str
    plans: dict[tuple[str, str], RoutePlan]
    infeasible: tuple[tuple[str, str], ...]


def _dijkstra(adjacency: Sequence[Sequence[_Arc]], start: int
              ) -> tuple[list[float], list[int], list[int]]:
    """Distances, predecessor markers and pop order from ``start``.

    The pass runs until the heap is empty, so exactly the vertices with a
    finite distance are popped.  Weights must be non-negative; then a
    popped vertex's predecessor chain is final the moment it is popped.
    """
    n = len(adjacency)
    dist = [math.inf] * n
    pred = [0] * n
    done = [False] * n
    order: list[int] = []
    dist[start] = 0.0
    counter = 0
    heap: list[tuple[float, int, int]] = [(0.0, counter, start)]
    while heap:
        d, _, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        order.append(u)
        for marker, head, weight in adjacency[u]:
            nd = d + weight
            if nd < dist[head]:
                dist[head] = nd
                pred[head] = marker
                counter += 1
                heappush(heap, (nd, counter, head))
    return dist, pred, order


class _Placement:
    """A loss graph compiled to integer arrays, and its first Suurballe pass.

    Vertices are numbered by their position in ``graph.vertices`` and edges
    keep their ids.  ``route(end_a, end_b)`` answers one terminal query: the
    terminal has a zero-weight in-edge from ``end_a`` (id m) and one from
    ``end_b`` (id m+1), where m is the number of real edges.  Each first
    memory's second pass runs once; its paths, not its per-vertex arrays,
    are kept for as long as the placement lives.
    """

    def __init__(self, graph: RoutingGraph) -> None:
        index = {v: pos for pos, v in enumerate(graph.vertices)}
        try:
            tails = [index[e.tail] for e in graph.edges]
            heads = [index[e.head] for e in graph.edges]
        except KeyError as exc:
            raise RoutingError(f"edge endpoint {exc.args[0]!r} is not a vertex") from None
        weights = [e.weight_db for e in graph.edges]
        # RoutingGraph is public and can be built by hand, so its weights
        # are checked here rather than trusted.
        for eid, weight in enumerate(weights):
            if not 0.0 <= weight < math.inf:
                raise RoutingError(f"edge {eid} has invalid weight {weight}")
        n = len(index)
        src = index[gen_vertex()]
        adjacency: list[list[_Arc]] = [[] for _ in range(n)]
        for eid, (tail, head, weight) in enumerate(zip(tails, heads, weights)):
            adjacency[tail].append((eid, head, weight))
        dist, pred, order = _dijkstra(adjacency, src)
        rank = [n] * n  # n marks an unreached vertex
        for pos, v in enumerate(order):
            rank[v] = pos
        # Reduced costs of the edges between first-pass-reached vertices.
        reduced: list[list[_Arc]] = [[] for _ in range(n)]
        for eid, (tail, head, weight) in enumerate(zip(tails, heads, weights)):
            if dist[tail] < math.inf and dist[head] < math.inf:
                reduced[tail].append(
                    (eid, head, max(0.0, weight + dist[tail] - dist[head])))
        self.index, self.tails, self.heads, self.src = index, tails, heads, src
        self.edge_count = len(tails)
        self.pred, self.rank, self.reduced = pred, rank, reduced
        self.memories = [pos for v, pos in index.items() if v[0] == "mem"]
        self.second_passes: dict[int, tuple[list[int], dict[int, list[int]]]] = {}

    def _backtrack(self, pred: Sequence[int], end: int) -> list[int]:
        path: list[int] = []
        node = end
        while node != self.src:
            marker = pred[node]
            path.append(marker)
            node = self.tails[marker] if marker >= 0 else self.heads[~marker]
        path.reverse()
        return path

    def _second_pass(self, end: int) -> tuple[list[int], dict[int, list[int]]]:
        """The first path to memory ``end``, and the second path to each
        memory that pops after it, from one pass on the residual graph."""
        cached = self.second_passes.get(end)
        if cached is None:
            first = self._backtrack(self.pred, end)
            # Drop first-path edges, append their reversals.
            adjacency = self.reduced.copy()
            for eid in first:
                tail, head = self.tails[eid], self.heads[eid]
                adjacency[tail] = [arc for arc in adjacency[tail] if arc[0] != eid]
                adjacency[head] = adjacency[head] + [(~eid, tail, 0.0)]
            dist2, pred2, _ = _dijkstra(adjacency, self.src)
            cached = self.second_passes[end] = (first, {
                other: self._backtrack(pred2, other) for other in self.memories
                if self.rank[other] > self.rank[end] and dist2[other] < math.inf})
        return cached

    def route(self, end_a: int, end_b: int
              ) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """Disjoint paths ending at ``end_a`` and ``end_b``, or None."""
        ends = (end_a, end_b)
        if max(self.rank[end_a], self.rank[end_b]) == len(self.rank):
            return None  # a terminal edge's tail is unreachable
        k_first = 0 if self.rank[end_a] <= self.rank[end_b] else 1
        first, seconds = self._second_pass(ends[k_first])
        second = seconds.get(ends[1 - k_first])
        if second is None:
            return None

        # Cancel first-path edges traversed backwards, keep the rest, then
        # split the union into two walks to the terminal, always taking
        # the smallest available edge id.
        combined = set(first)
        for marker in second:
            if marker < 0:
                combined.discard(~marker)
            else:
                combined.add(marker)
        m = self.edge_count
        by_tail: dict[int, list[int]] = {}
        for eid in sorted(combined):
            by_tail.setdefault(self.tails[eid], []).append(eid)
        for k in (0, 1):
            by_tail.setdefault(ends[k], []).append(m + k)
        bodies: list[tuple[int, ...]] = [(), ()]
        for _ in range(2):
            walk: list[int] = []
            node = self.src
            while True:
                bucket = by_tail.get(node)
                if not bucket:
                    raise RoutingError("internal error: disjoint-pair splice failed")
                eid = bucket.pop(0)
                if eid >= m:
                    bodies[eid - m] = tuple(walk)
                    break
                walk.append(eid)
                node = self.heads[eid]
        return bodies[0], bodies[1]


def all_pair_routes(graph: RoutingGraph) -> RouteTable:
    """Route every unordered node pair; collect the unservable ones.

    The graph is compiled and its first pass run once for all pairs.  The
    source's own memory is a valid endpoint, reached directly from the
    generator.
    """
    placement = _Placement(graph)
    index = placement.index
    nodes = sorted(v[1] for v in graph.vertices if v[0] == "mem")
    plans: dict[tuple[str, str], RoutePlan] = {}
    infeasible: list[tuple[str, str]] = []
    for ai, a in enumerate(nodes):
        for b in nodes[ai + 1:]:
            result = placement.route(index[mem_vertex(a)], index[mem_vertex(b)])
            if result is None:
                infeasible.append((a, b))
                continue
            total = math.fsum(graph.edges[eid].weight_db
                              for path in result for eid in path)
            plans[(a, b)] = RoutePlan(pair=(a, b), path_a=result[0],
                                      path_b=result[1], total_loss_db=total,
                                      eta=transmittance(total))
    return RouteTable(graph.source, plans, tuple(infeasible))


def route_nodes(graph: RoutingGraph, path: Sequence[int]) -> list[str]:
    """Physical sites visited by a path, in order (source first)."""
    nodes = [graph.source]
    for eid in path:
        edge = graph.edges[eid]
        if edge.kind == "fiber":
            nodes.append(edge.head[1])
    return nodes
