"""Minimum-loss edge-disjoint route pairs from the source to node pairs.

Both photons of an entangled pair leave the generator together, so serving
the node pair (i, j) means finding two edge-disjoint directed paths in the
loss graph: one from the generator to i's memory and one to j's memory.
A joint minimum-total-loss pair of paths is found with Suurballe's
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
second path exists.  So ``all_pair_routes`` compiles the loss graph into
integer arrays and runs the first pass, then walks the memories in
first-pass pop order: each memory that pops before another gets one
second pass on its residual graph, and every memory popped after it that
the pass reaches gets a spliced plan for their pair.  A pair left
without a plan is infeasible.  The terminal is never materialized: the
second pass reaches it only through the other memory.

Tie rules, which fix the routes exactly and not just their losses:

* Dijkstra's heap orders ties by (distance, insertion counter), and each
  vertex relaxes its out-edges in edge-id order;
* in the second pass, the reversed first-path edge out of a vertex comes
  after its real edges;
* the splice walks the combined edge set from the generator twice, always
  taking the smallest edge id out of the current vertex, and the
  terminal's in-edges m and m+1 come from the pair's memories in name
  order, not pop order.

Infeasibility (no two edge-disjoint paths exist) is reported as a value,
not an exception, because source-placement sweeps probe many placements
and must survive the bad ones.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Sequence

from .netgraph import RoutingGraph, gen_vertex, transmittance

# (edge marker, head, switch_db, fiber_db); a marker is an edge id, or ~eid
# for the reversal of first-path edge eid.  Second passes use (cost, 0.0).
_Arc = tuple[int, int, float, float]


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
    """Routes for every node pair of one source placement.

    ``plans`` holds the pairs in sorted name order, the order in which
    allocation instances number them.
    """

    source: str
    plans: dict[tuple[str, str], RoutePlan]
    infeasible: tuple[tuple[str, str], ...]


def _dijkstra(adjacency: Sequence[Sequence[_Arc]], start: int
              ) -> tuple[list[float], list[int], list[int]]:
    """Distances, predecessor markers and pop order from ``start``.

    The pass runs until the heap is empty, so exactly the vertices with a
    finite distance are popped.  An arc adds ``switch_db + fiber_db`` left
    to right.  Losses must be non-negative; then a popped vertex's
    predecessor chain is final the moment it is popped.
    """
    n = len(adjacency)
    dist = [math.inf] * n
    pred = [0] * n
    order: list[int] = []
    dist[start] = 0.0
    counter = 0
    heap: list[tuple[float, int, int]] = [(0.0, counter, start)]
    while heap:
        d, _, u = heappop(heap)
        # A push needs a strictly shorter distance, so older entries are stale.
        if d > dist[u]:
            continue
        order.append(u)
        for marker, head, switch_db, fiber_db in adjacency[u]:
            nd = d + switch_db + fiber_db
            if nd < dist[head]:
                dist[head] = nd
                pred[head] = marker
                counter += 1
                heappush(heap, (nd, counter, head))
    return dist, pred, order


def _backtrack(pred: Sequence[int], end: int, src: int, tails: Sequence[int],
               heads: Sequence[int]) -> list[int]:
    """Edge markers of the predecessor chain from ``src`` to ``end``."""
    path: list[int] = []
    node = end
    while node != src:
        marker = pred[node]
        path.append(marker)
        node = tails[marker] if marker >= 0 else heads[~marker]
    path.reverse()
    return path


def _splice(first: Sequence[int], second: Sequence[int], ends: tuple[int, int],
            src: int, tails: Sequence[int], heads: Sequence[int]
            ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split Suurballe's two paths into disjoint walks to ``ends``.

    Cancel first-path edges traversed backwards, keep the rest, then split
    the union into two walks to the terminal, always taking the smallest
    available edge id.  The terminal's in-edges are m from ``ends[0]`` and
    m+1 from ``ends[1]``, where m is the number of real edges.
    """
    combined = set(first)
    for marker in second:
        if marker < 0:
            combined.discard(~marker)
        else:
            combined.add(marker)
    m = len(tails)
    by_tail: dict[int, list[int]] = {}
    for eid in sorted(combined):
        by_tail.setdefault(tails[eid], []).append(eid)
    for k in (0, 1):
        by_tail.setdefault(ends[k], []).append(m + k)
    bodies: list[tuple[int, ...]] = [(), ()]
    for _ in range(2):
        walk: list[int] = []
        node = src
        while True:
            bucket = by_tail.get(node)
            if not bucket:
                raise RoutingError("internal error: disjoint-pair splice failed")
            eid = bucket.pop(0)
            if eid >= m:
                bodies[eid - m] = tuple(walk)
                break
            walk.append(eid)
            node = heads[eid]
    return bodies[0], bodies[1]


def all_pair_routes(graph: RoutingGraph) -> RouteTable:
    """Route every unordered node pair; collect the unservable ones.

    The source's own memory is a valid endpoint, reached directly from the
    generator.
    """
    # RoutingGraph is public and can be built by hand, so it is checked
    # here rather than trusted.  Vertices are numbered by their position
    # in ``graph.vertices`` and edges keep their ids.
    index = {v: pos for pos, v in enumerate(graph.vertices)}
    if len(index) != len(graph.vertices):
        raise RoutingError("a vertex is listed more than once")
    if gen_vertex() not in index:
        raise RoutingError(f"no generator vertex {gen_vertex()!r}")
    tail_vs, head_vs, switch_dbs, fiber_dbs, _ = (
        zip(*graph.edges) if graph.edges else ((),) * 5)
    try:
        tails = list(map(index.__getitem__, tail_vs))
        heads = list(map(index.__getitem__, head_vs))
    except KeyError as exc:
        raise RoutingError(f"edge endpoint {exc.args[0]!r} is not a vertex") from None
    for field, losses in (("switch_db", switch_dbs), ("fiber_db", fiber_dbs)):
        for eid, db in enumerate(losses):
            # Built graphs hold floats, which skip the slow ABC check.
            real = type(db) is float or (
                isinstance(db, numbers.Real) and not isinstance(db, bool))
            if not (real and 0.0 <= db < math.inf):
                raise RoutingError(f"edge {eid} has invalid {field} {db!r}")
    n, src = len(index), index[gen_vertex()]
    adjacency: list[list[_Arc]] = [[] for _ in range(n)]
    for eid, tail in enumerate(tails):
        adjacency[tail].append((eid, heads[eid], switch_dbs[eid], fiber_dbs[eid]))
    dist, pred, order = _dijkstra(adjacency, src)
    # Reduced costs of the edges between reached vertices, summed in the
    # order that ``netgraph`` shows exact.  None is negative: the pop of
    # ``tail`` relaxed the arc to ``(dt + switch_db) + fiber_db``, this very
    # float (IEEE addition commutes), and ``dist[head]`` is at most that.
    reduced: list[list[_Arc]] = [[] for _ in range(n)]
    for tail, dt in enumerate(dist):
        if dt < math.inf:
            for eid, head, switch_db, fiber_db in adjacency[tail]:
                if dist[head] < math.inf:
                    cost = fiber_db + (dt + switch_db) - dist[head]
                    reduced[tail].append((eid, head, cost, 0.0))

    names = {pos: v[1] for v, pos in index.items() if v[0] == "mem"}
    popped = [v for v in order if v in names]  # reachable memories
    found: dict[tuple[str, str], tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for k, end in enumerate(popped[:-1]):
        first = _backtrack(pred, end, src, tails, heads)
        # Drop first-path edges, append their reversals.
        residual = reduced.copy()
        for eid in first:
            tail, head = tails[eid], heads[eid]
            residual[tail] = [arc for arc in residual[tail] if arc[0] != eid]
            residual[head] = residual[head] + [(~eid, tail, 0.0, 0.0)]
        dist2, pred2, _ = _dijkstra(residual, src)
        for other in popped[k + 1:]:
            if dist2[other] < math.inf:
                second = _backtrack(pred2, other, src, tails, heads)
                # Terminal edge ids go to the memories in name order.
                a, b = sorted((end, other), key=names.__getitem__)
                found[(names[a], names[b])] = _splice(
                    first, second, (a, b), src, tails, heads)

    nodes = sorted(names.values())
    plans: dict[tuple[str, str], RoutePlan] = {}
    infeasible: list[tuple[str, str]] = []
    for pair in itertools.combinations(nodes, 2):
        paths = found.get(pair)
        if paths is None:
            infeasible.append(pair)
            continue
        try:
            total = math.fsum(losses[eid] for losses in (switch_dbs, fiber_dbs)
                              for path in paths for eid in path)
        except OverflowError:  # a loss past the largest float, hop by finite hop
            raise RoutingError(f"pair {pair[0]}-{pair[1]}: route loss overflows to inf "
                               "dB, and its transmittance underflows to 0") from None
        plans[pair] = RoutePlan(pair=pair, path_a=paths[0], path_b=paths[1],
                                total_loss_db=total, eta=transmittance(total))
    return RouteTable(graph.source, plans, tuple(infeasible))


def route_nodes(graph: RoutingGraph, path: Sequence[int]) -> list[str]:
    """Physical sites visited by a path, in order (source first)."""
    nodes = [graph.source]
    for eid in path:
        edge = graph.edges[eid]
        if edge.kind == "fiber":
            nodes.append(edge.head[1])
    return nodes
