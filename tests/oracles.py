"""Independent reference implementations used only by the test suite.

Everything here is written against the problem statements, not against
the library internals, so agreement between the two is evidence of
correctness rather than of shared bugs.  ``reference_received`` turns an
assignment into received rates straight from the definition, and every
pinned heuristic below builds its allocation with it, so no check compares
the library's rates with the library's own rate code.  Some exceptions
pin tie rules and rounding rather than values: the unpruned exact search,
which holds the branch and bound to the very same assignment; the channel-by-channel
first-fit walk, the min-scan LPT and the Hall-bisecting matching rounds,
the library's earlier forms of those heuristics, kept to hold the faster
ones to the very same allocations; and the per-pair router at the end,
the library's earlier, simpler router, kept to hold the faster one to the
very same routes; and the hop-by-hop graph build, written one vertex
tuple per use, kept to hold ``build_routing_graph`` to the very same
vertex and edge order, since edge ids break the router's ties.  The
port-level graph build, an earlier form of ``build_routing_graph`` with a
vertex per input and output port, is an oracle of values: routing it
must give the same totals and etas.
"""

from __future__ import annotations

import heapq
import math
from typing import Hashable, Sequence

import numpy as np

from eprnet import (
    Allocation,
    AllocationInstance,
    GraphEdge,
    LossParams,
    PhysicalTopology,
    RoutePlan,
    RouteTable,
    RoutingGraph,
    bezakova_matching,
    first_fit,
    fractional_optimum,
    gen_vertex,
    mem_vertex,
    modified_lpt,
    transmittance,
)

EdgeTriple = tuple[Hashable, Hashable, float]


def dijkstra_path(edges: Sequence[EdgeTriple], src: Hashable, dst: Hashable,
                  blocked: frozenset[int] = frozenset()) -> tuple[float, list[int]] | None:
    """Plain Dijkstra over edge triples, skipping blocked edge ids."""
    adjacency: dict[Hashable, list[int]] = {}
    for eid, (tail, _, _) in enumerate(edges):
        adjacency.setdefault(tail, []).append(eid)
    dist: dict[Hashable, float] = {src: 0.0}
    pred: dict[Hashable, int] = {}
    heap: list[tuple[float, int, Hashable]] = [(0.0, 0, src)]
    counter = 1
    seen: set[Hashable] = set()
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in seen:
            continue
        seen.add(u)
        if u == dst:
            break
        for eid in adjacency.get(u, ()):
            if eid in blocked:
                continue
            _, head, w = edges[eid]
            nd = d + w
            if head not in dist or nd < dist[head]:
                dist[head] = nd
                pred[head] = eid
                heapq.heappush(heap, (nd, counter, head))
                counter += 1
    if dst not in seen:
        return None
    path: list[int] = []
    node = dst
    while node != src:
        eid = pred[node]
        path.append(eid)
        node = edges[eid][0]
    path.reverse()
    return dist[dst], path


def best_disjoint_total(edges: Sequence[EdgeTriple], src: Hashable,
                        dst: Hashable) -> float | None:
    """Exhaustive minimum total weight of two edge-disjoint src->dst paths.

    Enumerates every vertex-simple first path by depth-first search, then
    finds the best second path in the residual graph.  Cycles never help
    with nonnegative weights, so restricting the first path to be simple
    is lossless.
    """
    adjacency: dict[Hashable, list[int]] = {}
    reverse: dict[Hashable, list[tuple[Hashable, float]]] = {}
    for eid, (tail, head, weight) in enumerate(edges):
        adjacency.setdefault(tail, []).append(eid)
        reverse.setdefault(head, []).append((tail, weight))

    # Unblocked distance-to-dst lower-bounds any first-path suffix, so
    # branches provably above the incumbent (with slack well beyond the
    # running sum's rounding drift) can be skipped without losing ties.
    to_dst: dict[Hashable, float] = {dst: 0.0}
    frontier = [(0.0, id(dst), dst)]
    while frontier:
        dist, _, node = heapq.heappop(frontier)
        if dist > to_dst.get(node, math.inf):
            continue
        for tail, weight in reverse.get(node, ()):
            cand = dist + weight
            if cand < to_dst.get(tail, math.inf):
                to_dst[tail] = cand
                heapq.heappush(frontier, (cand, id(tail), tail))

    for eids in adjacency.values():
        eids.sort(key=lambda eid: edges[eid][2]
                  + to_dst.get(edges[eid][1], math.inf))

    best: float | None = None
    path: list[int] = []
    visited = {src}

    def extend(node: Hashable, running: float) -> None:
        nonlocal best
        if node == dst:
            rest = dijkstra_path(edges, src, dst, frozenset(path))
            if rest is not None:
                # One exactly-rounded sum over both paths' edges; adding
                # the Dijkstra running total instead would drift an ulp.
                total = math.fsum(edges[eid][2] for eid in path + rest[1])
                if best is None or total < best:
                    best = total
            return
        for eid in adjacency.get(node, ()):
            head = edges[eid][1]
            if head in visited:
                continue
            bound = running + edges[eid][2] + to_dst.get(head, math.inf)
            if best is not None and bound > best * (1 + 1e-9) + 1e-9:
                continue
            if math.isinf(bound):
                continue
            visited.add(head)
            path.append(eid)
            extend(head, running + edges[eid][2])
            path.pop()
            visited.remove(head)

    extend(src, 0.0)
    return best


def element_edges(graph: RoutingGraph) -> list[EdgeTriple]:
    """One triple per loss element: edge eid becomes ``tail -> ("elem",
    eid)`` at its switch loss and ``("elem", eid) -> head`` at its fiber
    loss.  A path takes both halves or neither, so disjoint paths and the
    losses summed along them are those of the graph."""
    edges = []
    for eid, e in enumerate(graph.edges):
        mid = ("elem", eid)
        edges += [(e.tail, mid, e.switch_db), (mid, e.head, e.fiber_db)]
    return edges


def enumerate_best_min(etas: Sequence[float], rates: Sequence[float]) -> float:
    """Max-min value over all k^m channel assignments by full enumeration.

    Pair values use one exactly-rounded sum over the owned channels'
    rates, matching the library's received-rate arithmetic bit for bit.
    A leaf stops early once any pair value is at or below the incumbent:
    such an assignment cannot raise the maximum, so the result is still
    the exact max over all k^m leaves.
    """
    k, m = len(etas), len(rates)
    owned: list[list[float]] = [[] for _ in range(k)]
    best = -1.0

    def recurse(x: int) -> None:
        nonlocal best
        if x == m:
            value = None
            for p in range(k):
                rate = etas[p] * math.fsum(owned[p])
                if rate <= best:
                    return
                if value is None or rate < value:
                    value = rate
            best = value
            return
        rate = rates[x]
        for p in range(k):
            owned[p].append(rate)
            recurse(x + 1)
            owned[p].pop()

    recurse(0)
    return best


def lp_fractional_search(etas: Sequence[float], rates: Sequence[float]) -> float:
    """Fractional max-min optimum as one linear program, solved by scipy.

    Maximise T over fractional channel splits y >= 0 with unit column
    sums such that every pair receives at least T.  The instance is first
    rescaled so the optimum sits near 1.0: the solver's absolute
    feasibility slack (1e-10 at its tightest) would otherwise swamp tiny
    optima.  Scaling rates by s scales the optimum by s exactly, so the
    result is divided back out.
    """
    from scipy.optimize import linprog

    k, m = len(etas), len(rates)
    total = math.fsum(rates)
    if total <= 0:
        return 0.0
    scale = math.fsum(1.0 / e for e in etas) / total
    scaled = [r * scale for r in rates]

    # Variables: y[p, x] flattened row-major, then T.
    a_eq = np.zeros((m, k * m + 1))
    for x in range(m):
        a_eq[x, x:k * m:m] = 1.0
    b_eq = np.ones(m)
    a_ub = np.zeros((k, k * m + 1))
    for p in range(k):
        a_ub[p, p * m:(p + 1) * m] = [-etas[p] * scaled[x] for x in range(m)]
    a_ub[:, -1] = 1.0
    b_ub = np.zeros(k)
    cost = np.zeros(k * m + 1)
    cost[-1] = -1.0
    # Default HiGHS feasibility slack (~1e-7) would bias the optimum
    # high; 1e-10 is the tightest tolerance the solver accepts.
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, 1)] * (k * m) + [(0, None)], method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise AssertionError(f"linprog failed: {res.message}")
    return res.x[-1] / scale


# --- received rates ---------------------------------------------------------


def reference_received(instance: AllocationInstance,
                       assignment: Sequence[int]) -> tuple[float, ...]:
    """Each pair's received rate: its eta times the sum of its channels' rates.

    ``assignment`` must name a pair index, a plain int in 0..k-1, for every
    one of the m channels.  Sums are exactly rounded (``math.fsum``), so
    they do not depend on the order the channels are listed in.
    """
    k, m = instance.pair_count, instance.channel_count
    n = list(instance.rates)
    assert len(assignment) == m, f"{len(assignment)} entries for {m} channels"
    for x, p in enumerate(assignment):
        assert type(p) is int and 0 <= p < k, f"channel {x} assigned to {p!r}"
    return tuple(eta * math.fsum(n[x] for x in range(m) if assignment[x] == p)
                 for p, eta in enumerate(instance.etas))


# --- unpruned exact search -------------------------------------------------
#
# The library's branch and bound without any bound: the same seeding, the
# same branching order and the same equal-rate canonicalisation, with every
# running mass a fresh sum along the path.  Any valid pruning leaves the
# returned assignment unchanged, so the solver must match it exactly.


def reference_exact_dfs(instance: AllocationInstance,
                        pair_order: Sequence[int] | None = None) -> tuple[int, ...]:
    """Assignment returned by an exhaustive depth-first exact search.

    Channels are branched by descending rate (ties by index); children
    try pairs by ascending received rate, ties by position in
    ``pair_order``.  Equal-rate neighbours in that order take
    non-decreasing pair indices.  A leaf replaces the incumbent, at first
    the best heuristic seed, only when its minimum is strictly larger.
    """
    k, m = instance.pair_count, instance.channel_count
    etas, n = instance.etas, instance.rates
    order = list(range(k)) if pair_order is None else list(pair_order)
    rank = {p: pos for pos, p in enumerate(order)}
    channels = sorted(range(m), key=lambda x: (-n[x], x))

    seeds = [modified_lpt(instance), first_fit(instance),
             bezakova_matching(instance)]
    seed = seeds[0]
    for cand in seeds[1:]:
        if cand.min_rate > seed.min_rate:
            seed = cand
    best = [seed.min_rate, seed.assignment]
    assign = [-1] * m

    def leaf_value() -> float:
        return min(etas[p] * math.fsum(n[x] for x in range(m) if assign[x] == p)
                   for p in range(k))

    def search(t: int, mass: tuple[float, ...]) -> None:
        if t == m:
            value = leaf_value()
            if value > best[0]:
                best[0], best[1] = value, tuple(assign)
            return
        x = channels[t]
        low = assign[channels[t - 1]] if t and n[channels[t - 1]] == n[x] else 0
        for p in sorted(range(k), key=lambda q: (etas[q] * mass[q], rank[q])):
            if p < low:
                continue
            assign[x] = p
            grown = mass[:p] + (mass[p] + n[x],) + mass[p + 1:]
            search(t + 1, grown)

    search(0, (0.0,) * k)
    return best[1]


# --- pinned heuristics ---------------------------------------------------
#
# The library's first forms of first-fit and LPT: one Python step per
# channel.  The faster forms must return the very same allocations.


def _allocation(instance: AllocationInstance, assign) -> Allocation:
    dense = tuple(int(p) for p in assign)
    return Allocation(dense, reference_received(instance, dense))


def reference_first_fit(instance: AllocationInstance,
                        pair_order: Sequence[int] | None = None) -> Allocation:
    """First-fit whose every bisection probe walks all channels in order."""
    k, m = instance.pair_count, instance.channel_count
    order = list(range(k)) if pair_order is None else list(pair_order)
    n = list(instance.rates)
    etas = list(instance.etas)

    def run_pass(target: float) -> tuple[list[int], bool]:
        assign = [-1] * m
        mass = [0.0] * k
        cursor = 0
        for x in range(m):
            p = order[cursor] if cursor < k else order[k - 1]
            assign[x] = p
            mass[p] += n[x]
            if cursor < k and etas[p] * mass[p] >= target:
                cursor += 1
        return assign, cursor >= k

    tf = fractional_optimum(instance)
    target = 0.0
    if tf > 0 and run_pass(0.0)[1]:
        if run_pass(tf)[1]:
            target = tf
        else:
            lo, hi = 0.0, tf
            tol = max(1e-9 * tf, math.ulp(tf))
            while hi - lo > tol:
                mid = (lo + hi) / 2.0
                if run_pass(mid)[1]:
                    lo = mid
                else:
                    hi = mid
            target = lo
    assign, _ = run_pass(target)
    return _allocation(instance, assign)


def reference_modified_lpt(instance: AllocationInstance) -> Allocation:
    """LPT that scans every pair for the poorest one, channel by channel."""
    k = instance.pair_count
    etas = instance.etas
    assign = [-1] * instance.channel_count
    received = [0.0] * k
    for x in sorted(range(instance.channel_count),
                    key=lambda x: (-instance.rates[x], x)):
        p = min(range(k), key=lambda q: (received[q], q))
        assign[x] = p
        received[p] += etas[p] * instance.rates[x]
    return _allocation(instance, assign)


# --- pinned matching rounds ------------------------------------------------
#
# The library's first form of the round-based matching scheme: every
# candidate target is settled by a full Hall check over the k x m matrix of
# resulting rates.  The faster form must return the very same allocations.


def _ref_hall_feasible(fmat: np.ndarray, reqs: np.ndarray, deficit: np.ndarray,
                       available: int) -> bool:
    """Matching existence for per-pair targets over the remaining channels."""
    if not deficit.any():
        return True
    counts = (fmat[deficit] >= reqs[deficit, None]).sum(axis=1)
    counts.sort()
    if len(counts) > available:
        return False
    return bool((counts >= np.arange(1, len(counts) + 1)).all())


def reference_matching_rounds(instance: AllocationInstance, *,
                              frugal: bool) -> Allocation:
    """One run of the matching scheme, bisecting every target on Hall checks."""
    k, m = instance.pair_count, instance.channel_count
    etas = np.asarray(instance.etas)
    n = list(instance.rates)
    descending = sorted(range(m), key=lambda x: (-n[x], x))
    assign = [-1] * m
    mass = np.zeros(k)
    remaining = list(range(m))

    while remaining:
        r = etas * mass
        rem_sorted = [x for x in descending if assign[x] < 0]
        vals = np.asarray([n[x] for x in rem_sorted])
        fmat = r[:, None] + etas[:, None] * vals[None, :]

        candidates = np.unique(np.concatenate([fmat.ravel(), r]))
        lo, hi = 0, len(candidates) - 1  # candidates[lo] always feasible
        while lo < hi:
            mid = (lo + hi + 1) // 2
            t = candidates[mid]
            deficit = r < t
            reqs = np.where(deficit, t, r)
            if _ref_hall_feasible(fmat, reqs, deficit, len(rem_sorted)):
                lo = mid
            else:
                hi = mid - 1
        t_star = float(candidates[lo])

        deficit = r < t_star
        reqs = np.where(deficit, t_star, r)
        if not frugal:
            # Raise individual targets while the rest stay feasible.
            for q in range(k):
                own = fmat[q][fmat[q] > reqs[q]]
                if own.size == 0:
                    continue
                own = np.unique(own)
                qlo, qhi = 0, len(own) - 1
                best = None
                while qlo <= qhi:
                    qmid = (qlo + qhi) // 2
                    trial = reqs.copy()
                    trial[q] = own[qmid]
                    trial_deficit = deficit.copy()
                    trial_deficit[q] = True
                    if _ref_hall_feasible(fmat, trial, trial_deficit,
                                          len(rem_sorted)):
                        best = own[qmid]
                        qlo = qmid + 1
                    else:
                        qhi = qmid - 1
                if best is not None:
                    reqs[q] = best
                    deficit[q] = True

        needy = [q for q in range(k) if deficit[q]]
        if not needy:
            # Deal the rest, channel by channel, to a poorest pair.
            received = list(r)
            for x in remaining:
                p = min(range(k), key=lambda q: (received[q], q))
                assign[x] = p
                received[p] += etas[p] * n[x]
            break

        prefix_len = {q: int((fmat[q] >= reqs[q]).sum()) for q in needy}
        taken = [False] * len(rem_sorted)
        for q in sorted(needy, key=lambda q: (prefix_len[q], q)):
            pos = prefix_len[q] - 1
            while pos >= 0 and taken[pos]:
                pos -= 1
            if pos < 0:
                raise AssertionError("matching round infeasible")
            taken[pos] = True
            x = rem_sorted[pos]
            assign[x] = q
            mass[q] += n[x]
            remaining.remove(x)

    return _allocation(instance, assign)


# --- pinned per-pair router ------------------------------------------------
#
# Tuple vertices, a materialized dummy terminal, and both Suurballe passes
# rerun for every pair.  It is slow but simple, and it fixes every tie
# rule, so the shared first-pass router must return the very same paths,
# not just the totals.  Edges are (tail, head, switch_db, fiber_db), and
# each sum is written in the order that keeps a hop's float distances and
# reduced costs those of its switch and fiber arcs in a port-level graph.


def _ref_dijkstra(adjacency, edges, start):
    dist = {start: 0.0}
    pred = {}
    counter = 0
    heap = [(0.0, counter, start)]
    done = set()
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for eid in adjacency.get(u, ()):
            _, head, switch_db, fiber_db = edges[eid]
            nd = d + switch_db + fiber_db
            if head not in dist or nd < dist[head]:
                dist[head] = nd
                pred[head] = eid
                counter += 1
                heapq.heappush(heap, (nd, counter, head))
    return dist, pred


def _ref_backtrack(pred, edges, start, end):
    path = []
    node = end
    while node != start:
        eid = pred[node]
        path.append(eid)
        node = edges[eid][0]
    path.reverse()
    return path


def reference_suurballe(edges, src, dst):
    """Both src->dst paths as edge-id tuples (walk order), or None."""
    adjacency = {}
    for eid, (tail, *_) in enumerate(edges):
        adjacency.setdefault(tail, []).append(eid)
    dist, pred = _ref_dijkstra(adjacency, edges, src)
    if dst not in dist:
        return None
    first_path = _ref_backtrack(pred, edges, src, dst)
    on_first = set(first_path)

    red_edges = []
    red_ids = []  # real edge id, or -(eid+1) for a reversal
    for eid, (tail, head, switch_db, fiber_db) in enumerate(edges):
        if eid in on_first or tail not in dist or head not in dist:
            continue
        cost = fiber_db + (dist[tail] + switch_db) - dist[head]
        red_edges.append((tail, head, max(0.0, cost), 0.0))
        red_ids.append(eid)
    for eid in first_path:
        tail, head, *_ = edges[eid]
        red_edges.append((head, tail, 0.0, 0.0))
        red_ids.append(-(eid + 1))
    red_adj = {}
    for pos, (tail, *_) in enumerate(red_edges):
        red_adj.setdefault(tail, []).append(pos)
    dist2, pred2 = _ref_dijkstra(red_adj, red_edges, src)
    if dst not in dist2:
        return None

    combined = set(first_path)
    for pos in _ref_backtrack(pred2, red_edges, src, dst):
        marker = red_ids[pos]
        if marker < 0:
            combined.discard(-marker - 1)
        else:
            combined.add(marker)
    by_tail = {}
    for eid in sorted(combined):
        by_tail.setdefault(edges[eid][0], []).append(eid)
    paths = []
    for _ in range(2):
        walk = []
        node = src
        while node != dst:
            eid = by_tail[node].pop(0)
            walk.append(eid)
            node = edges[eid][1]
        paths.append(tuple(walk))
    return paths


def reference_pair_route(graph: RoutingGraph, i: str, j: str) -> RoutePlan | None:
    """Disjoint light paths for (i, j), routed on their own from scratch."""
    a, b = sorted((i, j))
    dummy = ("dummy",)
    edges = [(e.tail, e.head, e.switch_db, e.fiber_db) for e in graph.edges]
    edges.append((mem_vertex(a), dummy, 0.0, 0.0))
    edges.append((mem_vertex(b), dummy, 0.0, 0.0))
    paths = reference_suurballe(edges, gen_vertex(), dummy)
    if paths is None:
        return None
    bodies = {edges[path[-1]][0]: path[:-1] for path in paths}
    total = math.fsum(db for body in bodies.values() for eid in body
                      for db in edges[eid][2:])
    return RoutePlan((a, b), bodies[mem_vertex(a)], bodies[mem_vertex(b)],
                     total, transmittance(total))


def reference_route_table(graph: RoutingGraph) -> RouteTable:
    """Every node pair of one placement through ``reference_pair_route``."""
    nodes = sorted(v[1] for v in graph.vertices if v[0] == "mem")
    plans = {}
    infeasible = []
    for ai, a in enumerate(nodes):
        for b in nodes[ai + 1:]:
            plan = reference_pair_route(graph, a, b)
            if plan is None:
                infeasible.append((a, b))
            else:
                plans[(a, b)] = plan
    return RouteTable(graph.source, plans, tuple(infeasible))


# --- graph builds ----------------------------------------------------------
#
# Every vertex and edge made one tuple per use: the hop-level build in the
# order the router's edge ids and tie rules are fixed against, and the
# port-level build whose values the hop edges must keep.


def link_km(topology: PhysicalTopology, a: str, b: str) -> float:
    """The link a-b's length: its stored distance_km, else the Euclidean
    distance between its endpoints' coordinates."""
    (link,) = [link for link in topology.links if {link.a, link.b} == {a, b}]
    if link.distance_km is not None:
        return link.distance_km
    na, nb = topology.node(a), topology.node(b)
    return math.hypot(na.x_km - nb.x_km, na.y_km - nb.y_km)


def reference_hop_graph(topology: PhysicalTopology, source: str,
                        loss: LossParams) -> RoutingGraph:
    """The loss graph for one source: one switch vertex per consumer, with
    the generator as the source's switch, one edge per directed fiber and
    one drop edge per node."""
    topology.node(source)
    node_ids = topology.node_ids

    def switch(i):
        return gen_vertex() if i == source else ("node", i)

    vertices = [gen_vertex()]
    vertices.extend(mem_vertex(n) for n in node_ids)
    vertices.extend(switch(i) for i in node_ids if i != source)

    edges = []
    wss = loss.wss_loss_db
    for i in node_ids:
        for k in topology.neighbors(i):
            if k != source:
                fiber_db = loss.fiber_loss_db_per_km * link_km(topology, i, k)
                edges.append(GraphEdge(switch(i), switch(k), 2 * wss, fiber_db,
                                       "fiber"))
        edges.append(GraphEdge(switch(i), mem_vertex(i), wss, 0.0, "drop"))

    return RoutingGraph(source, tuple(vertices), tuple(edges))


def reference_routing_graph(topology: PhysicalTopology, source: str,
                            loss: LossParams) -> RoutingGraph:
    """The port-level loss graph for one source: consumer i has an input
    port ``("in", i, j)`` per incoming fiber, linked to each of i's output
    ports ``("out", i, k)`` and to i's memory.  Each edge holds one
    element's loss, in its own field, and 0.0 in the other."""
    topology.node(source)
    node_ids = topology.node_ids
    consumers = [n for n in node_ids if n != source]

    def in_port(i, j):
        return ("in", i, j)

    def out_port(i, j):
        return ("out", i, j)

    vertices = [gen_vertex()]
    vertices.extend(mem_vertex(n) for n in node_ids)
    for i in consumers:
        vertices.extend(in_port(i, j) for j in topology.neighbors(i))
    for i in node_ids:
        vertices.extend(
            out_port(i, j) for j in topology.neighbors(i) if j != source
        )

    edges = []
    wss = loss.wss_loss_db
    for link in sorted(topology.links, key=lambda l: tuple(sorted((l.a, l.b)))):
        dist = link_km(topology, link.a, link.b)
        fiber_db = loss.fiber_loss_db_per_km * dist
        for tail_node, head_node in ((link.a, link.b), (link.b, link.a)):
            if head_node == source:
                continue
            edges.append(
                GraphEdge(out_port(tail_node, head_node),
                          in_port(head_node, tail_node), 0.0, fiber_db, "fiber")
            )
    for i in consumers:
        nbrs = topology.neighbors(i)
        for j in nbrs:
            for k in nbrs:
                if k == source:
                    continue
                edges.append(GraphEdge(in_port(i, j), out_port(i, k), 2 * wss,
                                       0.0, "transit"))
        for j in nbrs:
            edges.append(GraphEdge(in_port(i, j), mem_vertex(i), wss, 0.0, "drop"))
    for j in topology.neighbors(source):
        edges.append(GraphEdge(gen_vertex(), out_port(source, j), 2 * wss, 0.0,
                               "transit"))
    edges.append(GraphEdge(gen_vertex(), mem_vertex(source), wss, 0.0, "drop"))

    return RoutingGraph(source, tuple(vertices), tuple(edges))
