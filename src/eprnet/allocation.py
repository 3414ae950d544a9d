"""Channel-to-pair allocation strategies maximizing the minimum rate.

An allocation instance couples the transmittance of every served node pair
with the per-channel generation rates.  A pair assigned a set of channels
receives their summed generation rate scaled by its transmittance.  Every
strategy partitions all channels among the pairs (channels are indivisible
and never reused) and chases the max-min received rate:

* ``fractional_optimum``  - closed-form bound with divisible channels
* ``exact_maxmin``        - branch and bound, provably optimal
* ``first_fit``           - binary search on a target + sequential pass
* ``round_robin``         - cyclic deal, biggest channels first
* ``random_balanced``     - seeded uniform shuffle, balanced counts
* ``modified_lpt``        - biggest channel to the currently poorest pair
* ``bezakova_matching``   - repeated max-min matchings, factor 1/(m-k+1)
* ``lp_round``            - water-filling rounded to whole channels

Channel and pair indices are 0-based throughout.  Received rates are
always computed the same way (per pair, the exactly rounded sum of its
channel rates, ``math.fsum``, times its transmittance), so independently
produced allocations with the same assignment compare bit-for-bit equal.
Every strategy's rates come from ``_finish``, the one rate rule.  Each
seed's one draw, ``_shuffled``, is made here: a pair order
(``_pair_order``) or random's channel shuffle.  A sweep calls the row
kernels of first-fit, round-robin and random, built once per instance,
with each run's seed; they sum blocks or slots bit for bit as ``_finish``.
The tests hold every strategy to an independent rate oracle
(``tests/oracles.py::reference_received``).
"""

from __future__ import annotations

import bisect
import heapq
import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterator, Sequence

from .spectrum import RateVector


class AllocationError(ValueError):
    """Raised for invalid instances, assignments, or strategy inputs."""


@dataclass(frozen=True)
class AllocationInstance:
    """Transmittances of k node pairs plus m per-channel rates."""

    etas: tuple[float, ...]
    rates: RateVector

    def __post_init__(self) -> None:
        if not self.etas:
            raise AllocationError("instance needs at least one pair")
        for i, eta in enumerate(self.etas):
            if not (0.0 < eta <= 1.0):
                raise AllocationError(
                    f"eta at index {i} must be in (0, 1], got {eta}"
                )

    @property
    def pair_count(self) -> int:
        return len(self.etas)

    @property
    def channel_count(self) -> int:
        return len(self.rates)


@dataclass(frozen=True)
class Allocation:
    """A total channel->pair assignment and the resulting received rates."""

    assignment: tuple[int, ...]
    received: tuple[float, ...]

    @property
    def min_rate(self) -> float:
        return min(self.received)


@dataclass(frozen=True)
class ExactResult:
    """Outcome of the exact solver; ``optimal`` is False on budget stop."""

    allocation: Allocation
    optimal: bool
    nodes_explored: int


def _pair_rates(etas: Sequence[float], owned: list[list[float]]) -> Iterator[float]:
    return map(operator.mul, etas, map(math.fsum, owned))


def _finish(instance: AllocationInstance, assignment: Sequence[int]) -> Allocation:
    """Allocation of a strategy's own assignment, trusted to be total and in range."""
    owned: list[list[float]] = [[] for _ in range(instance.pair_count)]
    for p, rate in zip(assignment, instance.rates.rates):
        owned[p].append(rate)
    return Allocation(tuple(assignment), tuple(_pair_rates(instance.etas, owned)))


def _validated_order(order: Sequence[int] | None, k: int) -> list[int]:
    if order is None:
        return list(range(k))
    try:  # int() would take 1.7, True or '1' for pair 1
        order = [operator.index(p) for p in order if not isinstance(p, bool)]
    except TypeError:
        order = None
    if order is None or sorted(order) != list(range(k)):
        raise AllocationError(f"pair_order must be a permutation of 0..{k - 1}")
    return order


def fractional_optimum(instance: AllocationInstance) -> float:
    """Max-min received rate when channels may be split fractionally.

    With divisible channels every pair can be pushed to exactly
    total_rate / sum(1/eta): pair p consumes T/eta_p of generation rate,
    and the budget balances at that T.  This is an upper bound for every
    indivisible allocation.
    """
    return instance.rates.total / math.fsum(1.0 / eta for eta in instance.etas)


# The exact search's default node budget, for library calls, sweeps and
# the CLI alike.
_NODE_BUDGET = 2_000_000


def exact_maxmin(
    instance: AllocationInstance,
    *,
    pair_order: Sequence[int] | None = None,
    node_budget: int = _NODE_BUDGET,
) -> ExactResult:
    """Provably optimal max-min allocation by branch and bound.

    Channels are branched in descending-rate order (ties by index); the
    children of a node try the pairs by ascending current received rate,
    ties broken by ``pair_order``.  Equal-rate channels are canonicalized
    (their pair indices must be non-decreasing) to kill permutation
    symmetry.  A leaf replaces the incumbent, at first the best heuristic
    seed, only when its minimum is strictly larger, so a node is pruned
    when none of its leaves can have every pair beat the incumbent's
    minimum, the threshold.  Two bounds decide that, from each short
    pair's missing rate mass ``threshold / eta_p - mass_p``:

    * water-filling: the missing masses must fit in the remaining rate
      mass, i.e. the water-filling completion with divisible channels
      must reach the threshold;
    * channel count: a pair needs at least as many more channels as it
      would take with the largest remaining ones, and those counts must
      fit in the channels left.

    Both are padded by a relative 1e-12 plus an absolute allowance for
    the rounding of running sums, so a float count is a lower bound.  A
    pair whose count reaches a mass within that padding above its goal
    may only tie the threshold, so the leaf's own arithmetic settles it:
    it needs a channel more unless ``eta_p * fsum(its rates + the j
    largest left)`` beats the threshold, and the node is pruned if all the
    channels left do not.  ``math.fsum`` rounds the exact sum once, so no
    j channels give a pair more than the j largest: a subtree whose best
    leaf only ties the incumbent can be pruned, one holding a strictly
    better leaf never is.

    A pair's running mass is restored exactly on backtracking, so every
    node's rates and children depend only on its path.  As pruning
    removes only subtrees without an improving leaf, the search meets the
    same improving leaves in the same order however much it prunes: the
    optimum returned depends only on the instance and ``pair_order``, and
    a search stopped at its budget has met every improvement that a
    weaker bound meets within that budget, so it can only do better.  The
    search is iterative and deterministic, with no wall-clock stop.
    Intended for small instances; on larger ones set a budget and expect
    ``optimal=False`` with the best incumbent found.

    Args:
        pair_order: permutation used to break ties between equally poor
            pairs while branching; distinct orders can surface distinct
            optimal assignments.
        node_budget: max search nodes before giving up; the root and
            each visited child count once.

    Returns:
        ExactResult; ``allocation.received`` uses the canonical rate
        computation, so its minimum compares exactly with enumeration.
        With fewer channels than pairs every assignment leaves a pair at
        rate 0, so the heuristic seed is returned as optimal at the root.
    """
    if (not isinstance(node_budget, int) or isinstance(node_budget, bool)
            or node_budget < 1):
        raise AllocationError(
            f"node_budget must be an int >= 1, got {node_budget!r}")
    k, m = instance.pair_count, instance.channel_count
    # Pairs in tie-break order: a stable sort of this list by received
    # rate orders children by (rate, position in pair_order).
    by_rank = _validated_order(pair_order, k)
    n = list(instance.rates)
    etas = list(instance.etas)
    inv_eta = [1.0 / e for e in etas]
    order = instance.rates.descending
    desc = [n[x] for x in order]  # the j largest left at depth t: desc[t:t + j]
    # prefix[i]: mass of the i largest channels, so the j largest of the
    # channels left at depth t sum to prefix[t + j] - prefix[t].
    prefix = [0.0] * (m + 1)
    for t in range(m):
        prefix[t + 1] = prefix[t] + desc[t]
    # Covers the rounding of the prefix sums, of their differences and of
    # the running masses, each a sequential sum of at most m nonnegative
    # terms.
    mass_slack = 4.0 * (m + 1) * math.ulp(1.0) * prefix[m]
    tied = [t > 0 and n[order[t - 1]] == n[order[t]] for t in range(m)]

    # Seed the incumbent with the best cheap heuristic so pruning bites
    # immediately.
    seed_alloc = modified_lpt(instance)
    if m < k:
        return ExactResult(seed_alloc, True, 0)
    for cand in (first_fit(instance, None), bezakova_matching(instance)):
        if cand.min_rate > seed_alloc.min_rate:
            seed_alloc = cand
    best_assign = list(seed_alloc.assignment)
    best_value = seed_alloc.min_rate

    def mass_goals(threshold: float) -> tuple[list[float], list[float]]:
        # A pair's mass below its goal cannot beat threshold, and mass
        # above its top surely does.
        return ([threshold * inv * (1.0 - 1e-12) - mass_slack for inv in inv_eta],
                [threshold * inv * (1.0 + 1e-12) + mass_slack for inv in inv_eta])

    goals, tops = mass_goals(best_value)
    assign = [-1] * m
    mass = [0.0] * k
    owned: list[list[float]] = [[] for _ in range(k)]  # rates, for leaves
    saved = [0.0] * m  # mass of the pair that took order[t], before it did
    kids: list[list[int]] = [[]] * m  # children of the open node at depth t
    tried = [0] * m  # how many of kids[t] have been entered
    nodes = 0
    optimal = True
    t = 0
    while True:
        nodes += 1
        if nodes > node_budget:
            optimal = False
            break
        expand = False
        if t == m:
            value = min(_pair_rates(etas, owned))
            if value > best_value:
                best_value = value
                best_assign = assign.copy()
                goals, tops = mass_goals(best_value)
        else:
            # Missing mass of each short pair: together it must fit in the
            # remaining mass (water-filling), and each pair's share must
            # fit in its own channels (channel count).
            shorts = [g - w for g, w in zip(goals, mass) if g > w]
            # Left to right: builtin sum() compensates from Python 3.12 on.
            if reduce(operator.add, shorts, 0.0) <= prefix[m] - prefix[t]:
                base = prefix[t]
                ends = [bisect.bisect_left(prefix, base + (g - w), t + 1)
                        if g > w else t for g, w in zip(goals, mass)]
                spare = m - t - sum(ends) + k * t
                # A count whose mass lands in the padding may be one short,
                # or no count may do: the leaf's own arithmetic decides.
                for p, i in enumerate(ends):
                    if spare < 0:
                        break
                    top = tops[p] - mass[p]
                    if (prefix[i] - base <= top and etas[p]
                            * math.fsum(owned[p] + desc[t:i]) <= best_value):
                        spare -= 1
                        if (i == m or prefix[m] - base <= top
                                and etas[p] * math.fsum(owned[p] + desc[t:])
                                <= best_value):
                            spare = -1
                expand = spare >= 0
        if expand:
            r = list(map(operator.mul, etas, mass))
            children = sorted(by_rank, key=r.__getitem__)
            if tied[t]:
                prev_pair = assign[order[t - 1]]
                children = [p for p in children if p >= prev_pair]
            kids[t] = children
            tried[t] = 0
            depth = t
        else:
            depth = t - 1
        # Enter the next untried child, backtracking through exhausted
        # nodes; each undo restores the saved mass, never subtracts.
        while depth >= 0:
            x = order[depth]
            c = tried[depth]
            if c:
                p = assign[x]
                mass[p] = saved[depth]
                owned[p].pop()
            if c < len(kids[depth]):
                tried[depth] = c + 1
                p = kids[depth][c]
                assign[x] = p
                saved[depth] = mass[p]
                mass[p] += n[x]
                owned[p].append(n[x])
                t = depth + 1
                break
            depth -= 1
        else:
            break
    return ExactResult(_finish(instance, best_assign), optimal, nodes)


def first_fit(
    instance: AllocationInstance,
    pair_order: Sequence[int] | None = None,
) -> Allocation:
    """Largest uniformly reachable target via a sequential prefix pass.

    For a candidate target T the channels are walked in index order and
    accumulate on the current pair until its received rate reaches T,
    then the pass moves to the next pair in ``pair_order`` (channels left
    over after the last pair stay on it).  Feasibility of the pass is
    monotone in T, so the largest feasible T in [0, fractional optimum]
    is found by bisection to 1e-9 relative resolution (or the float
    spacing at the fractional optimum, where that is coarser).

    Within a block the rate never decreases, and a block starting later
    holds at most the mass of one starting earlier at every channel, so
    each pass also settles later probes without walking again.  A
    feasible pass at T whose least reached block rate is R makes the same
    blocks at every target in [T, R].  An infeasible pass whose largest
    short rate is S (over the rates just before each block's last channel
    and the failing pair's final rate) fails at every target above S.
    """
    order = _validated_order(pair_order, instance.pair_count)
    ends, _ = _first_fit_blocks(instance, fractional_optimum(instance), order)
    assign: list[int] = []
    for p, end in zip(order, ends):
        assign += [p] * (end + 1 - len(assign))
    return _finish(instance, assign)


def _first_fit_blocks(instance: AllocationInstance, tf: float,
                      order: Sequence[int]) -> tuple[list[int], list[float]]:
    """First-fit's last channel of each block, in trusted pair ``order``,
    and received rates; ``tf`` is the fractional optimum."""
    m, etas, n = instance.channel_count, instance.etas, instance.rates.rates
    pair_etas = [etas[p] for p in order]

    def run_pass(target: float) -> tuple[list[int], bool, float]:
        # Last channel of each block, in pair order; whether every pair
        # reached the target; and R if so, else S.  A pair that cannot
        # reach the target takes the rest of the channels; pairs after it
        # get none.
        ends = []
        reached = math.inf
        short = 0.0
        x = 0
        for eta in pair_etas:
            if x == m:
                return ends, False, short
            mass = n[x]
            rate = eta * mass
            if rate < target:
                for x in range(x + 1, m):
                    before = rate
                    mass += n[x]
                    rate = eta * mass
                    if rate >= target:
                        break
                else:
                    ends.append(m - 1)
                    return ends, False, rate if rate > short else short
                if before > short:
                    short = before
            if rate < reached:
                reached = rate
            ends.append(x)
            x += 1
        return ends, True, reached

    ends, feasible, reached = run_pass(0.0)
    if tf > 0 and feasible:
        top, feasible, short = run_pass(tf)
        if feasible:
            ends = top
        else:
            lo, hi = 0.0, tf
            # No finer than the float spacing at tf: below it a subnormal
            # tf's midpoint rounds back onto lo or hi and the loop stalls.
            tol = max(1e-9 * tf, math.ulp(tf))
            while hi - lo > tol:
                mid = (lo + hi) / 2.0
                if mid <= reached:
                    lo = mid
                elif mid > short:
                    hi = mid
                else:
                    probe, feasible, bound = run_pass(mid)
                    if feasible:
                        ends, lo, reached = probe, mid, bound
                    else:
                        hi, short = mid, bound
    # The blocks of the last feasible pass are the blocks at lo.  Channels
    # left over after the last pair's block stay on it; pairs after a
    # short pass's last block get none.
    ends[-1] = m - 1
    masses = [math.fsum(n[a + 1:b + 1]) for a, b in zip([-1, *ends], ends)]
    return ends, _placed(etas, order, masses)


def _first_fit_row(instance: AllocationInstance) -> Callable[[int], list[float]]:
    """``first_fit``'s received rates by trusted seed."""
    tf, k = fractional_optimum(instance), instance.pair_count
    return lambda seed: _first_fit_blocks(instance, tf, _pair_order(k, seed))[1]


def _placed(etas: Sequence[float], order: Sequence[int],
            masses: Sequence[float]) -> list[float]:
    """Received rates when pair ``order[j]`` holds rate mass ``masses[j]``."""
    received = [0.0] * len(etas)
    for p, mass in zip(order, masses):
        received[p] = etas[p] * mass
    return received


def round_robin(
    instance: AllocationInstance,
    pair_order: Sequence[int] | None = None,
) -> Allocation:
    """Deal channels cyclically in descending-rate order (ties by index)."""
    order = _validated_order(pair_order, instance.pair_count)
    return _dealt(instance, instance.rates.descending, order)


def _round_robin_row(instance: AllocationInstance) -> Callable[[int], list[float]]:
    """``round_robin``'s received rates by trusted seed: slot j, the channels
    at descending positions j, j + k, ..., goes to pair ``order[j]`` whatever
    the order, so each slot is summed once."""
    n, k = instance.rates.rates, instance.pair_count
    slots = _slot_sums([n[x] for x in instance.rates.descending], k)
    return lambda seed: _placed(instance.etas, _pair_order(k, seed), slots)


def _seed_word(value: object, what: str, error: type = AllocationError) -> int:
    """``value`` if it is an int in 0..2**64-1, the seeds ``_shuffled`` takes;
    ``error`` naming ``what`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{what} must be an int, got {value!r}")
    if not 0 <= value < 1 << 64:
        bound = ">= 0" if value < 0 else "< 2**64"
        raise error(f"{what} must be {bound}, got {value}")
    return int(value)


def _shuffled(size: int, seed: int) -> np.ndarray:
    """The one seeded draw: PCG64's permutation of range(size), by a checked seed."""
    # numpy is imported only by the functions that compute with it, so
    # importing eprnet, routing and rate tables never load it; once it is
    # loaded, each of these imports is a sys.modules lookup.
    import numpy as np

    return np.random.Generator(np.random.PCG64(seed)).permutation(size)


def _pair_order(k: int, seed: int | None) -> tuple[int, ...] | None:
    """The k pairs shuffled by ``seed``; None keeps their natural order."""
    return None if seed is None else tuple(_shuffled(k, seed).tolist())


def random_balanced(instance: AllocationInstance, rng_seed: int) -> Allocation:
    """Uniformly shuffle channels, then deal so counts differ by <= 1.

    ``rng_seed`` is required: None would seed from OS entropy.
    """
    if rng_seed is None:
        raise AllocationError("the random strategy requires a seed")
    shuffle = _shuffled(instance.channel_count, _seed_word(rng_seed, "shuffle seed"))
    return _dealt(instance, shuffle.tolist(), range(instance.pair_count))


def _random_row(instance: AllocationInstance) -> Callable[[int], list[float]]:
    """``random_balanced``'s received rates by trusted seed."""
    n, k, m = instance.rates.rates, instance.pair_count, instance.channel_count
    return lambda seed: _placed(instance.etas, range(k), _slot_sums(
        [n[x] for x in _shuffled(m, seed).tolist()], k))


def _dealt(instance: AllocationInstance, channels: Sequence[int],
           pairs: Sequence[int]) -> Allocation:
    """The cyclic deal: channel ``channels[i]`` goes to pair ``pairs[i % k]``."""
    k = instance.pair_count
    assign = [0] * instance.channel_count
    for i, x in enumerate(channels):
        assign[x] = pairs[i % k]
    return _finish(instance, assign)


def _slot_sums(masses: Sequence[float], k: int) -> list[float]:
    """Rate mass of each slot j of a cyclic deal: masses j, j + k, ..."""
    return [math.fsum(masses[j::k]) for j in range(k)]


def _deal_to_poorest(instance: AllocationInstance, assign: list[int],
                     channels: Sequence[int], received: Sequence[float]) -> None:
    """Give each channel in turn to a poorest pair, ties to the lowest index.

    A heap of (received rate, pair) pops exactly the pair that
    ``min(range(k), key=lambda q: (received[q], q))`` would pick.
    """
    etas, n = instance.etas, instance.rates.rates
    heap = [(r, q) for q, r in enumerate(received)]
    heapq.heapify(heap)
    for x in channels:
        r, p = heap[0]
        assign[x] = p
        heapq.heapreplace(heap, (r + etas[p] * n[x], p))


def modified_lpt(instance: AllocationInstance) -> Allocation:
    """Biggest channel first, always to a currently poorest pair.

    Giving the next channel to a pair with the minimum received rate is
    the greedy move that maximizes the post-assignment minimum; ties go
    to the lowest pair index.
    """
    assign = [-1] * instance.channel_count
    _deal_to_poorest(instance, assign, instance.rates.descending,
                     [0.0] * instance.pair_count)
    return _finish(instance, assign)


def _matching_rounds(instance: AllocationInstance, *, frugal: bool) -> Allocation:
    """One full run of the round-based matching scheme.

    Every round finds the highest threshold t* such that each pair below
    t* can take one distinct remaining channel reaching it.  Pairs
    already at t* skip the round.

    ``frugal=True`` then hands each needy pair its cheapest sufficient
    channel, minimizing the generation rate consumed per round so large
    channels survive for later rounds.  ``frugal=False`` instead raises
    the pairs' individual targets, one pair at a time in index order, as
    far as the others' targets allow; that spends channels faster but
    maximizes the round's whole rate profile, not only its minimum.
    Channels that can no longer improve the minimum are dealt to the
    currently poorest pairs.

    Both steps read Hall's condition off counts.  Row q of ``fmat`` holds
    pair q's resulting rate for each remaining channel in descending-rate
    order, so it never increases, and the channels that lift q to a
    target are a prefix whose length is q's eligible count.  A matching
    exists iff the needy pairs' counts, sorted ascending, have their i-th
    entry (from 0) >= i + 1.

    * t*: a pair's count is at most x iff fmat[q, x] falls short, so t
      passes iff, for every x, at most x entries of column x lie below
      t, and at most as many pairs as channels have a current rate below
      t.  t* is the least of the x-th smallest entries (from 0) of
      columns x < k and, when fewer channels than pairs remain, the
      a-th smallest current rate for a remaining channels.
    * Raising pair q: let D be the other needy pairs' counts, sorted
      ascending, and j one past the last i with D[i] < i + 2 (0 if
      none).  D passes Hall's test, so the smallest count q may keep is
      j + 1, and q's target becomes fmat[q, j] when that beats its
      current target.

    Every target is an entry of ``fmat`` or a current rate, compared with
    ``>=``, and feasibility is monotone in each target, so both steps pick
    exactly what a bisection over those entries with a full Hall check
    per probe would.
    """
    import numpy as np

    k = instance.pair_count
    etas = np.asarray(instance.etas)
    n = instance.rates.rates
    rates = np.asarray(n)
    assign = [-1] * instance.channel_count
    mass = np.zeros(k)
    # Unassigned channels by descending rate (ties by index).
    free = np.asarray(instance.rates.descending)

    while free.size:
        available = free.size
        r = etas * mass
        fmat = r[:, None] + etas[:, None] * rates[free][None, :]

        # t* and the raised targets: see the docstring.
        square = min(k, available)
        t_star = np.sort(fmat[:, :square], axis=0).diagonal().min()
        if available < k:
            t_star = min(t_star, np.partition(r, available)[available])

        deficit = (r < t_star).tolist()
        reqs = np.where(deficit, t_star, r)
        counts = (fmat >= reqs[:, None]).sum(axis=1).tolist()
        if not frugal:
            pool = sorted(c for c, d in zip(counts, deficit) if d)
            for q in range(k):
                if deficit[q]:
                    del pool[bisect.bisect_left(pool, counts[q])]
                j = len(pool)
                while j and pool[j - 1] >= j + 1:
                    j -= 1
                if j < available and fmat[q, j] > reqs[q]:
                    reqs[q] = fmat[q, j]
                    deficit[q] = True
                    counts[q] = int(np.count_nonzero(fmat[q] >= reqs[q]))
                if deficit[q]:
                    bisect.insort(pool, counts[q])

        needy = [q for q in range(k) if deficit[q]]
        if not needy:
            # No remaining channel improves the minimum: deal the rest to
            # the poorest pairs and stop.
            _deal_to_poorest(instance, assign, sorted(free.tolist()), r.tolist())
            break

        # Most constrained pair first; each takes its smallest eligible
        # remaining channel, which minimizes the total assigned rate.
        channels = free.tolist()
        taken = [False] * available
        for q in sorted(needy, key=lambda q: (counts[q], q)):
            pos = counts[q] - 1
            while pos >= 0 and taken[pos]:
                pos -= 1
            if pos < 0:
                raise AllocationError("internal error: matching round infeasible")
            taken[pos] = True
            x = channels[pos]
            assign[x] = q
            mass[q] += n[x]
        free = free[~np.asarray(taken)]

    return _finish(instance, assign)


def bezakova_matching(instance: AllocationInstance) -> Allocation:
    """Repeated max-min matchings; min rate >= optimum / (m - k + 1).

    With fewer channels than pairs (m < k) that guarantee is vacuous:
    every assignment leaves a pair at rate 0, the rounds find t* = 0, and
    the channels go to the poorest pairs.

    The first round is always a full max-min matching, which alone
    secures the 1/(m - k + 1) guarantee; later rounds only add channels.
    Two refinements shape those rounds: a pair already meeting a round's
    threshold may be skipped, and matchings may prefer cheaper channels
    (minimizing the generation rate consumed).  Both are allowed only
    when they do not hurt the overall minimum, so the scheme runs once
    with each round policy and keeps the allocation with the larger final
    minimum (ties favor the frugal run, which consumed less rate).
    """
    frugal = _matching_rounds(instance, frugal=True)
    generous = _matching_rounds(instance, frugal=False)
    return frugal if frugal.min_rate >= generous.min_rate else generous


def lp_round(instance: AllocationInstance) -> Allocation:
    """Round the water-filling fractional optimum to whole channels.

    Pairs claim contiguous spans of generation-rate mass, in pair order
    over channels in index order, each span worth T_f / eta_p.  At most
    k-1 channels straddle a span boundary; each of those is handed whole
    to the straddling pair whose rounded-down (wholly owned) received
    rate is currently smaller, ties to the lower pair index.  The result
    is guaranteed to reach at least
    max(0, T_f - max_{p,x} eta_p * rate_x); with pathological values a
    pair may end up with no channels at all.
    """
    k, m = instance.pair_count, instance.channel_count
    tf = fractional_optimum(instance)
    n = list(instance.rates)
    if tf <= 0.0:
        # Degenerate all-zero spectrum: ownership spans are empty, hand
        # everything to the first pair.
        return _finish(instance, [0] * m)

    boundaries = []  # cumulative mass where pair p's span ends
    acc = 0.0
    for p in range(k - 1):
        acc += tf / instance.etas[p]
        boundaries.append(acc)
    boundaries.append(math.inf)  # last pair absorbs float drift

    # A channel inside one span goes to its pair at once; the straddling
    # ones wait until every floor is summed (in ascending channel order).
    assign = [-1] * m
    floor_rate = [0.0] * k
    shared: list[tuple[int, range]] = []
    p = 0
    lo_edge = 0.0
    for x in range(m):
        hi_edge = lo_edge + n[x]
        while p < k - 1 and boundaries[p] <= lo_edge:
            p += 1
        first = p
        while p < k - 1 and boundaries[p] < hi_edge:
            p += 1
        if p == first:
            assign[x] = p
            floor_rate[p] += instance.etas[p] * n[x]
        else:
            shared.append((x, range(first, p + 1)))
        lo_edge = hi_edge

    for x, claimants in shared:
        winner = min(claimants, key=lambda q: (floor_rate[q], q))
        assign[x] = winner
        floor_rate[winner] += instance.etas[winner] * n[x]
    return _finish(instance, assign)
