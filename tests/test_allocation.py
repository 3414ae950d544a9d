import builtins
import contextlib
import functools
import math
import random
import re
import signal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprnet import (
    ALL_STRATEGIES,
    AllocationError,
    AllocationInstance,
    ExperimentConfig,
    LossParams,
    RateVector,
    all_pair_routes,
    allocate_once,
    bezakova_matching,
    build_routing_graph,
    derive_seed,
    exact_maxmin,
    first_fit,
    fractional_optimum,
    generation_rates,
    load_topology,
    lp_round,
    modified_lpt,
    random_balanced,
    round_robin,
)
import eprnet.allocation
from eprnet import harness
from eprnet.allocation import _finish, _matching_rounds, _shuffled
from oracles import (
    enumerate_best_min,
    lp_fractional_search,
    reference_exact_dfs,
    reference_first_fit,
    reference_matching_rounds,
    reference_modified_lpt,
    reference_received,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def make_instance(etas, rates):
    return AllocationInstance(tuple(etas), RateVector(tuple(float(r) for r in rates)))


@contextlib.contextmanager
def time_limit(seconds: float):
    """Fail, rather than hang, if the block runs longer than ``seconds``."""
    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def random_instance(rng: random.Random, max_k=4, max_m=10, min_m=1):
    k = rng.randint(1, max_k)
    m = rng.randint(min_m, max_m)
    etas = [rng.uniform(0.001, 1.0) for _ in range(k)]
    rates = [rng.uniform(0.0, 3.0) if rng.random() > 0.1 else 0.0
             for _ in range(m)]
    return make_instance(etas, rates)


def tie_heavy_instance(rng: random.Random) -> AllocationInstance:
    """k <= 5, m <= 9, drawn from tiny pools so etas and rates repeat.

    Non-dyadic rates (0.1, 0.2, 0.3) make sums of the same channels round
    differently by order, so near-tied pair rates are common.  Shapes are
    capped at 6,000 k^m leaves to keep the unpruned search quick.
    """
    k = rng.randint(1, 5)
    m = rng.randint(1, 9)
    while k ** m > 6000:
        m -= 1
    eta_pool = [rng.choice([0.25, 0.5, 1.0]), rng.uniform(0.01, 1.0),
                rng.uniform(0.01, 1.0)]
    rate_pool = [0.0, 0.1, 0.2, 0.3, 0.7, 1.0, rng.uniform(0.0, 3.0)]
    return make_instance([rng.choice(eta_pool) for _ in range(k)],
                         [rng.choice(rate_pool) for _ in range(m)])


def tie_prone_instance(rng: random.Random) -> AllocationInstance:
    """Shapes where a faster first-fit or LPT could round or tie apart.

    One pair, m < k, all-equal rates, zero-rate channels, and dyadic
    etas and rates, whose block masses hit a target exactly, so the
    ``>=`` test is decided at equality.
    """
    k = rng.choice([1, 2, rng.randint(1, 12)])
    m = rng.randint(1, 24)
    shape = rng.randrange(4)
    if shape == 0:  # equal rates
        rates = [rng.choice([0.5, 1.0, 0.1])] * m
    elif shape == 1:  # dyadic, with zeros
        rates = [rng.choice([0.0, 0.25, 0.5, 1.0, 2.0]) for _ in range(m)]
    elif shape == 2:  # non-dyadic, rounding depends on the order of sums
        rates = [rng.choice([0.0, 0.1, 0.2, 0.3, 0.7, 1e-17])
                 for _ in range(m)]
    else:
        rates = [rng.uniform(0.0, 3.0) if rng.random() > 0.2 else 0.0
                 for _ in range(m)]
    eta_pool = [0.25, 0.5, 1.0] if shape < 2 else [
        0.25, 0.5, 1.0, 0.1, 0.3, rng.uniform(0.001, 1.0)]
    return make_instance([rng.choice(eta_pool) for _ in range(k)], rates)


@functools.lru_cache(maxsize=None)
def bundled_instances(name: str, channels: int = 200
                      ) -> tuple[AllocationInstance, ...]:
    """Every routable placement of a bundled topology at 4 and 8 dB."""
    config = ExperimentConfig(topology_path=name, seed=1, channels=channels)
    rates = generation_rates(config.grid(), config.profile())
    topology = load_topology(name)
    found = []
    for wss in (4.0, 8.0):
        for source in topology.node_ids:
            table = all_pair_routes(build_routing_graph(
                topology, source, LossParams(config.fiber_loss_db_per_km, wss)))
            if not table.infeasible:
                found.append(AllocationInstance(
                    tuple(table.plans[p].eta for p in sorted(table.plans)), rates))
    return tuple(found)


def channel_walk(inst, order, target):
    """The first-fit pass at ``target``, one channel at a time.

    Returns the owner of each channel, whether every pair reached the
    target, the least rate at which a pair reached it, and the largest
    rate a pair held while short of it (0.0 if none was).
    """
    k = inst.pair_count
    mass = [0.0] * k
    assign = []
    reached, short = math.inf, 0.0
    cursor = 0
    for rate in inst.rates:
        p = order[cursor] if cursor < k else order[k - 1]
        assign.append(p)
        mass[p] += rate
        if cursor < k:
            received = inst.etas[p] * mass[p]
            if received >= target:
                reached = min(reached, received)
                cursor += 1
            else:
                short = max(short, received)
    return assign, cursor >= k, reached, short


@st.composite
def instances(draw, max_k=4, max_m=8, min_m=1):
    k = draw(st.integers(1, max_k))
    m = draw(st.integers(min_m, max_m))
    etas = draw(st.lists(st.floats(0.001, 1.0), min_size=k, max_size=k))
    rates = draw(st.lists(st.floats(0.0, 5.0), min_size=m, max_size=m))
    return make_instance(etas, rates)


def assert_partition(instance, allocation):
    assert allocation.received == reference_received(instance, allocation.assignment)
    assert allocation.min_rate == min(allocation.received)


ALL_FUNCS = [
    ("exact", lambda inst: exact_maxmin(inst).allocation),
    ("first-fit", lambda inst: first_fit(inst)),
    ("round-robin", lambda inst: round_robin(inst)),
    ("random", lambda inst: random_balanced(inst, 7)),
    ("lpt", lambda inst: modified_lpt(inst)),
    ("lp-round", lambda inst: lp_round(inst)),
]


class TestInstanceValidation:
    def test_empty_pairs_rejected(self):
        with pytest.raises(AllocationError):
            AllocationInstance((), RateVector((1.0,)))

    @pytest.mark.parametrize("eta", [0.0, -0.5, 1.5, math.nan])
    def test_bad_eta_rejected(self, eta):
        with pytest.raises(AllocationError):
            make_instance([eta], [1.0])

    def test_empty_rates_rejected(self):
        with pytest.raises(ValueError):
            RateVector(())

    @pytest.mark.parametrize("rate", [-1.0, math.nan])
    def test_bad_rate_rejected(self, rate):
        with pytest.raises(ValueError):
            RateVector((rate,))


class TestFinish:
    """The one rate path every strategy's assignment goes through."""

    def test_degenerate_partition(self):
        inst = make_instance([0.25, 0.5, 1.0], [1.0, 2.0, 3.0])
        assert _finish(inst, [0, 0, 0]).received == (1.5, 0.0, 0.0)

    def test_identity_transmittance(self):
        inst = make_instance([1.0, 1.0], [2.0, 1.0])
        assert _finish(inst, [0, 1]).received == (2.0, 1.0)

    def test_scaled_transmittance(self):
        inst = make_instance([0.5, 0.1], [4.0, 4.0])
        assert _finish(inst, [0, 1]).received == (2.0, pytest.approx(0.4, rel=1e-15))


class TestFractionalOptimum:
    def test_symmetric_split(self):
        inst = make_instance([1.0, 1.0, 1.0], [2.0, 3.0, 1.0])
        assert fractional_optimum(inst) == pytest.approx(2.0, rel=1e-15)

    def test_uneven_transmittance(self):
        inst = make_instance([1.0, 0.5], [3.0, 1.0])
        assert fractional_optimum(inst) == pytest.approx(4.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("case", range(20))
    def test_matches_lp_feasibility_oracle(self, case):
        rng = random.Random(3100 + case)
        inst = random_instance(rng)
        closed = fractional_optimum(inst)
        lp = lp_fractional_search(list(inst.etas), list(inst.rates))
        assert closed == pytest.approx(lp, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("case", range(25))
    def test_upper_bounds_integer_optimum(self, case):
        rng = random.Random(4400 + case)
        inst = random_instance(rng, max_m=8)
        res = exact_maxmin(inst)
        assert res.optimal
        assert res.allocation.min_rate <= fractional_optimum(inst) * (1 + 1e-12)


class TestExactMaxmin:
    def test_two_channel_example(self):
        inst = make_instance([1.0, 1.0], [2.0, 1.0])
        res = exact_maxmin(inst)
        assert res.optimal
        assert res.allocation.min_rate == 1.0

    def test_single_pair(self):
        inst = make_instance([0.25], [2.0, 1.0, 0.5])
        res = exact_maxmin(inst)
        assert res.optimal
        assert res.allocation.min_rate == reference_received(inst, [0, 0, 0])[0]

    @pytest.mark.parametrize("case", range(40))
    def test_equals_enumeration(self, case):
        rng = random.Random(5200 + case)
        inst = random_instance(rng)
        res = exact_maxmin(inst, node_budget=10_000_000)
        assert res.optimal
        want = enumerate_best_min(list(inst.etas), list(inst.rates))
        assert res.allocation.min_rate == want

    def test_budget_stop_keeps_incumbent(self):
        rng = random.Random(6)
        inst = make_instance(
            [rng.uniform(0.01, 1.0) for _ in range(4)],
            [rng.uniform(0.1, 3.0) for _ in range(12)],
        )
        res = exact_maxmin(inst, node_budget=5)
        assert not res.optimal
        assert_partition(inst, res.allocation)
        assert res.allocation.min_rate >= 0.0

    @pytest.mark.parametrize("chunk", range(10))
    def test_matches_unpruned_search_on_ties(self, chunk):
        # Pruning must not change which optimal assignment comes back, under
        # either pair order; 10 chunks x 100 tie-heavy instances.
        for case in range(100 * chunk, 100 * (chunk + 1)):
            rng = random.Random(case)
            inst = tie_heavy_instance(rng)
            order = list(range(inst.pair_count))
            rng.shuffle(order)
            full = exact_maxmin(inst, pair_order=order, node_budget=10 ** 9)
            assert full.optimal
            assert full.allocation.assignment == reference_exact_dfs(inst, order)
            want = enumerate_best_min(list(inst.etas), list(inst.rates))
            assert full.allocation.min_rate == want

            reverse = exact_maxmin(inst, pair_order=order[::-1],
                                   node_budget=10 ** 9)
            assert reverse.optimal
            assert reverse.allocation.assignment == reference_exact_dfs(
                inst, order[::-1])
            assert reverse.allocation.min_rate == want

    def test_deep_search_stops_at_budget(self):
        # The search depth equals the channel count; an explicit stack
        # keeps 1,500 levels from overflowing the interpreter stack.
        rates = [1.0 + (x % 7) * 0.1 for x in range(1500)]
        inst = make_instance([0.5, 0.3, 0.9], rates)
        res = exact_maxmin(inst, node_budget=5000)
        assert not res.optimal
        assert res.nodes_explored == 5001
        assert_partition(inst, res.allocation)

    def test_channel_count_bound_keeps_ring4_small(self):
        # The golden ring4 sweep's exact solves, run 0 of each placement:
        # the seed is optimal, and the channel-count bound, its ties
        # settled by fsum, proves it at the root.  The water-filling bound
        # alone took 515,286 nodes for source a at 8 dB.
        config = ExperimentConfig(topology_path=str(GOLDEN / "ring4.json"),
                                  seed=97531, wss_losses=(4.0, 8.0), channels=10)
        topology = load_topology(config.topology_path)
        rates = generation_rates(config.grid(), config.profile())
        for loss_idx, wss in enumerate(config.wss_losses):
            for source_idx, source in enumerate(topology.node_ids):
                graph = build_routing_graph(topology, source, LossParams(0.4, wss))
                table = all_pair_routes(graph)
                etas = tuple(table.plans[pair].eta for pair in sorted(table.plans))
                inst = AllocationInstance(etas, rates)
                seed = derive_seed(config.seed, loss_idx, source_idx,
                                   ALL_STRATEGIES.index("exact"), 0)
                perm = tuple(int(p) for p in np.random.Generator(
                    np.random.PCG64(seed)).permutation(len(etas)))
                res = exact_maxmin(inst, pair_order=perm,
                                   node_budget=config.exact_node_budget)
                assert res.optimal
                assert res.nodes_explored == 1, (source, wss)

    def test_all_zero_spectrum_optimal_at_root(self):
        # Every assignment ties at rate 0, so no leaf can beat the seed: a
        # pair that cannot beat it even with every remaining channel
        # prunes the root.
        graph = build_routing_graph(load_topology("simple6"), "A",
                                    LossParams(0.4, 8.0))
        etas = tuple(p.eta for p in all_pair_routes(graph).plans.values())
        inst = make_instance(etas, [0.0] * 32)
        res = exact_maxmin(inst, node_budget=200_000)
        assert res.optimal
        assert res.nodes_explored == 1
        assert res.allocation.min_rate == 0.0

    def test_more_budget_never_lowers_the_minimum(self):
        # The instance of tests/golden/allocate-simple6-A.txt, in the pair
        # order of its seed 3: pruning removes only subtrees without a
        # strictly better leaf, so a larger budget meets every improvement
        # a smaller one met.
        graph = build_routing_graph(load_topology("simple6"), "A",
                                    LossParams(0.4, 8.0))
        etas = tuple(p.eta for p in all_pair_routes(graph).plans.values())
        config = ExperimentConfig(topology_path="simple6", seed=3, channels=32)
        inst = AllocationInstance(etas, generation_rates(config.grid(),
                                                         config.profile()))
        runs = [allocate_once(inst, "exact", seed=3, node_budget=budget)
                for budget in (500, 5000, 50_000)]
        assert not runs[1][1]
        mins = [allocation.min_rate for allocation, _ in runs]
        assert mins == sorted(mins)

    def test_sums_no_floats_with_builtin_sum(self, monkeypatch):
        # Builtin sum() compensates float rounding from Python 3.12 on, so
        # a float sum through it would make pruning, nodes_explored and a
        # budget-stopped result depend on the Python version.
        def int_sum(values, start=0):
            values = list(values)
            assert all(type(v) is int for v in values), values
            return builtins.sum(values, start)

        monkeypatch.setattr(eprnet.allocation, "sum", int_sum, raising=False)
        # The instance of tests/golden/allocate-simple6-A.txt: it stops at
        # its node budget.
        graph = build_routing_graph(load_topology("simple6"), "A",
                                    LossParams(0.4, 8.0))
        etas = tuple(p.eta for p in all_pair_routes(graph).plans.values())
        config = ExperimentConfig(topology_path="simple6", seed=3, channels=32)
        inst = AllocationInstance(etas, generation_rates(config.grid(),
                                                         config.profile()))
        res = exact_maxmin(inst, node_budget=5000)
        assert (res.optimal, res.nodes_explored) == (False, 5001)
        for case in range(20):
            assert exact_maxmin(random_instance(random.Random(case))).optimal

    def test_bad_pair_order_rejected(self):
        inst = make_instance([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(AllocationError):
            exact_maxmin(inst, pair_order=[0, 0])

    @pytest.mark.parametrize("order", [[0.9, 1.7], [True, False], ["1", "0"]])
    def test_non_int_pair_order_rejected(self, order):
        # int() would have run these as the order [0, 1] or [1, 0].
        inst = make_instance([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(AllocationError, match="permutation"):
            exact_maxmin(inst, pair_order=order)

    @pytest.mark.parametrize("budget", [0, -1, math.nan, 2.5, True])
    def test_node_budget_below_one_rejected(self, budget):
        # A NaN budget would never stop the search; True would pass as 1.
        inst = make_instance([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(AllocationError, match="node_budget"):
            exact_maxmin(inst, node_budget=budget)

    def test_fewer_channels_than_pairs_optimal_at_root(self):
        # Every assignment leaves a pair at rate 0, so the seed is optimal
        # and no search node is needed.
        inst = make_instance([0.9, 0.5, 0.2], [1.0, 2.0])
        res = exact_maxmin(inst, node_budget=1)
        assert res.optimal
        assert res.nodes_explored == 0
        assert res.allocation.min_rate == 0.0
        assert res.allocation.assignment == reference_exact_dfs(inst)


class TestFirstFit:
    def test_uniform_example(self):
        inst = make_instance([1.0, 1.0], [1.0, 1.0, 1.0, 1.0])
        allocation = first_fit(inst, [0, 1])
        assert allocation.assignment == (0, 0, 1, 1)
        assert allocation.received == (2.0, 2.0)

    def test_single_pair_takes_everything(self):
        inst = make_instance([0.5], [1.0, 2.0])
        assert first_fit(inst).assignment == (0, 0)

    def test_resolves_the_target_to_1e_9_relative(self):
        # Pair 0 reaches its block's rate 1 + 1e-8 only with the tiny
        # channel, so a bisection coarser than 1e-8 of the fractional
        # optimum (1.25) stops below it and gives pair 1 that channel.
        # reference_first_fit carries its own copy of the tolerance, so
        # the assignment is written out.
        inst = make_instance([1.0, 1.0], [1.0, 1e-8, 1.5])
        assert first_fit(inst).assignment == (0, 0, 1)

    def test_probes_a_midpoint_equal_to_the_short_bound(self):
        # The pass at tf = 2 fails with S = 1, the first midpoint.  Only
        # targets above S are settled without a pass: at S pair 1 reaches
        # exactly 1.  Stopping short of S instead, finer than the
        # bisection resolves, would leave pair 0 at 1 - 2**-40.
        inst = make_instance([1.0, 1.0], [1 - 2 ** -40, 2 + 2 ** -40, 1.0])
        assert first_fit(inst).assignment == (0, 0, 1)

    @pytest.mark.parametrize("order", [[0.9, 1.7], [True, False], ["1", "0"]])
    def test_non_int_pair_order_rejected(self, order):
        # int() would have run these as the order [0, 1] or [1, 0].
        inst = make_instance([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(AllocationError, match="permutation"):
            first_fit(inst, order)

    def test_numpy_int_pair_order_accepted(self):
        inst = make_instance([1.0, 0.5], [1.0, 2.0, 3.0])
        assert first_fit(inst, np.array([1, 0])) == first_fit(inst, [1, 0])

    @pytest.mark.parametrize("case", range(30))
    def test_never_beats_exact(self, case):
        rng = random.Random(7700 + case)
        inst = random_instance(rng, max_m=8)
        order = list(range(inst.pair_count))
        rng.shuffle(order)
        ff = first_fit(inst, order)
        res = exact_maxmin(inst)
        assert res.optimal
        assert ff.min_rate <= res.allocation.min_rate

    @pytest.mark.parametrize("case", range(15))
    def test_pass_feasibility_monotone_in_target(self, case):
        # The pass at target T serves prefixes; raising T only extends
        # them, so feasibility can flip from True to False just once.
        rng = random.Random(8800 + case)
        inst = random_instance(rng, min_m=2)
        order = list(range(inst.pair_count))
        rng.shuffle(order)
        tf = fractional_optimum(inst)
        flags = [channel_walk(inst, order, t * tf / 40)[1] for t in range(41)]
        assert flags == sorted(flags, reverse=True)

    @given(st.one_of(instances(max_k=6, max_m=12),
                     st.randoms(use_true_random=False).map(tie_prone_instance)),
           st.randoms(use_true_random=False), st.floats(0.0, 1.25),
           st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_each_pass_settles_later_probes(self, inst, rnd, frac, u):
        # first_fit skips the probes a pass has settled, so its bisection
        # is exact only if these two facts hold.  A feasible pass at T
        # that reached R at the least makes the same blocks at every
        # target in [T, R]; an infeasible one whose pairs held S at the
        # most while short fails at every target above S.
        order = list(range(inst.pair_count))
        rnd.shuffle(order)
        target = frac * fractional_optimum(inst)
        assign, feasible, reached, short = channel_walk(inst, order, target)
        if feasible:
            later = (target, min(reached, target + u * (reached - target)),
                     reached)
            for t in later:
                assert channel_walk(inst, order, t)[:2] == (assign, True)
        else:
            later = (math.nextafter(short, math.inf),
                     short + u * (target - short), target, target * (1 + u))
            for t in later:
                if t > short:
                    assert not channel_walk(inst, order, t)[1]

    @pytest.mark.parametrize("chunk", range(4))
    def test_matches_channel_walk_on_tie_prone_instances(self, chunk):
        # Probes settled by an earlier pass must decide every bisection
        # step exactly as walking them did, so the allocations are equal.
        rng = random.Random(4400 + chunk)
        for _ in range(100):
            inst = tie_prone_instance(rng)
            order = list(range(inst.pair_count))
            rng.shuffle(order)
            assert first_fit(inst, order) == reference_first_fit(inst, order)
            assert first_fit(inst) == reference_first_fit(inst)

    @pytest.mark.parametrize("etas,rates,expected", [
        # Every block reaches T = 2.0 exactly: the fractional optimum.
        ([1.0, 0.5], [1.0, 1.0, 1.0, 1.0, 2.0, 0.0], (0, 0, 1, 1, 1, 1)),
        # The bisection probes T = 0.1 * 1.5 = 0.15000000000000002
        # exactly.  Pair 0 reaches it with channels 0..2 (mass 1.5), but
        # T / 0.1 rounds up to 1.5000000000000002, so a walk comparing
        # masses with T / eta instead of rates with T would hand it
        # channel 3 too.
        ([0.1, 0.1], [0.1, 0.7, 0.7, 0.2, 1.0, 0.1, 0.3, 0.1],
         (0, 0, 0, 1, 1, 1, 1, 1)),
        ([0.3, 0.9, 0.1], [3.0, 1.0, 3.0, 3.0, 3.0, 1.0, 1.0, 1.0],
         (0, 1, 2, 2, 2, 2, 2, 2)),
    ])
    def test_ties_at_the_target_settled_by_the_walk_test(self, etas, rates,
                                                         expected):
        inst = make_instance(etas, rates)
        allocation = first_fit(inst)
        assert allocation.assignment == expected
        assert allocation == reference_first_fit(inst)

    @pytest.mark.parametrize("etas,rates", [
        ([1.0, 1.0], [5e-324] * 3),
        ([1.0, 1.0], [1e-323] * 3),
        ([0.5, 1.0], [1e-320, 3e-321, 2e-322]),
    ])
    def test_subnormal_optimum_ends_the_bisection(self, etas, rates):
        # Below the float spacing at a subnormal fractional optimum the
        # midpoint rounds onto lo or hi; the bisection must stop there.
        inst = make_instance(etas, rates)
        with time_limit(10):
            allocation = first_fit(inst)
            res = exact_maxmin(inst)
        assert allocation == reference_first_fit(inst)
        assert res.optimal
        assert res.allocation.min_rate == enumerate_best_min(inst.etas, rates)

    @pytest.mark.parametrize("topology", ["simple6", "ilec17"])
    def test_matches_channel_walk_on_bundled_placements(self, topology):
        rng = random.Random(topology)
        for inst in bundled_instances(topology):
            for _ in range(20):
                order = list(range(inst.pair_count))
                rng.shuffle(order)
                assert first_fit(inst, order) == reference_first_fit(inst, order)


class TestRoundRobin:
    def test_descending_deal(self):
        inst = make_instance([1.0, 1.0], [3.0, 2.0, 1.0])
        allocation = round_robin(inst, [0, 1])
        assert allocation.assignment == (0, 1, 0)
        assert allocation.received == (4.0, 2.0)

    def test_single_pair(self):
        inst = make_instance([1.0], [1.0, 5.0])
        assert round_robin(inst).assignment == (0, 0)

    @pytest.mark.parametrize("order", [[0.9, 1.7], [True, False], ["1", "0"]])
    def test_non_int_pair_order_rejected(self, order):
        # int() would have run these as the order [0, 1] or [1, 0].
        inst = make_instance([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(AllocationError, match="permutation"):
            round_robin(inst, order)

    @given(instances())
    @settings(max_examples=60, deadline=None)
    def test_counts_balanced(self, inst):
        allocation = round_robin(inst)
        counts = [allocation.assignment.count(q) for q in range(inst.pair_count)]
        assert max(counts) - min(counts) <= 1
        assert_partition(inst, allocation)


class TestRowKernels:
    # A sweep row builds first-fit's, round-robin's and random's kernel once
    # per instance; each run's received rates must be the public
    # function's, bit for bit, also with fewer channels than pairs.
    @pytest.mark.parametrize("topology, channels", [
        ("simple6", 200), ("ilec17", 200), ("simple6", 10)])
    @pytest.mark.parametrize("strategy", ["first-fit", "round-robin", "random"])
    def test_kernel_equals_public_function(self, topology, channels, strategy):
        row = harness._STRATEGIES[strategy][1]
        for i, inst in enumerate(bundled_instances(topology, channels)):
            kernel = row(inst)
            for run in range(20):
                seed = derive_seed(27, i, run)
                want = allocate_once(inst, strategy, seed=seed)[0].received
                assert list(map(float.hex, kernel(seed))) == list(
                    map(float.hex, want)), (i, run)


class TestShuffled:
    @pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1])
    @pytest.mark.parametrize("size", [1, 15, 136, 200])
    def test_is_numpys_pcg64_permutation(self, seed, size):
        expected = np.random.Generator(np.random.PCG64(seed)).permutation(size)
        assert _shuffled(size, seed).tolist() == expected.tolist()

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0, got -1"),
        (2 ** 64, f"seed must be < 2**64, got {2 ** 64}"),
        (True, "must be an int, got True"),
        (2.0, "must be an int, got 2.0"),
        (np.int64(3), "must be an int, got "),
    ])
    def test_rejects_all_but_a_64_bit_word(self, seed, message):
        # _shuffled trusts its callers; random_balanced checks its seed
        # (None: test_missing_seed_rejected) and allocate_once the sweep's.
        inst = make_instance([1.0, 1.0], [1.0] * 4)
        with pytest.raises(AllocationError, match=re.escape(message)):
            random_balanced(inst, seed)

    def test_random_strategy_refuses_seed_above_64_bits(self):
        # numpy's PCG64 would take it; the sweep's seeds never reach it.
        inst = make_instance([1.0, 1.0], [1.0] * 4)
        with pytest.raises(AllocationError, match=re.escape("< 2**64")):
            random_balanced(inst, 2 ** 64)
        assert random_balanced(inst, 2 ** 64 - 1).assignment == \
            random_balanced(inst, 2 ** 64 - 1).assignment


class TestRandomBalanced:
    def test_counts_exact_split(self):
        inst = make_instance([1.0, 1.0], [1.0, 1.0, 1.0, 1.0])
        allocation = random_balanced(inst, 3)
        counts = [allocation.assignment.count(q) for q in range(2)]
        assert counts == [2, 2]

    def test_same_seed_same_allocation(self):
        inst = make_instance([0.5, 0.25, 1.0], [1.0, 2.0, 3.0, 4.0, 5.0])
        assert random_balanced(inst, 42).assignment == \
            random_balanced(inst, 42).assignment

    def test_missing_seed_rejected(self):
        # numpy would seed a None from OS entropy.
        inst = make_instance([1.0, 1.0], [1.0] * 40)
        with pytest.raises(AllocationError, match="seed"):
            random_balanced(inst, None)

    @pytest.mark.parametrize("seed", [-1, -2 ** 64])
    def test_negative_seed_rejected(self, seed):
        inst = make_instance([1.0, 1.0], [1.0] * 4)
        with pytest.raises(AllocationError, match=f"seed must be >= 0, got {seed}"):
            random_balanced(inst, seed)

    @pytest.mark.parametrize("seed", [2.5, True, "3"])
    def test_non_int_seed_rejected(self, seed):
        inst = make_instance([1.0, 1.0], [1.0] * 4)
        with pytest.raises(AllocationError,
                           match=re.escape(f"must be an int, got {seed!r}")):
            random_balanced(inst, seed)

    def test_uniform_first_channel(self):
        # m=2, k=2: a uniform shuffle puts channel 0 on pair 0 half the
        # time; 10000 seeds must land within two points of that.
        inst = make_instance([1.0, 1.0], [1.0, 2.0])
        hits = sum(random_balanced(inst, seed).assignment[0] == 0
                   for seed in range(10_000))
        assert 0.48 <= hits / 10_000 <= 0.52

    def test_matches_the_per_channel_deal(self):
        rng = random.Random(6600)
        for seed in range(200):
            inst = tie_prone_instance(rng)
            k, m = inst.pair_count, inst.channel_count
            perm = np.random.Generator(np.random.PCG64(seed)).permutation(m)
            expected = [-1] * m
            for pos in range(m):
                expected[int(perm[pos])] = pos % k
            assert random_balanced(inst, seed).assignment == tuple(expected)

    @given(instances())
    @settings(max_examples=60, deadline=None)
    def test_counts_differ_by_at_most_one(self, inst):
        allocation = random_balanced(inst, 11)
        counts = [allocation.assignment.count(q) for q in range(inst.pair_count)]
        assert max(counts) - min(counts) <= 1


class TestModifiedLpt:
    def test_greedy_example(self):
        inst = make_instance([1.0, 1.0], [3.0, 2.0, 1.0])
        allocation = modified_lpt(inst)
        assert allocation.received == (3.0, 3.0)

    def test_symmetric_counts(self):
        inst = make_instance([1.0, 1.0, 1.0], [1.0] * 7)
        assignment = modified_lpt(inst).assignment
        counts = [assignment.count(q) for q in range(3)]
        assert max(counts) - min(counts) <= 1

    @pytest.mark.parametrize("case", range(20))
    def test_partition_only_no_ordering_guarantee(self, case):
        rng = random.Random(9900 + case)
        inst = random_instance(rng)
        assert_partition(inst, modified_lpt(inst))

    def test_heap_matches_min_scan(self):
        rng = random.Random(5500)
        for _ in range(300):
            inst = tie_prone_instance(rng)
            assert modified_lpt(inst) == reference_modified_lpt(inst)

    @pytest.mark.parametrize("topology", ["simple6", "ilec17"])
    def test_heap_matches_min_scan_on_bundled_placements(self, topology):
        for inst in bundled_instances(topology):
            assert modified_lpt(inst) == reference_modified_lpt(inst)


class TestBezakovaMatching:
    def test_worked_example(self):
        inst = make_instance([1.0, 1.0], [2.0, 1.0, 1.0])
        allocation = bezakova_matching(inst)
        assert sorted(allocation.received) == [2.0, 2.0]

    def test_single_pair(self):
        inst = make_instance([0.5], [2.0, 1.0])
        allocation = bezakova_matching(inst)
        assert allocation.assignment == (0, 0)
        assert allocation.min_rate == reference_received(inst, [0, 0])[0]

    def test_fewer_channels_than_pairs_allocates(self):
        # With m < k the 1/(m-k+1) guarantee says nothing: some pair gets
        # no channel, and the result must still be a valid partition.
        rng = random.Random(13)
        for _ in range(300):
            k = rng.randint(2, 6)
            m = rng.randint(1, k - 1)
            inst = make_instance([rng.uniform(0.001, 1.0) for _ in range(k)],
                                 [rng.uniform(0.0, 3.0) for _ in range(m)])
            allocation = bezakova_matching(inst)
            assert_partition(inst, allocation)
            assert allocation.min_rate == 0.0
            res = exact_maxmin(inst, node_budget=1)
            assert res.optimal and res.nodes_explored == 0

    @pytest.mark.parametrize("case", range(40))
    def test_guarantee_against_exact(self, case):
        rng = random.Random(11_000 + case)
        inst = random_instance(rng, max_m=9)
        if inst.channel_count < inst.pair_count:
            inst = make_instance(
                list(inst.etas) * 1,
                list(inst.rates) + [1.0] * (inst.pair_count - inst.channel_count),
            )
        res = exact_maxmin(inst)
        assert res.optimal
        bound = res.allocation.min_rate / (
            inst.channel_count - inst.pair_count + 1)
        allocation = bezakova_matching(inst)
        assert allocation.min_rate >= bound * (1 - 1e-12)
        assert_partition(inst, allocation)

    @staticmethod
    def assert_matches_hall_bisection(inst):
        frugal = reference_matching_rounds(inst, frugal=True)
        generous = reference_matching_rounds(inst, frugal=False)
        assert _matching_rounds(inst, frugal=True) == frugal
        assert _matching_rounds(inst, frugal=False) == generous
        assert bezakova_matching(inst) == (
            frugal if frugal.min_rate >= generous.min_rate else generous)

    @pytest.mark.parametrize("chunk", range(4))
    def test_matches_hall_bisection_on_tie_prone_instances(self, chunk):
        # Targets read off sorted eligible counts must be exactly the ones
        # a bisection with a full Hall check per probe settles on.
        rng = random.Random(6600 + chunk)
        for _ in range(150):
            self.assert_matches_hall_bisection(tie_prone_instance(rng))

    @pytest.mark.parametrize("topology", ["simple6", "ilec17"])
    def test_matches_hall_bisection_on_bundled_placements(self, topology):
        for inst in bundled_instances(topology):
            self.assert_matches_hall_bisection(inst)


class TestLpRound:
    def test_no_sharing_example(self):
        inst = make_instance([1.0, 1.0], [1.0, 1.0])
        allocation = lp_round(inst)
        assert allocation.received == (1.0, 1.0)
        assert allocation.min_rate == 1.0

    def test_single_pair(self):
        inst = make_instance([0.5], [1.0, 2.0])
        assert lp_round(inst).assignment == (0, 0)

    @pytest.mark.parametrize("etas, rates, want", [
        # Channel 2 ends exactly on pair 0's span boundary, mass 3.
        ([0.25, 1.0, 1.0], [1.5, 1.0, 0.5, 1.5], (0, 0, 0, 1)),
        # Channel 1 starts exactly on pair 1's span boundary, mass 1.5.
        ([1.0, 0.5, 0.5], [1.5, 0.5, 0.25, 0.25], (0, 2, 2, 2)),
    ])
    def test_touching_a_boundary_is_not_straddling_it(self, etas, rates, want):
        # Dyadic rates make the boundaries exact: a channel that only
        # touches one lies wholly in one span and is not shared.
        assert lp_round(make_instance(etas, rates)).assignment == want

    @pytest.mark.parametrize("case", range(50))
    def test_guarantee_bound(self, case):
        rng = random.Random(12_000 + case)
        inst = random_instance(rng)
        tf = fractional_optimum(inst)
        worst = max(e * r for e in inst.etas for r in inst.rates)
        allocation = lp_round(inst)
        bound = max(0.0, tf - worst)
        assert allocation.min_rate >= bound * (1 - 1e-9) - 1e-15
        assert_partition(inst, allocation)


class TestCrossStrategyInvariants:
    @given(instances())
    @settings(max_examples=50, deadline=None)
    def test_partition_and_dominance(self, inst):
        res = exact_maxmin(inst)
        assert res.optimal
        tf = fractional_optimum(inst)
        exact_min = res.allocation.min_rate
        assert_partition(inst, res.allocation)
        assert exact_min <= tf * (1 + 1e-12)
        heuristics = [first_fit(inst), round_robin(inst),
                      random_balanced(inst, 5), modified_lpt(inst),
                      lp_round(inst), bezakova_matching(inst)]
        for allocation in heuristics:
            assert_partition(inst, allocation)
            assert 0.0 <= allocation.min_rate <= exact_min

    @pytest.mark.parametrize("name,func", ALL_FUNCS)
    def test_deterministic(self, name, func):
        rng = random.Random(60)
        inst = random_instance(rng, max_m=8, min_m=4)
        assert func(inst).assignment == func(inst).assignment


class TestStrategiesBuildPartitions:
    """Each strategy's Allocation is a total assignment with its own rates.

    The strategies' assignments are not validated at run time, and a
    channel left at -1 would silently land on the last pair, so these
    runs check every strategy's results instead.
    """

    @pytest.mark.parametrize("topology", ["simple6", "ilec17"])
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_bundled_placements(self, topology, strategy):
        for case, inst in enumerate(bundled_instances(topology)):
            allocation, _ = allocate_once(inst, strategy, seed=case, node_budget=500)
            assert_partition(inst, allocation)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_tie_prone_instances(self, strategy):
        rng = random.Random(4400)  # chunk 0 of the first-fit corpus
        for case in range(100):
            inst = tie_prone_instance(rng)
            allocation, _ = allocate_once(inst, strategy, seed=case, node_budget=500)
            assert_partition(inst, allocation)
