"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single "CRITERION n: PASS/FAIL" line to the real
stdout so the verdicts survive pytest's capture, and tests with a
stated wall-clock budget enforce it.
"""

import itertools
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from functools import lru_cache

import pytest

from eprnet import (
    ALL_STRATEGIES,
    AllocationInstance,
    ChannelGrid,
    ExperimentConfig,
    LossParams,
    SpectrumProfile,
    all_pair_routes,
    bezakova_matching,
    build_routing_graph,
    channel_bandwidth,
    channel_center_frequency,
    exact_maxmin,
    first_fit,
    fractional_optimum,
    gen_vertex,
    generation_rates,
    jain_index,
    load_topology,
    lp_round,
    mem_vertex,
    modified_lpt,
    normalization_reference,
    random_balanced,
    round_robin,
    run_placement_sweep,
    topology_from_dict,
)
from conftest import ACCEPTANCE_LINES
from oracles import (
    best_disjoint_total,
    element_edges,
    enumerate_best_min,
    lp_fractional_search,
    reference_received,
)
from test_golden import GOLDEN, GOLDEN_COMMANDS

MASTER_SEED = 20260816


def _verdict(num: int, label: str, ok: bool, elapsed: float) -> None:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {label} ({elapsed:.1f}s)"
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(num: int, label: str, budget_s: float = math.inf):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        _verdict(num, label, False, time.monotonic() - start)
        raise
    elapsed = time.monotonic() - start
    _verdict(num, label, elapsed <= budget_s, elapsed)
    assert elapsed <= budget_s, (
        f"wall-clock budget exceeded: {elapsed:.1f}s > {budget_s:.0f}s"
    )


# --- shared random corpora ------------------------------------------------


def _random_topology(rng: random.Random, max_nodes: int = 6):
    """Connected topology with 2..max_nodes nodes and random extra links."""
    n = rng.randrange(2, max_nodes + 1)
    names = [chr(ord("a") + i) for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    links = {}
    for i in range(1, n):
        pair = tuple(sorted((order[i], order[rng.randrange(0, i)])))
        links[pair] = rng.uniform(0.101, 10.0)
    extra = [p for p in itertools.combinations(names, 2) if p not in links]
    rng.shuffle(extra)
    for pair in extra[: rng.randrange(0, len(extra) + 1)]:
        links[pair] = rng.uniform(0.101, 10.0)
    doc = {
        "name": "sampled",
        "nodes": [{"id": name} for name in names],
        "links": [{"a": a, "b": b, "distance_km": d}
                  for (a, b), d in sorted(links.items())],
    }
    return topology_from_dict(doc), order[0]


def _gaussian_instance(rng: random.Random, k: int, m: int) -> AllocationInstance:
    etas = tuple(rng.uniform(0.001, 1.0) for _ in range(k))
    grid = ChannelGrid(m, 0.1, rng.uniform(0.2, 3.0), 1550.0)
    profile = SpectrumProfile(rng.uniform(2.0, 12.0), rng.uniform(0.5, 2.0))
    return AllocationInstance(etas, generation_rates(grid, profile))


@lru_cache(maxsize=1)
def _instance_corpus() -> tuple[AllocationInstance, ...]:
    """205 instances with k <= 4, m <= 10 channels of Gaussian rates.

    m >= k throughout so every strategy, matching-based ones included,
    is defined on every instance.  The tail pins five k=4, m=10 corners,
    the largest (and slowest to enumerate) shape in the family.
    """
    rng = random.Random(MASTER_SEED)
    corpus = []
    for _ in range(200):
        k = rng.randint(1, 4)
        corpus.append(_gaussian_instance(rng, k, rng.randint(k, 10)))
    for _ in range(5):
        corpus.append(_gaussian_instance(rng, 4, 10))
    return tuple(corpus)


@lru_cache(maxsize=1)
def _corpus_optima() -> tuple[float, ...]:
    """Exact max-min value of every corpus instance, solved once."""
    results = []
    for inst in _instance_corpus():
        res = exact_maxmin(inst)
        assert res.optimal
        results.append(res.allocation.min_rate)
    return tuple(results)


def _assert_partition(instance, allocation):
    assert allocation.received == reference_received(instance, allocation.assignment)


# --- criteria -------------------------------------------------------------


def test_default_grid_edge_anchors():
    with criterion(1, "channel grid anchors", budget_s=1.0):
        grid = ChannelGrid()
        assert channel_center_frequency(grid, 1) == pytest.approx(195.9, abs=0.1)
        assert channel_center_frequency(grid, 200) == pytest.approx(191.1, abs=0.2)
        assert channel_bandwidth(grid, 1) == pytest.approx(12.8, abs=0.1)
        assert channel_bandwidth(grid, 200) == pytest.approx(12.2, abs=0.1)


def test_disjoint_routing_matches_exhaustive_search():
    with criterion(2, "routing equals exhaustive enumeration", budget_s=60.0):
        rng = random.Random(MASTER_SEED)
        checked = 0
        for _ in range(200):
            topology, source = _random_topology(rng)
            loss = LossParams(0.4, rng.choice([4.0, 8.0]))
            graph = build_routing_graph(topology, source, loss)
            table = all_pair_routes(graph)
            edges = element_edges(graph)
            for a, b in itertools.combinations(sorted(topology.node_ids), 2):
                ext = edges + [(mem_vertex(a), "end", 0.0),
                               (mem_vertex(b), "end", 0.0)]
                want = best_disjoint_total(ext, gen_vertex(), "end")
                plan = table.plans.get((a, b))
                if plan is None:
                    assert (a, b) in table.infeasible
                    assert want is None
                else:
                    assert plan.total_loss_db == want
                    assert not set(plan.path_a) & set(plan.path_b)
                    checked += 1
        assert checked >= 200


def test_exact_solver_matches_full_enumeration():
    with criterion(3, "exact solver equals k^m enumeration", budget_s=120.0):
        for inst, optimum in zip(_instance_corpus(), _corpus_optima()):
            want = enumerate_best_min(inst.etas, list(inst.rates))
            assert optimum == want


def test_approximation_guarantees_hold():
    with criterion(4, "approximation guarantees"):
        for inst, optimum in zip(_instance_corpus(), _corpus_optima()):
            k, m = inst.pair_count, inst.channel_count
            floor = optimum / (m - k + 1)
            assert bezakova_matching(inst).min_rate >= floor * (1 - 1e-12)

            tf = fractional_optimum(inst)
            biggest = max(eta * rate for eta in inst.etas for rate in inst.rates)
            bound = max(0.0, tf - biggest)
            assert lp_round(inst).min_rate >= bound * (1 - 1e-9) - 1e-15

            searched = lp_fractional_search(inst.etas, list(inst.rates))
            assert tf == pytest.approx(searched, rel=1e-9, abs=1e-12)


def test_dominance_bounds_and_partition():
    heuristics = [
        first_fit,
        round_robin,
        lambda inst: random_balanced(inst, 7),
        modified_lpt,
        bezakova_matching,
        lp_round,
    ]
    with criterion(5, "dominance, upper bound, partition"):
        for inst, optimum in zip(_instance_corpus(), _corpus_optima()):
            ceiling = fractional_optimum(inst) * (1 + 1e-12)
            assert 0.0 <= optimum <= ceiling
            for func in heuristics:
                allocation = func(inst)
                _assert_partition(inst, allocation)
                assert 0.0 <= allocation.min_rate <= optimum
                assert allocation.min_rate <= ceiling


def test_strategy_ordering_on_small_mesh():
    with criterion(6, "strategy ordering on the 6-node mesh", budget_s=300.0):
        config = ExperimentConfig(
            topology_path="simple6",
            seed=MASTER_SEED,
            wss_losses=(8.0,),
            strategies=ALL_STRATEGIES,
            runs=1000,
            sources=("A",),
            # 44 channels at this pitch keep the default grid's +-19.9 nm
            # span while shrinking the search so the exact solver closes.
            channels=44,
            channel_pitch_nm=39.8 / 43,
            exact_max_mk=2000,
            exact_node_budget=25_000_000,
        )
        report = run_placement_sweep(config)
        rates = {}
        for row in report.rows:
            assert row.status == "ok", f"{row.strategy}: {row.status}"
            rates[row.strategy] = row.mean_min_rate
        assert set(rates) == set(ALL_STRATEGIES)

        assert rates["exact"] >= rates["bd-matching"]
        assert rates["bd-matching"] >= 0.95 * rates["exact"]
        for strong in ("lpt", "first-fit"):
            assert rates[strong] >= rates["round-robin"]
            assert rates[strong] >= rates["random"]
        assert rates["lp-round"] <= min(rates.values())


def test_source_degree_drives_min_rate():
    with criterion(7, "source degree ordering on the 17-node network",
                   budget_s=600.0):
        topology = load_topology("ilec17")
        def degree(i):
            return len(topology.neighbors(i))

        hub = max(topology.node_ids, key=degree)
        leaf = min(topology.node_ids, key=degree)
        config = ExperimentConfig(
            topology_path="ilec17",
            seed=MASTER_SEED,
            wss_losses=(4.0, 8.0),
            strategies=tuple(s for s in ALL_STRATEGIES if s != "exact"),
            runs=100,
        )
        report = run_placement_sweep(config)
        for loss in config.wss_losses:
            scores = {}
            for source in topology.node_ids:
                cells = [row.mean_min_rate for row in report.rows
                         if row.wss_loss_db == loss and row.source_node == source]
                assert len(cells) == len(config.strategies)
                scores[source] = math.fsum(cells) / len(cells)
            others = [v for s, v in scores.items() if s != hub]
            assert all(scores[hub] > v for v in others)
            others = [v for s, v in scores.items() if s != leaf]
            assert all(scores[leaf] < v for v in others)


def test_fairness_metric_properties():
    with criterion(8, "fairness metrics and normalization reference"):
        assert jain_index([2.0, 1.0]) == pytest.approx(0.9, rel=1e-12)
        rng = random.Random(MASTER_SEED)
        for _ in range(100):
            k = rng.randint(1, 12)
            xs = [rng.uniform(0.0, 1e3) for _ in range(k)]
            if math.fsum(xs) == 0.0:
                continue
            value = jain_index(xs)
            assert 1.0 / k - 1e-12 <= value <= 1.0 + 1e-12
            scale = rng.uniform(1e-6, 1e6)
            scaled = jain_index([scale * x for x in xs])
            assert scaled == pytest.approx(value, rel=1e-12)

        topology = load_topology("simple6")
        loss = LossParams(0.4, 8.0)
        grid = ChannelGrid(16)
        profile = SpectrumProfile()
        reference = normalization_reference(topology, loss, grid, profile)

        total_rate = math.fsum(generation_rates(grid, profile))
        brute = None
        for source in topology.node_ids:
            graph = build_routing_graph(topology, source, loss)
            edges = element_edges(graph)
            for a, b in itertools.combinations(sorted(topology.node_ids), 2):
                ext = edges + [(mem_vertex(a), "end", 0.0),
                               (mem_vertex(b), "end", 0.0)]
                total = best_disjoint_total(ext, gen_vertex(), "end")
                assert total is not None
                value = 10.0 ** (-total / 10.0) * total_rate
                if brute is None or value < brute:
                    brute = value
        assert reference == pytest.approx(brute, rel=1e-12)


def test_sweep_determinism_across_processes(tmp_path):
    # The in-process run of this sweep is the golden test of its CSV; here
    # two concurrent processes must each write those bytes again.
    with criterion(9, "byte-identical sweeps, parallel included"):
        [argv] = GOLDEN_COMMANDS["ring4-criterion9.csv"]
        outputs = [tmp_path / "par1.csv", tmp_path / "par2.csv"]
        workers = [
            subprocess.Popen([sys.executable, "-m", "eprnet.cli", *argv,
                              "--out", str(out)], stdout=subprocess.DEVNULL)
            for out in outputs
        ]
        for proc in workers:
            assert proc.wait(timeout=300) == 0

        golden = (GOLDEN / "ring4-criterion9.csv").read_bytes()
        assert golden.startswith(b"# eprnet sweep:")
        for out in outputs:
            assert out.read_bytes() == golden
