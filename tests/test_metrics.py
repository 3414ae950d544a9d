import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprnet import (
    ChannelGrid,
    LossParams,
    MetricsError,
    SpectrumProfile,
    all_pair_routes,
    build_routing_graph,
    generation_rates,
    jain_index,
    load_topology,
    normalization_reference,
    normalized_min_rate,
)


def brute_force_jain(xs):
    # Exact rational arithmetic, rounded once: float squares of rates below
    # about 1e-154 are subnormal and would make the reference itself wrong.
    total = sum(map(Fraction, xs))
    square = sum(Fraction(x) ** 2 for x in xs)
    if square == 0:
        return 1.0
    return float(total * total / (len(xs) * square))


# Rates from 1e-300 to about 1e300, spread evenly over the exponents;
# squares of those above about 1e154 overflow a float.
any_magnitude = st.builds(lambda mantissa, exp: mantissa * 10.0 ** exp,
                          st.floats(1.0, 9.99), st.integers(-300, 299))


class TestJainIndex:
    def test_equal_shares(self):
        assert jain_index([1.0, 1.0, 1.0]) == 1.0

    def test_maximal_unfairness(self):
        assert jain_index([1.0, 0.0]) == 0.5

    def test_two_to_one(self):
        assert jain_index([2.0, 1.0]) == pytest.approx(0.9, rel=1e-15)

    def test_all_zero_convention(self):
        assert jain_index([0.0, 0.0, 0.0]) == 1.0

    @pytest.mark.parametrize("xs, want", [
        ([4.973994384157286e-159] * 2, 1.0),
        ([1e-200, 0.0], 0.5),
        ([2e-170, 1e-170], 0.9),
    ])
    def test_tiny_rates_keep_precision(self, xs, want):
        # Squares of these rates are subnormal or underflow to zero.
        assert jain_index(xs) == pytest.approx(want, rel=1e-12)

    def test_single_consumer(self):
        assert jain_index([5.0]) == 1.0

    def test_sums_left_to_right(self):
        # Each 1e-16 is lost against 1.0 in a plain sum; a compensated one
        # (builtin sum() from Python 3.12) would keep them.
        assert jain_index([1.0] + [1e-16] * 10) == 1.0 / 11

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            jain_index([])

    def test_negative_rejected(self):
        with pytest.raises(MetricsError):
            jain_index([1.0, -0.1])

    @pytest.mark.parametrize("xs", [[math.inf, 1.0], [math.inf], [1.0, math.nan]])
    def test_non_finite_rejected(self, xs):
        # An infinite rate would make the index inf/inf, a silent nan.
        with pytest.raises(MetricsError, match="finite"):
            jain_index(xs)

    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_bounds_and_reference_formula(self, xs):
        value = jain_index(xs)
        assert 1.0 / len(xs) - 1e-12 <= value <= 1.0 + 1e-12
        assert value == pytest.approx(brute_force_jain(xs), rel=1e-12, abs=1e-12)

    @given(st.lists(st.one_of(st.just(0.0), any_magnitude), min_size=1,
                    max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_finite_and_bounded_at_any_magnitude(self, xs):
        value = jain_index(xs)
        assert math.isfinite(value)
        assert 1.0 / len(xs) - 1e-12 <= value <= 1.0 + 1e-12
        assert value == pytest.approx(brute_force_jain(xs), rel=1e-12, abs=1e-12)

    @given(
        st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=12),
        st.floats(1e-6, 1e6),
    )
    @settings(max_examples=150, deadline=None)
    def test_scale_invariance(self, xs, c):
        assert jain_index([c * x for x in xs]) == pytest.approx(
            jain_index(xs), rel=1e-12)


class TestNormalizationReference:
    def test_single_pair_topology(self, two_node, default_loss):
        grid = ChannelGrid(8, 0.1, 0.2, 1550.0)
        profile = SpectrumProfile(9.0, 1.0)
        rates = generation_rates(grid, profile)
        total = math.fsum(rates)
        reference = normalization_reference(two_node, default_loss, grid, profile)
        etas = []
        for source in ("s", "a"):
            graph = build_routing_graph(two_node, source, default_loss)
            table = all_pair_routes(graph)
            etas.append(table.plans[("a", "s")].eta)
        assert reference == pytest.approx(min(etas) * total, rel=1e-12)

    def test_simple6_brute_force(self, default_loss):
        topology = load_topology("simple6")
        grid = ChannelGrid(16, 0.1, 0.2, 1550.0)
        profile = SpectrumProfile(9.0, 1.0)
        rates = generation_rates(grid, profile)
        total = math.fsum(rates)
        candidates = []
        for source in topology.node_ids:
            graph = build_routing_graph(topology, source, default_loss)
            table = all_pair_routes(graph)
            assert not table.infeasible
            candidates.extend(plan.eta * total for plan in table.plans.values())
        reference = normalization_reference(topology, default_loss, grid, profile)
        assert reference == pytest.approx(min(candidates), rel=1e-12)
        assert all(reference <= c * (1 + 1e-12) for c in candidates)

    def test_precomputed_tables_match_own_routing(self, chain3, default_loss):
        grid = ChannelGrid(8, 0.1, 0.2, 1550.0)
        profile = SpectrumProfile(9.0, 1.0)
        tables = {
            source: all_pair_routes(build_routing_graph(chain3, source,
                                                        default_loss))
            for source in chain3.node_ids
        }
        assert normalization_reference(
            chain3, default_loss, grid, profile, tables=tables,
        ) == normalization_reference(chain3, default_loss, grid, profile)

    def test_tables_must_cover_every_node(self, star3, default_loss):
        grid = ChannelGrid(8, 0.1, 0.2, 1550.0)
        tables = {"s": all_pair_routes(build_routing_graph(star3, "s",
                                                           default_loss))}
        with pytest.raises(MetricsError, match="'a'"):
            normalization_reference(star3, default_loss, grid,
                                    SpectrumProfile(9.0, 1.0), tables=tables)

    def test_infeasible_placements_skipped_with_warning(self, chain3,
                                                        default_loss, caplog):
        grid = ChannelGrid(4, 0.1, 0.2, 1550.0)
        profile = SpectrumProfile(9.0, 1.0)
        with caplog.at_level("WARNING", logger="eprnet.metrics"):
            reference = normalization_reference(chain3, default_loss, grid,
                                                profile)
        assert reference > 0
        # Endpoint placements cannot serve the far pair edge-disjointly,
        # so they are dropped from the minimum and flagged.
        skipped = [r for r in caplog.records if "unroutable" in r.message]
        assert {r.message.split()[3] for r in skipped} == {"s", "b"}

    def test_peak_rate_linearity(self, star3, default_loss):
        grid = ChannelGrid(12, 0.1, 0.2, 1550.0)
        base = normalization_reference(star3, default_loss, grid,
                                       SpectrumProfile(9.0, 1.0))
        scaled = normalization_reference(star3, default_loss, grid,
                                         SpectrumProfile(9.0, 2.5))
        assert scaled == pytest.approx(2.5 * base, rel=1e-12)

    def test_all_placements_infeasible_rejected(self, default_loss):
        # A path on 4 nodes: no placement can serve its endpoint pair.
        from eprnet import Link, Node, PhysicalTopology
        topology = PhysicalTopology(
            name="path4",
            nodes=tuple(Node(c, float(i), 0.0) for i, c in enumerate("abcd")),
            links=(Link("a", "b", 1.0), Link("b", "c", 1.0),
                   Link("c", "d", 1.0)),
        )
        grid = ChannelGrid(4, 0.1, 0.2, 1550.0)
        with pytest.raises(MetricsError):
            normalization_reference(topology, default_loss, grid,
                                    SpectrumProfile(9.0, 1.0))


class TestNormalizedMinRate:
    def test_unit(self):
        assert normalized_min_rate(3.5, 3.5) == 1.0

    def test_zero(self):
        assert normalized_min_rate(0.0, 2.0) == 0.0

    def test_above_one_allowed(self):
        assert normalized_min_rate(4.0, 2.0) == 2.0

    @pytest.mark.parametrize("reference", [0.0, -1.0])
    def test_nonpositive_reference_rejected(self, reference):
        with pytest.raises(MetricsError):
            normalized_min_rate(1.0, reference)

    @pytest.mark.parametrize("min_rate, reference", [
        (1.0, math.nan), (1.0, math.inf), (math.nan, 1.0), (math.inf, 1.0),
        (-math.inf, 1.0),
    ])
    def test_non_finite_rejected(self, min_rate, reference):
        with pytest.raises(MetricsError, match="finite"):
            normalized_min_rate(min_rate, reference)

    def test_can_exceed_one_on_simple6(self, default_loss):
        # The reference minimizes over placements; a well-placed source
        # serving only its best pair beats it.
        topology = load_topology("simple6")
        grid = ChannelGrid(16, 0.1, 0.2, 1550.0)
        profile = SpectrumProfile(9.0, 1.0)
        rates = generation_rates(grid, profile)
        total = math.fsum(rates)
        reference = normalization_reference(topology, default_loss, grid,
                                            profile)
        best = 0.0
        for source in topology.node_ids:
            graph = build_routing_graph(topology, source, default_loss)
            table = all_pair_routes(graph)
            best = max(best, max(p.eta for p in table.plans.values()) * total)
        assert normalized_min_rate(best, reference) > 1.0
