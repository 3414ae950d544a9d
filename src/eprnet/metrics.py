"""Fairness and rate metrics for allocation outcomes.

Minimum received rates from different topologies or loss settings are not
directly comparable, so experiment reports normalize them against a fixed
per-topology reference: the received rate of the worst-off pair under the
worst source placement if that pair were granted the entire spectrum.
Normalized values above 1 are possible (and expected) for well-placed
sources.
"""

from __future__ import annotations

import logging
import math
from functools import reduce
from operator import add
from typing import Mapping, Sequence

from .netgraph import LossParams, PhysicalTopology, build_routing_graph
from .routing import RouteTable, all_pair_routes
from .spectrum import ChannelGrid, SpectrumProfile, generation_rates

logger = logging.getLogger(__name__)


class MetricsError(ValueError):
    """Raised when a metric cannot be computed."""


def jain_index(received: Sequence[float]) -> float:
    """Jain fairness index (sum x)^2 / (k * sum x^2), in [1/k, 1].

    1 means perfectly equal rates.  The all-zero vector is treated as
    perfectly fair and maps to 1 by convention.
    """
    values = list(received)
    if not values:
        raise MetricsError("jain_index needs at least one rate")
    for v in values:
        if not (0 <= v < math.inf):  # also rejects NaN
            raise MetricsError(f"rates must be finite and >= 0, got {v}")
    peak = max(values)
    if 0.0 < peak < 1e-150 or peak * len(values) > 1e150:
        # The squares would fall into the subnormal range and lose their
        # precision, or the squared total would overflow; the index is
        # scale-invariant, so rescale first.
        values = [v / peak for v in values]
    # Left-to-right sums: builtin sum() compensates its rounding from
    # Python 3.12 on, which would make the index depend on the interpreter.
    square_sum = reduce(add, (v * v for v in values), 0.0)
    if square_sum == 0.0:
        return 1.0
    total = reduce(add, values, 0.0)
    return (total * total) / (len(values) * square_sum)


def normalization_reference(
    topology: PhysicalTopology,
    loss: LossParams,
    grid: ChannelGrid,
    profile: SpectrumProfile,
    *,
    tables: Mapping[str, RouteTable] | None = None,
) -> float:
    """Whole-spectrum rate of the worst pair under the worst placement.

    For every routable source placement, every pair's transmittance is
    multiplied by the total generation rate; the minimum over pairs and
    placements is the reference.  Placements with unroutable pairs are
    skipped with a warning.

    ``tables`` passes in route tables that are already computed, keyed by
    source.  They must cover every node id of the topology and have been
    routed with the same ``loss``.  Without them every placement is routed
    here.
    """
    total_rate = generation_rates(grid, profile).total
    reference = None
    for source in topology.node_ids:
        if tables is None:
            table = all_pair_routes(build_routing_graph(topology, source, loss))
        elif source in tables:
            table = tables[source]
        else:
            raise MetricsError(f"tables has no route table for source {source!r}")
        if table.infeasible:
            logger.warning(
                "normalization: skipping source %s (%d unroutable pairs)",
                source, len(table.infeasible),
            )
            continue
        for plan in table.plans.values():
            value = plan.eta * total_rate
            if reference is None or value < reference:
                reference = value
    if reference is None:
        raise MetricsError(
            f"no routable source placement in topology {topology.name!r}"
        )
    return reference


def normalized_min_rate(min_rate: float, reference: float) -> float:
    """Scale a minimum received rate by the topology reference."""
    if not (0 < reference < math.inf):  # also rejects NaN
        raise MetricsError(f"reference must be finite and > 0, got {reference}")
    if not math.isfinite(min_rate):
        raise MetricsError(f"min_rate must be finite, got {min_rate}")
    return min_rate / reference
