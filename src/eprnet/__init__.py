"""Single-source entanglement distribution over fiber: routing,
fair spectrum allocation, and source-placement experiments."""

from .allocation import (
    Allocation,
    AllocationError,
    AllocationInstance,
    ExactResult,
    bezakova_matching,
    exact_maxmin,
    first_fit,
    fractional_optimum,
    lp_round,
    modified_lpt,
    random_balanced,
    round_robin,
)
from .harness import (
    ALL_STRATEGIES,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    SweepRow,
    allocate_once,
    config_from_json,
    derive_seed,
    emit_csv,
    emit_plot,
    read_csv_rows,
    run_placement_sweep,
    splitmix64,
)
from .metrics import (
    MetricsError,
    jain_index,
    normalization_reference,
    normalized_min_rate,
)
from .netgraph import (
    GraphEdge,
    Link,
    LossParams,
    Node,
    PhysicalTopology,
    RoutingGraph,
    TopologyError,
    build_routing_graph,
    bundled_topology,
    gen_vertex,
    link_distance,
    load_topology,
    mem_vertex,
    topology_from_dict,
    transmittance,
)
from .routing import (
    RoutePlan,
    RouteTable,
    RoutingError,
    all_pair_routes,
    route_nodes,
)
from .spectrum import (
    SPEED_OF_LIGHT_NM_THZ,
    ChannelGrid,
    RateVector,
    SpectrumProfile,
    channel_bandwidth,
    channel_center_frequency,
    channel_center_wavelength,
    generation_rates,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation", "AllocationError", "AllocationInstance", "ExactResult",
    "bezakova_matching", "exact_maxmin", "first_fit", "fractional_optimum",
    "lp_round", "modified_lpt", "random_balanced", "round_robin",
    "ALL_STRATEGIES", "ConfigError", "ExperimentConfig", "ExperimentReport",
    "SweepRow", "allocate_once", "config_from_json", "derive_seed", "emit_csv",
    "emit_plot", "read_csv_rows", "run_placement_sweep", "splitmix64",
    "MetricsError", "jain_index", "normalization_reference",
    "normalized_min_rate",
    "GraphEdge", "Link", "LossParams", "Node", "PhysicalTopology",
    "RoutingGraph", "TopologyError", "build_routing_graph", "bundled_topology",
    "gen_vertex", "link_distance", "load_topology", "mem_vertex",
    "topology_from_dict", "transmittance",
    "RoutePlan", "RouteTable", "RoutingError", "all_pair_routes",
    "route_nodes",
    "SPEED_OF_LIGHT_NM_THZ", "ChannelGrid", "RateVector", "SpectrumProfile",
    "channel_bandwidth", "channel_center_frequency",
    "channel_center_wavelength", "generation_rates",
]
