"""Random shortest path metrics: construction, heuristics, and verification.

Draw independent rate-1 exponential weights on the edges of a graph, take
shortest-path distances, and you get a random metric space.  This package
builds such metrics on arbitrary and Erdos-Renyi graphs, measures simple
heuristics (greedy matching, nearest neighbor, insertion, 2-opt, trivial
k-median) against exact baselines, and ships seeded Monte Carlo suites that
verify the structural properties these metrics are known to have.
"""

from .bounds import (
    BoundValue,
    ball_tail,
    cluster_scale,
    density_threshold,
    diameter_tail,
    evaluate,
    exp_sum_cdf,
    harmonic,
    pair_distance_bounds,
    sm_tail,
    tau_cdf_bounds,
    tau_expectation_bounds,
)
from .errors import (
    ConfigInvalidError,
    DisconnectedGraphError,
    EmptyCenterSetError,
    EmptySelectionError,
    InfiniteDistanceError,
    NotEnoughEdgesError,
    NTooSmallError,
    OddVertexCountError,
    ParameterOutOfRangeError,
    RspMetricError,
    SizeCapExceededError,
    TooFewVerticesError,
)
from .graphs import (
    CUT_PARAMETER_CAP,
    VERTEX_CAP,
    CutParameters,
    Graph,
    WeightedGraph,
    complete_graph,
    cut_parameters_exact,
    cycle_graph,
    draw_weights,
    generate_erdos_renyi,
    is_connected,
    path_graph,
    read_graph,
    star_graph,
    sum_lightest_edges,
    write_graph,
)
from .heuristics import (
    KMEDIAN_CAP,
    MATCHING_CAP,
    TSP_CAP,
    Matching,
    MedianSolution,
    Tour,
    TwoOptTrace,
    exact_kmedian,
    exact_matching,
    exact_tsp,
    first_k_centers,
    greedy_matching,
    has_improving_exchange,
    insertion_tour,
    nearest_neighbor_tour,
    tour_cost,
    trivial_kmedian,
    two_opt,
)
from .lab import (
    ExperimentConfig,
    Report,
    SummaryStats,
    TrialRecord,
    parse_config_file,
    run_suite,
    run_trials,
    summarize,
    summarize_values,
)
from .metric import (
    Metric,
    Partition,
    TauProfile,
    ball,
    build_metric,
    build_metrics,
    cluster_partition,
    diameter,
    read_metric,
    tau_profile,
    tau_profiles,
    write_metric,
)
from .rng import Seed, UniformStream

__version__ = "0.1.0"
