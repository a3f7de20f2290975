"""Exact laboratory for distributional decision-tree complexity.

Everything is computed over rationals (or certified interval enclosures of
exponential sums), so every reported inequality is a proof at the given
instance, not a float observation.
"""

from .errors import (
    BoostFailure,
    DimensionMismatch,
    DtlabError,
    GuardExceeded,
    Infeasible,
    InvalidValue,
    KernelFault,
    UndecidedComparison,
    UnreachedLeaf,
)
from .records import Record
from .exactexp import (
    DEFAULT_PRECISION_BITS,
    ExpSum,
    decimal_interval,
    exp_bounds,
    fraction_from_str,
    fraction_to_str,
    value_json,
)
from .functions import (
    BooleanFunction,
    Distribution,
    Measure,
    VectorFunction,
    constant_function,
    constant_measure,
    density,
    dictator,
    direct_product,
    no_error_reduction_function,
    parity,
    product_power,
    uniform,
    xor_power,
)
from .trees import (
    DecisionTree,
    Leaf,
    LeafRef,
    LeafStats,
    Query,
    RandomizedTree,
    block_error_law,
    conditional_blocks_at_leaf,
    correlation,
    cube_points,
    error,
    evaluate,
    expected_depth,
    leaf_stats,
    leaves,
)
from .synth import (
    ADVANTAGE,
    ERROR,
    FrontierPoint,
    ParetoFrontier,
    enumerate_all_trees,
    frontier_to_json,
    mixture_optimum,
    opt_depth,
    pareto_frontier,
)
from .hardcore import (
    Committee,
    HardcoreCertificate,
    best_response,
    certificate_from_json,
    certificate_to_json,
    committee_from_json,
    committee_metrics,
    committee_size,
    committee_to_json,
    hardcore_solve,
    maj_boost,
    verify_certificate,
)
from .transforms import (
    embed_block_reduction,
    full_parity_product_tree,
    parity_mixture,
    product_tree,
    sign_fix_leaves,
)
from .bounds import (
    PHI_IDS,
    BoundReport,
    ber_sum,
    ber_sum_cdf,
    binomial,
    bound_report_to_json,
    chernoff_lower,
    chernoff_upper2x,
    constant_chain_reports,
    g_func,
    lipschitz_check,
    parity_counterexample,
    verify_accuracy_bound,
    verify_bounds_from_hardcore,
    verify_density_conservation,
    verify_embedding,
    verify_error_no_advantage,
    verify_leaf_product,
    verify_product_tree,
    verify_resilience,
    xor_vs_product_gap,
)
from .scenarios import (
    CheckResult,
    ScenarioResult,
    default_config,
    list_scenarios,
    report_to_bytes,
    run_config,
    run_scenario,
)

__version__ = "0.1.0"
