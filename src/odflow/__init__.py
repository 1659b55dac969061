"""Sparse origin-destination flow estimation from link counts."""

__version__ = "0.1.0"

from .network import (
    DecodedAllocation,
    Link,
    MeasurementSystem,
    Network,
    Path,
    PathTable,
    build_dynamic_system,
    build_static_incidence,
    canonical_order,
    decode_allocation,
    enumerate_paths,
    path_lengths,
    path_prefix_delay,
    validate_network,
    validate_path,
)
from .solver import (
    ConeProblem,
    FeasibleBasis,
    Solution,
    SolutionStack,
    StandardLP,
    lp_phase1,
    lp_phase2,
    solve_cone,
    solve_lp,
    solve_lp_padded,
)
from .estimators import (
    Allocation,
    EstimationResult,
    InfeasibleError,
    IterationLimitError,
    UnboundedError,
    VmtBounds,
    WeightMatrix,
    estimate_l1,
    estimate_l1_noisy,
    estimate_l2,
    estimate_l2_noisy,
    estimate_weighted_l1,
    reweighted_l1,
    vmt_bounds,
)
from .experiments import (
    NoisyCdfReport,
    RecoveryFlags,
    RecoveryReport,
    TrialConfig,
    VmtReport,
    add_noise,
    check_recovery,
    grade_recovery,
    grid_path_count,
    grid_paths_max_turns,
    grid_turn_fraction,
    hoeffding_turn_bound,
    run_noisy_cdf,
    run_recovery_sweep,
    run_vmt_sweep,
    sample_allocation,
    sample_measurements,
    sample_support,
    substream,
)
from .fixtures import FIXTURE_NAMES, FixtureBundle, get_fixture

__all__ = [
    "__version__",
    # network
    "DecodedAllocation", "Link", "MeasurementSystem", "Network", "Path",
    "PathTable", "build_dynamic_system", "build_static_incidence",
    "canonical_order", "decode_allocation", "enumerate_paths",
    "path_lengths", "path_prefix_delay", "validate_network", "validate_path",
    # solver
    "ConeProblem", "FeasibleBasis", "Solution", "SolutionStack", "StandardLP",
    "lp_phase1", "lp_phase2", "solve_cone", "solve_lp", "solve_lp_padded",
    # estimators
    "Allocation", "EstimationResult", "InfeasibleError",
    "IterationLimitError", "UnboundedError", "VmtBounds", "WeightMatrix",
    "estimate_l1", "estimate_l1_noisy", "estimate_l2", "estimate_l2_noisy",
    "estimate_weighted_l1", "reweighted_l1", "vmt_bounds",
    # experiments
    "NoisyCdfReport", "RecoveryFlags", "RecoveryReport", "TrialConfig",
    "VmtReport", "add_noise", "check_recovery", "grade_recovery",
    "grid_path_count", "grid_paths_max_turns", "grid_turn_fraction",
    "hoeffding_turn_bound",
    "run_noisy_cdf", "run_recovery_sweep", "run_vmt_sweep",
    "sample_allocation", "sample_measurements", "sample_support",
    "substream",
    # fixtures
    "FIXTURE_NAMES", "FixtureBundle", "get_fixture",
]
