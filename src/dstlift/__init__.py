"""Directed Steiner trees: flow LPs, moment-matrix lifts, randomized rounding."""

from .instance import (
    DstInstance,
    InstanceError,
    LayeredInstance,
    LayeringError,
    as_layered,
    levelize,
    make_instance,
    map_back,
    metric_closure,
    parse_instance,
    format_instance,
    shortest_path,
    verify_solution,
)
from .exact import (
    CapExceededError,
    ExactResult,
    enumerate_paths,
    exact_opt,
)
from .flow_lp import (
    ConstraintSystem,
    LpSolution,
    Row,
    VariableMap,
    build_flow_lp,
    check_point,
    format_lp_dump,
    parse_lp_dump,
    solve_lp,
)
from .moments import (
    CertifyReport,
    Decomposition,
    DecompositionError,
    DomainError,
    MissingMomentError,
    MomentVector,
    certify,
    condition,
    decompose,
    export_moments,
    from_atoms,
    from_distribution,
    import_moments,
    inversion_check,
    mobius_atoms,
    moment_matrix,
    shift,
    shift_commutes_check,
)
from .lasserre import (
    BudgetError,
    SdpProblem,
    SdpSolution,
    SolverConfig,
    assemble,
    lift_dimensions,
    solve,
)
from .rounding import (
    MomentOracle,
    RoundResult,
    StatsReport,
    VectorOracle,
    collect_stats,
    edge_marginal_check,
    round_solution,
    sample_once,
    trial_rng,
)
from .harness import (
    PipelineConfig,
    PipelineError,
    canonical_json,
    gap_instance,
    gen_random_layered,
    gen_set_cover,
    run_experiment,
    run_pipeline,
    set_cover_instance,
)

__version__ = "0.1.0"
