"""hybridkit: simulation and empirical set-stability analysis for hybrid
dynamical systems given as (flow set, flow map, jump set, jump map)."""

__version__ = "0.1.0"

from .core import (
    HybridArc,
    HybridSystem,
    HybridTimeDomain,
    Termination,
    Violation,
    check_is_solution,
    hybrid_time_leq,
    hybrid_time_lt,
    is_complete,
)
from .geometry import (
    ClosedSet,
    Window,
    affine_set,
    box_set,
    coords_set,
    empty_set,
    full_space,
    inflate,
    intersect,
    point_set,
    product,
    shell_set,
    union,
)
from .solver import Priority, SolverConfig, solve, solve_batch
from .composition import (
    CascadeSpec,
    OutputSystem,
    build_cascade,
    restrict,
    subsystem_h1,
    subsystem_h2,
    with_output,
)
from .analysis import (
    AnalysisReport,
    PropertyQuery,
    ReductionReport,
    check_attractivity,
    check_boundedness,
    check_invariance,
    check_local_stability_near,
    check_output_convergence,
    check_stability,
    clause_margin,
    detectability_report,
    recursive_reduction_report,
    reduction_report,
    replay_clause,
    summarize,
)
from .systems import (
    Fixture,
    ObserverParams,
    build_observer,
    catalog,
    estimator_diagnostics,
    gamma_sets,
    h_frak,
    rho,
)

__all__ = [name for name in dir() if not name.startswith("_")]
