"""Exact Nash equilibria of integer congestion games via Graver augmentation."""

from .costs import (
    AffineCost,
    PiecewiseLinearCost,
    PowerCost,
    QuadraticCost,
    ScaledCost,
    SeparableObjective,
    ShiftedCost,
)
from .errors import (
    CertificateError,
    DimensionError,
    GraverNashError,
    InfeasibleError,
    ResourceCapExceeded,
    ValidationError,
)
from .game import (
    GameInstance,
    PlayerSpec,
    StrategyProfile,
    aggregate_usage,
    best_response,
    find_equilibrium,
    is_feasible_profile,
    is_generalized_nash,
    is_satisfied,
    player_cost,
    provider_cost,
)
from .graver import GraverBasis, conformal_reduce, graver_basis
from .inverse import (
    IiopAnswer,
    IiopInstance,
    feasible_shifts,
    solve_iiop,
    verify_answer,
    weighted_objective,
)
from .linalg import IntMatrix, conformal_leq, kernel_lattice_basis
from .lp import FarkasRay, FeasiblePoint, rational_lp_feasibility
from .nfold import (
    NfoldSpec,
    TypeCatalog,
    build_c_matrix,
    build_multitype_matrix,
    build_nash_matrix,
    build_nfold,
    pad_to_c,
)
from .oracle import Box, brute_graver, brute_ip_opt, brute_nash_check, enumerate_box_points
from .solver import (
    IpInstance,
    SolveResult,
    best_step,
    check_optimal,
    find_feasible,
    greedy_augment,
    solve_ip,
)

__version__ = "0.1.0"
