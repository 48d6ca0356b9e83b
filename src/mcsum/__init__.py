"""Markov chain analysis through the column-sum generalized inverse.

For an irreducible row-stochastic P with column-sum vector c, the matrix
H = (I - P + e c^T)^{-1} exists and carries the chain's key quantities:
c^T H is the stationary vector, (h_jj - h_ij + delta_ij)/pi_j the mean
first passage times, and 1 - 1/m + tr(H) Kemeny's constant.  The package
computes these, verifies the identity and inequality suite tying them to
the classical fundamental matrix, and scans random ensembles for
column-sum ordering counterexamples.
"""
from .analysis import (
    BoundsReport,
    ChainSolution,
    DoublyStochasticReport,
    bounds_check,
    doubly_stochastic_report,
    h_from_mfpt,
    identity_residuals,
    kemeny_from_h,
    kemeny_from_z,
    kemeny_general,
    mfpt_from_h,
    mfpt_general,
    solve_chain,
    stationary_from_h,
)
from .chain import (
    TransitionMatrix,
    column_sums,
    is_irreducible,
    reorder_by_column_sums,
    validate,
)
from .errors import (
    Degenerate,
    GenerationFailed,
    McsumError,
    NoConvergence,
    NotIrreducible,
    NotStochastic,
    SingularMatrix,
)
from .ginv import (
    ColsumInverse,
    FundamentalMatrix,
    compute_h,
    compute_z,
    group_inverse,
    h_from_z,
    theorem2_residuals,
    z_from_h,
)
from .oracle import (
    McEstimate,
    ThreeStateClosedForm,
    TwoStateClosedForm,
    mc_estimate,
    mfpt_direct,
    stationary_direct,
    stationary_power,
    three_state_closed_form,
    two_state_closed_form,
)
from .report import ChainReport, analyze, report_to_dict
from .scan import (
    OrderingRecord,
    ScanConfig,
    ScanResult,
    ordering_report,
    random_chain,
    scan,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "ChainReport",
    "ChainSolution",
    "ColsumInverse",
    "Degenerate",
    "DoublyStochasticReport",
    "FundamentalMatrix",
    "GenerationFailed",
    "McEstimate",
    "McsumError",
    "NoConvergence",
    "NotIrreducible",
    "NotStochastic",
    "OrderingRecord",
    "ScanConfig",
    "ScanResult",
    "SingularMatrix",
    "ThreeStateClosedForm",
    "TransitionMatrix",
    "TwoStateClosedForm",
    "analyze",
    "bounds_check",
    "column_sums",
    "compute_h",
    "compute_z",
    "doubly_stochastic_report",
    "group_inverse",
    "h_from_mfpt",
    "h_from_z",
    "identity_residuals",
    "is_irreducible",
    "kemeny_from_h",
    "kemeny_from_z",
    "kemeny_general",
    "mc_estimate",
    "mfpt_direct",
    "mfpt_from_h",
    "mfpt_general",
    "ordering_report",
    "random_chain",
    "report_to_dict",
    "reorder_by_column_sums",
    "scan",
    "solve_chain",
    "stationary_direct",
    "stationary_from_h",
    "stationary_power",
    "theorem2_residuals",
    "three_state_closed_form",
    "two_state_closed_form",
    "validate",
    "z_from_h",
]
