"""Principal eigenvalue of the 1-D Laplacian with a two-level indefinite
weight under inhomogeneous Robin boundary conditions: three-piece
shooting solver, closed-form characteristic cross-checks, minimiser
classification, and a batch-verification harness."""

from .characteristic import (
    HypothesisReport,
    PoleError,
    beta0_star,
    c_star,
    char_f,
    char_g,
    hypothesis_bounds,
    limit_char_residual,
    limit_root,
)
from .classifier import (
    CaseLabel,
    Prediction,
    a_star,
    classify_pair,
    compare_prediction,
    numeric_argmin,
)
from .eigensolver import (
    Bracket,
    EigenResult,
    SolverError,
    SpectralWindow,
    bisect,
    bracket_scan,
    lambda_curve,
    principal_eigenvalue,
    rayleigh_check,
    spectral_window,
)
from .harness import SweepRow, emit_figures, run_sweep, write_csv
from .model import Params, SolverConfig, SweepConfig, validate_params
from .propagator import (
    StateVec,
    eigenfunction_eval,
    eigenfunction_profile,
    shooting_residual,
)

__all__ = [
    "Bracket", "CaseLabel", "EigenResult", "HypothesisReport", "Params",
    "PoleError", "Prediction", "SolverConfig", "SolverError",
    "SpectralWindow", "StateVec", "SweepConfig", "SweepRow", "a_star",
    "beta0_star", "bisect", "bracket_scan", "c_star", "char_f", "char_g",
    "classify_pair", "compare_prediction", "eigenfunction_eval",
    "eigenfunction_profile", "emit_figures", "hypothesis_bounds",
    "lambda_curve", "limit_char_residual", "limit_root", "numeric_argmin",
    "principal_eigenvalue", "rayleigh_check", "run_sweep",
    "shooting_residual", "spectral_window", "validate_params", "write_csv",
]

__version__ = "0.1.0"
