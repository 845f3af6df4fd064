"""Problem instances and run configuration.

The physical setup lives on the unit interval: a two-level weight equal to
``kappa`` on a favourable subinterval of length ``c`` and ``-1`` elsewhere,
with Robin parameters ``beta0`` at x=0 and ``beta1`` at x=1.  All types here
are immutable values; downstream modules assume validated inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Params:
    """One problem instance: interval fraction, weight amplitude, Robin pair."""

    c: float
    kappa: float
    beta0: float
    beta1: float


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs: ``tol`` is the bisection width, absolute above lambda = 1
    and relative below it, and ``n_a`` the placement grid size."""

    tol: float = 1e-10
    n_a: int = 81


@dataclass(frozen=True)
class SweepConfig:
    """Batch-verification configuration: Robin grid, base instance, outputs."""

    beta_min: float = 0.2
    beta_max: float = 8.0
    n_beta: int = 10
    c: float = 0.3
    kappa: float = 2.0
    solver: SolverConfig = field(default_factory=SolverConfig)
    out_csv: str = "sweep.csv"
    fig_dir: str = "figures"


def validate_params(p: Params) -> Params:
    """Check the instance invariants and return ``p`` unchanged.

    Raises ValueError on any violation, NaN and infinities included.  A
    pure-Neumann pair (both betas zero) is rejected because the positive
    principal eigenvalue is then not guaranteed to exist.
    """
    for name in ("c", "kappa", "beta0", "beta1"):
        if not math.isfinite(getattr(p, name)):
            raise ValueError(f"{name} must be finite: {getattr(p, name)}")
    if not (0.0 < p.c < 1.0):
        raise ValueError(f"c out of range (0,1): {p.c}")
    if not p.kappa > 0.0:
        raise ValueError(f"kappa must be positive: {p.kappa}")
    if p.beta0 < 0.0 or p.beta1 < 0.0:
        raise ValueError(f"Robin parameters must be >= 0: {p.beta0}, {p.beta1}")
    if p.beta0 == 0.0 and p.beta1 == 0.0:
        raise ValueError("Neumann pair rejected: beta0 = beta1 = 0")
    return p


def check_placement(a: float, c: float) -> float:
    """Validate the left endpoint of the favourable interval, return it."""
    if not (0.0 <= a <= 1.0 - c):
        raise ValueError(f"placement a={a} outside [0, {1.0 - c}]")
    return a


def validate_solver_config(cfg: SolverConfig) -> SolverConfig:
    if not (cfg.tol > 0.0 and math.isfinite(cfg.tol)):
        raise ValueError(f"tol must be finite and positive: {cfg.tol}")
    if cfg.n_a < 2:
        raise ValueError(f"n_a must be >= 2: {cfg.n_a}")
    return cfg


def validate_sweep_config(cfg: SweepConfig) -> SweepConfig:
    """Check the grid and the solver knobs, and the base instance with the
    grid's corner betas through ``validate_params``."""
    if not (0.0 <= cfg.beta_min < cfg.beta_max):
        raise ValueError(f"need 0 <= beta_min < beta_max: {cfg.beta_min}, {cfg.beta_max}")
    if cfg.n_beta < 2:
        raise ValueError(f"n_beta must be >= 2: {cfg.n_beta}")
    try:
        validate_params(Params(cfg.c, cfg.kappa, cfg.beta_min, cfg.beta_max))
    except ValueError as exc:
        raise ValueError(f"sweep base instance (betas = beta_min, beta_max): {exc}") from None
    validate_solver_config(cfg.solver)
    return cfg


# keys accepted in a flat key=value configuration file
_FLOAT_KEYS = {"beta_min", "beta_max", "c", "kappa", "tol"}
_INT_KEYS = {"n_beta", "n_a"}
_STR_KEYS = {"out_csv", "fig_dir"}


def load_sweep_config(path: str | Path, overrides: dict | None = None) -> SweepConfig:
    """Build a SweepConfig from a flat key=value file plus overrides.

    Lines are ``key = value``; blank lines and ``#`` comments are ignored.
    ``overrides`` (e.g. parsed CLI flags, None values skipped) win over file
    values, which win over defaults.
    """
    values: dict = {}
    if path is not None:
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key in _FLOAT_KEYS:
                values[key] = float(val)
            elif key in _INT_KEYS:
                values[key] = int(val)
            elif key in _STR_KEYS:
                values[key] = val
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val

    solver_keys = ("tol", "n_a")
    solver_kwargs = {k: values.pop(k) for k in solver_keys if k in values}
    cfg = SweepConfig(solver=SolverConfig(**solver_kwargs), **values)
    return validate_sweep_config(cfg)
