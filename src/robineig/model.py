"""Problem instances and run configuration.

The physical setup lives on the unit interval: a two-level weight equal to
``kappa`` on a favourable subinterval of length ``c`` and ``-1`` elsewhere,
with Robin parameters ``beta0`` at x=0 and ``beta1`` at x=1.  All types here
are immutable values; downstream modules assume validated inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
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


def check_instance(c: float, kappa: float, *betas: float) -> None:
    """Check that c, kappa and the Robin parameters given (beta0, then
    beta1) are finite, c is in (0, 1), kappa > 0 and each beta >= 0; raise
    ValueError naming the bad value."""
    if 0.0 < c < 1.0 and 0.0 < kappa < math.inf and all(0.0 <= b < math.inf for b in betas):
        return  # valid: one comparison chain; the checks below name the bad value
    for name, v in zip(("c", "kappa", "beta0", "beta1"), (c, kappa, *betas)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite: {v}")
    if not (0.0 < c < 1.0):
        raise ValueError(f"c out of range (0,1): {c}")
    if not kappa > 0.0:
        raise ValueError(f"kappa must be positive: {kappa}")
    if min(betas, default=0.0) < 0.0:
        raise ValueError(f"Robin parameters must be >= 0: {', '.join(map(str, betas))}")


def validate_params(p: Params) -> Params:
    """Check the instance invariants and return ``p`` unchanged.

    Raises ValueError on any violation, NaN and infinities included.  A
    pure-Neumann pair (both betas zero) is rejected because the positive
    principal eigenvalue is then not guaranteed to exist.
    """
    check_instance(p.c, p.kappa, p.beta0, p.beta1)
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


_TYPES = {"float": float, "int": int, "str": str}
# the sweep's config-file keys and flags, typed: every config field but solver
CONFIG_KEYS = {f.name: _TYPES[f.type] for cls in (SweepConfig, SolverConfig)
               for f in fields(cls) if f.name != "solver"}


def _data_lines(path: str | Path) -> list[tuple[int, str, str]]:
    """(line number, raw line, content) per line not blank once its ``#`` comment is cut."""
    return [(lineno, raw, line)
            for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1)
            if (line := raw.split("#", 1)[0].strip())]


def load_sweep_config(path: str | Path, overrides: dict | None = None) -> SweepConfig:
    """Build a SweepConfig from a flat key=value file plus overrides.

    Lines are ``key = value`` with a key of ``CONFIG_KEYS``; blank lines and
    ``#`` comments are ignored.  ``overrides`` (e.g. parsed CLI flags, None
    values skipped) win over file values, which win over defaults.
    """
    values: dict = {}
    if path is not None:
        for lineno, raw, line in _data_lines(path):
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = CONFIG_KEYS[key](val)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val

    solver = SolverConfig(**{f.name: values.pop(f.name)
                             for f in fields(SolverConfig) if f.name in values})
    return validate_sweep_config(SweepConfig(solver=solver, **values))


def load_pairs(path: str | Path) -> list[tuple[float, float]]:
    """The ``beta0 beta1`` lines of a pairs file, with the config file's comment rule."""
    pairs = []
    for lineno, _, line in _data_lines(path):
        try:
            b0, b1 = line.split()
            pairs.append((float(b0), float(b1)))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return pairs
