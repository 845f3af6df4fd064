"""Composite Simpson quadrature of the Rayleigh quotient on the sampled
eigenfunction: the oracle for the closed-form piece integrals of
``robineig.eigensolver.rayleigh_check``.

It samples ``eigenfunction_profile`` on 10,001 points per constant-weight
piece, so it shares the transfer formulas with the solver but none of the
integration.  That profile is shot from x = 0 alone; at an eigenvalue it is
the glued eigenfunction of ``rayleigh_check`` as long as the right piece is
short enough that the decaying mode is not lost to rounding.
"""

from __future__ import annotations

import numpy as np

from robineig.eigensolver import SolverError
from robineig.model import Params
from robineig.propagator import eigenfunction_profile


def _simpson(y: np.ndarray, dx: float) -> float:
    # composite Simpson; len(y) odd
    return dx / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())


def simpson_energy_and_mass(a: float, p: Params, lam: float,
                            n_per_piece: int = 10_000) -> tuple[float, float]:
    """``(int u'^2 + beta0 u(0)^2 + beta1 u(1)^2, int m u^2)`` by quadrature."""
    num = 0.0
    den = 0.0
    b = a + p.c
    for x0, x1, m in ((0.0, a, -1.0), (a, b, p.kappa), (b, 1.0, -1.0)):
        if x1 <= x0:
            continue
        xs = np.linspace(x0, x1, n_per_piece + 1)
        u, du = eigenfunction_profile(a, p, lam, xs)
        dx = (x1 - x0) / n_per_piece
        num += _simpson(du * du, dx)
        den += m * _simpson(u * u, dx)
    u_ends, _ = eigenfunction_profile(a, p, lam, np.array([0.0, 1.0]))
    num += p.beta0 * u_ends[0] ** 2 + p.beta1 * u_ends[1] ** 2
    return float(num), float(den)


def simpson_defect(a: float, p: Params, lam: float) -> float:
    """Relative Rayleigh defect by quadrature, refusing a mass that is not positive."""
    with np.errstate(over="ignore", invalid="ignore"):
        num, den = simpson_energy_and_mass(a, p, lam)
    if not den > 0.0:
        raise SolverError("weighted mass of the eigenfunction is not positive")
    return abs(num / den - lam) / lam
