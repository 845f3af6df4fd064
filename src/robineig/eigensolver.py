"""Principal eigenvalue solver: one bisection on the sign of the shooting residual.

Inside the quarter-period window ``(0, pi^2/(4 c^2 kappa))`` the residual is
positive exactly below the principal eigenvalue (see ``principal_eigenvalue``),
so its sign is a monotone predicate.  The solver evaluates it once at the
window cap, refuses if it is still positive there, and otherwise bisects the
whole window.  ``bracket_scan`` and ``bisect`` remain for the oracles and the
limit-equation roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characteristic import char_f
from .model import Params, SolverConfig, check_placement, validate_params
from .propagator import eigenfunction_profile, shooting_residual

_POSITIVITY_SAMPLES = 1001


class SolverError(RuntimeError):
    """Raised when no certified principal eigenvalue can be produced."""


@dataclass(frozen=True)
class SpectralWindow:
    lambda_min: float
    lambda_max: float


@dataclass(frozen=True)
class Bracket:
    lo: float
    hi: float
    r_lo: float
    r_hi: float


@dataclass(frozen=True)
class EigenResult:
    lam: float
    bracket: Bracket
    iterations: int
    char_f_residual: float
    positive_ok: bool


def spectral_window(c: float, kappa: float) -> SpectralWindow:
    """Safe scan bounds inside (0, pi^2 / (4 c^2 kappa))."""
    cap = math.pi ** 2 / (4.0 * c * c * kappa)
    return SpectralWindow(max(1e-12, 1e-6 * cap), (1.0 - 1e-9) * cap)


def bracket_scan(residual, w: SpectralWindow, n_lambda: int) -> list[Bracket]:
    """All sign-change brackets of the residual on the uniform scan grid.

    Grid points where the residual is exactly zero yield degenerate
    width-0 brackets (kept, not perturbed, for determinism).  An empty list
    is a valid result; the caller refines.
    """
    step = (w.lambda_max - w.lambda_min) / n_lambda
    out: list[Bracket] = []
    prev_lam = w.lambda_min
    prev_r = residual(prev_lam)
    if prev_r == 0.0:
        out.append(Bracket(prev_lam, prev_lam, 0.0, 0.0))
    for j in range(1, n_lambda + 1):
        lam = w.lambda_min + j * step
        r = residual(lam)
        if r == 0.0:
            out.append(Bracket(lam, lam, 0.0, 0.0))
        elif prev_r * r < 0.0:
            out.append(Bracket(prev_lam, lam, prev_r, r))
        prev_lam, prev_r = lam, r
    return out


def bisect(residual, b: Bracket, tol: float) -> float:
    """Midpoint of the bisected bracket once its width is <= tol."""
    lam, _, _ = _bisect(residual, b, tol)
    return lam


def _bisect(residual, b: Bracket, tol: float) -> tuple[float, Bracket, int]:
    """Bisect on the predicate ``residual > 0``, deciding each step by sign
    comparison (a product of two small residuals can underflow to zero)."""
    if b.lo == b.hi:
        return b.lo, b, 0
    if not (b.lo < b.hi and (b.r_lo > 0.0 >= b.r_hi or b.r_hi > 0.0 >= b.r_lo)):
        raise ValueError(f"invalid bracket {b}")
    lo, hi, r_lo, r_hi = b.lo, b.hi, b.r_lo, b.r_hi
    iters = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # float resolution exhausted
        r_mid = residual(mid)
        if not math.isfinite(r_mid):
            raise SolverError(f"non-finite residual at lambda={mid}")
        iters += 1
        if (r_mid > 0.0) == (r_lo > 0.0):
            lo, r_lo = mid, r_mid
        else:
            hi, r_hi = mid, r_mid
    return 0.5 * (lo + hi), Bracket(lo, hi, r_lo, r_hi), iters


def eigenfunction_positive(a: float, p: Params, lam: float) -> bool:
    xs = np.linspace(0.0, 1.0, _POSITIVITY_SAMPLES)
    u, _ = eigenfunction_profile(a, p, lam, xs)
    return bool(np.all(u > 0.0))


def principal_eigenvalue(a: float, p: Params, cfg: SolverConfig) -> EigenResult:
    """Principal eigenvalue lambda1 for placement a, by bisecting the sign of
    the shooting residual r over the whole window ``(0, lambda_max]``.

    Why the sign is the predicate.  Let u be the solution shot from
    ``(u, u') = (1, beta0)`` at x = 0, and take 0 < lambda < cap =
    pi^2/(4 c^2 kappa).

    - On [0, a], u'' = lambda u with u, u' >= 0 at the start, so u and u'
      stay positive.
    - On the kappa-piece, u = R cos(omega s - phi) with phi in [0, pi/2),
      and omega c < pi/2, so u has no zero.
    - On [a+c, 1], a zero of u forces u'' = lambda u < 0 after it, so
      u(1) <= 0, u'(1) < 0 and r < 0.

    So r > 0 exactly when u > 0 on [0, 1] and r > 0, which holds exactly
    when lambda < lambda1, because the principal eigenvalue mu1(lambda) of
    -u'' - lambda m u under these Robin conditions is concave in lambda with
    mu1(0) > 0 (Hess-Kato 1980; Pryce 1993).

    The search starts from the closed-form limit r(0+) = beta0 + beta1 +
    beta0*beta1 > 0 and one residual at ``lambda_max``.  If that is still
    positive, lambda1 lies above the window and the solve is refused after a
    single residual call.  Otherwise the bracket ``r_lo > 0 >= r_hi`` is
    bisected to width ``cfg.tol``.  The eigenfunction is then checked for
    positivity on 1001 samples at ``bracket.lo``, where the lemma makes it
    strictly positive; at the midpoint, the left-shot reconstruction of an
    eigenfunction that decays towards x = 1 is ill-conditioned.

    ``cfg.n_lambda`` and ``cfg.max_refine`` are not read.
    """
    validate_params(p)
    check_placement(a, p.c)

    def residual(lam: float) -> float:
        try:
            return shooting_residual(a, p, lam)
        except OverflowError:
            raise SolverError(
                f"shooting residual overflows at lambda={lam:.6g} (a={a}, p={p})"
            ) from None

    w = spectral_window(p.c, p.kappa)
    r_cap = residual(w.lambda_max)
    if not math.isfinite(r_cap):
        raise SolverError(f"non-finite residual at lambda={w.lambda_max}")
    if r_cap > 0.0:
        raise SolverError(
            f"no bracket: lambda1 above the window cap {w.lambda_max:.6g} (a={a}, p={p})"
        )
    r_zero = p.beta0 + p.beta1 + p.beta0 * p.beta1
    lam, final, iters = _bisect(residual, Bracket(0.0, w.lambda_max, r_zero, r_cap), cfg.tol)
    if final.lo == 0.0:
        raise SolverError(f"lambda1 below the tolerance {cfg.tol:g} (a={a}, p={p})")
    if not eigenfunction_positive(a, p, final.lo):
        raise SolverError(f"eigenfunction not positive at lambda={final.lo:.12g} (a={a}, p={p})")
    return EigenResult(lam, final, iters, abs(char_f(a, p, lam)), True)


def a_grid(c: float, n_a: int) -> list[float]:
    return [(1.0 - c) * j / (n_a - 1) for j in range(n_a)]


def lambda_curve(p: Params, cfg: SolverConfig) -> list[tuple[float, float]]:
    """The map a -> principal eigenvalue on the uniform placement grid.

    Any point failure aborts the whole curve; sweep output never contains
    partial curves.
    """
    return [(a, principal_eigenvalue(a, p, cfg).lam) for a in a_grid(p.c, cfg.n_a)]


def _simpson(y: np.ndarray, dx: float) -> float:
    # composite Simpson; len(y) odd
    return dx / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())


def rayleigh_check(a: float, p: Params, result: EigenResult,
                   n_per_piece: int = 10_000) -> float:
    """Relative defect of the Rayleigh quotient at the computed eigenpair.

    The quotient (integral of u'^2 plus the Robin boundary terms, over the
    weighted integral of u^2) is evaluated by composite Simpson quadrature
    per constant-weight piece on the reconstructed eigenfunction.
    """
    lam = result.lam
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
    u0, _ = eigenfunction_profile(a, p, lam, np.array([0.0, 1.0]))
    num += p.beta0 * u0[0] ** 2 + p.beta1 * u0[1] ** 2
    if den <= 0.0:
        raise SolverError("weighted mass of the eigenfunction is not positive")
    return abs(num / den - lam) / lam
