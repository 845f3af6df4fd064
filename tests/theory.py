"""Classification-theory functions that only the tests use.

``char_g`` (the sign surrogate for the a-derivative of ``char_f``), the
linear-in-beta0 coefficients behind ``beta0_star``, and the rational forms
of the Neumann/Dirichlet limit equations.  ``robineig.characteristic`` keeps
what its commands run: ``char_f``, the hypothesis report and the
pole-free ``limit_root``.

It also keeps the scalar oracles of the array and predicate code:
``scan_loop`` (the point-by-point bracket scan), ``limit_root_loop`` (every
limit root from that scan of the denominator-cleared ``limit_cleared``),
``h_max_loop`` (h sampled one lambda at a time) and
``profile_oracle`` (the sampled profile as one three-piece ``propagate``).
"""

from __future__ import annotations

import math

import numpy as np

from robineig.characteristic import _LIMIT_N_LAMBDA, _LIMIT_TOL, LIMIT_KINDS, _lou_cleared
from robineig.eigensolver import Bracket, SpectralWindow, bisect, spectral_window
from robineig.model import Params, check_placement
from robineig.propagator import propagate


class PoleError(ArithmeticError):
    """Evaluation requested at (or numerically on top of) a pole of a
    tan/tanh rational form; the sign change there is not a root."""


class DegenerateConfigError(ArithmeticError):
    """The linear coefficient A(a) is numerically zero, which the theory
    excludes; signals a constraint violation upstream."""


def char_g(a: float, beta0: float, beta1: float, lam: float, c: float) -> float:
    """Sign surrogate for the a-derivative of char_f on the admissible window."""
    sq = math.sqrt(lam)
    return (lam - beta0 * beta1) * math.tanh(2.0 * sq * (a - (1.0 - c) / 2.0)) \
        + sq * (beta0 - beta1)


def _linear_coeffs(a: float, c: float, kappa: float, lam: float) -> tuple[float, float]:
    """Coefficients (A, B) of the beta1-derivative of char_f, linear in beta0."""
    sq = math.sqrt(lam)
    sn = math.sin(c * math.sqrt(kappa * lam))
    cs = math.cos(c * math.sqrt(kappa * lam))
    z = sq * (1.0 - c)
    y = sq * (2.0 * a + c - 1.0)
    A = (-2.0 * math.sqrt(kappa) * cs * math.sinh(z)
         + (kappa - 1.0) * sn * math.cosh(z)
         - (kappa + 1.0) * sn * math.cosh(y))
    B = (-2.0 * math.sqrt(lam * kappa) * cs * math.cosh(z)
         + (kappa - 1.0) * sq * sn * math.sinh(z)
         - (kappa + 1.0) * sq * sn * math.sinh(y))
    return A, B


def beta0_star(a: float, p: Params, lam: float) -> float:
    """Unique zero in beta0 of the beta1-derivative of char_f, i.e. -B(a)/A(a)."""
    A, B = _linear_coeffs(a, p.c, p.kappa, lam)
    if abs(A) < 1e-12:
        raise DegenerateConfigError(f"A(a) ~ 0 at a={a}, lam={lam}")
    return -B / A


def limit_char_residual(kind: str, a: float, c: float, kappa: float, lam: float) -> float:
    """LHS - RHS of the selected limit characteristic equation.

    Kinds: ``neumann`` and ``dirichlet`` are the beta -> 0 / beta -> inf
    equations at general placement; ``lou_neumann`` and ``lou_dirichlet`` are
    their a=0 reductions.  Raises PoleError when the rational form is
    evaluated too close to a denominator zero.
    """
    if kind not in LIMIT_KINDS:
        raise ValueError(f"unknown limit kind {kind!r}")
    if kind.startswith("lou_") and a != 0.0:
        raise ValueError(f"{kind} requires a = 0")
    sq = math.sqrt(lam)
    rk = math.sqrt(kappa)
    if abs(math.cos(sq * rk * c)) < 1e-12:
        raise PoleError(f"tan pole at lam={lam}")
    t = math.tan(sq * rk * c)
    b = a + c
    if kind == "lou_neumann":
        return rk * t - math.tanh(sq * (1.0 - c))
    if kind == "lou_dirichlet":
        return t + rk * math.tanh(sq * (1.0 - c))
    ta = math.tanh(sq * a)
    lhs = math.tanh(sq * (1.0 - b))
    if kind == "neumann":
        num = rk * t - ta
        den = 1.0 + ta * t / rk
    else:  # dirichlet
        num = t / rk + ta
        den = rk * ta * t - 1.0
    if abs(den) < 1e-10 * max(1.0, abs(num)):
        raise PoleError(f"{kind} residual at a pole: lam={lam}")
    return lhs - num / den


def limit_cleared(kind: str, a: float, c: float, kappa: float, lam: float) -> float:
    """Denominator-cleared form of the limit equations, every kind.

    Continuous in lambda (no tan/tanh poles) and sharing the roots of the
    rational forms.  The ``neumann`` and ``dirichlet`` forms live only here,
    as the scanned oracle of ``limit_root``'s zero-count predicate; the
    ``lou_*`` forms are the package's ``_lou_cleared``.
    """
    if kind.startswith("lou_"):
        return _lou_cleared(kind, c, kappa, lam)
    sq = math.sqrt(lam)
    rk = math.sqrt(kappa)
    theta = sq * rk * c
    sn, cs = math.sin(theta), math.cos(theta)
    ta = math.tanh(sq * a)
    lhs = math.tanh(sq * (1.0 - a - c))
    if kind == "neumann":
        return lhs * (cs + ta * sn / rk) - (rk * sn - ta * cs)
    return lhs * (rk * ta * sn - cs) - (sn / rk + ta * cs)


def scan_loop(residual, w: SpectralWindow, n_lambda: int) -> Bracket | None:
    """Scalar bracket scan: walk the grid ``lambda_min + j * step`` one
    point at a time and return the first exact zero (as a width-0 bracket)
    or the first sign change, or None."""
    step = (w.lambda_max - w.lambda_min) / n_lambda
    prev_lam, prev_r = w.lambda_min, residual(w.lambda_min)
    if prev_r == 0.0:
        return Bracket(prev_lam, prev_lam, 0.0, 0.0)
    for j in range(1, n_lambda + 1):
        lam = w.lambda_min + j * step
        r = residual(lam)
        if r == 0.0:
            return Bracket(lam, lam, 0.0, 0.0)
        if (prev_r > 0.0 and r < 0.0) or (prev_r < 0.0 and r > 0.0):
            return Bracket(prev_lam, lam, prev_r, r)
        prev_lam, prev_r = lam, r
    return None


def limit_root_loop(kind: str, a: float, c: float, kappa: float) -> float | None:
    """The limit root from the scalar scan of ``limit_cleared`` and a
    bisection of its leftmost bracket, every kind; None where the window
    holds no root."""
    w = spectral_window(c, kappa)
    if "dirichlet" in kind:
        w = SpectralWindow(w.lambda_min, (1.0 - 1e-9) * math.pi ** 2 / (c * c * kappa))

    def residual(lam: float) -> float:
        return limit_cleared(kind, a, c, kappa, lam)

    bracket = scan_loop(residual, w, _LIMIT_N_LAMBDA)
    return None if bracket is None else bisect(residual, bracket, _LIMIT_TOL)


def h_max_loop(p: Params, lambda_window: tuple[float, float], n: int = 256) -> float:
    """Largest of the n uniform samples of h(lambda) on the window, each
    from the cosh/sinh form (which overflows for sqrt(lambda) (1-c) > 710)."""
    lo, hi = lambda_window
    k = p.kappa
    hs = []
    for j in range(n):
        lam = lo + (hi - lo) * j / (n - 1)
        th, z = p.c * math.sqrt(k * lam), math.sqrt(lam) * (1.0 - p.c)
        hs.append(((k - 1.0) * math.sin(th) * math.cosh(z)
                   - 2.0 * math.sqrt(k) * math.cos(th) * math.sinh(z))
                  / ((k + 1.0) * math.sin(th)))
    return max(hs)


def profile_oracle(a: float, p: Params, lam: float, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, u') of the solution shot from (1, beta0) at x = 0, over sample
    points xs in [0,1] in any order: one three-piece ``propagate`` on the
    arrays of the lengths up to each x, three transcendental pairs per sample."""
    xs = np.asarray(xs, dtype=float)
    if xs.size and (xs.min() < 0.0 or xs.max() > 1.0):
        raise ValueError("sample points outside [0,1]")
    check_placement(a, p.c)
    d = xs - a
    return propagate(
        1.0, p.beta0, lam, p.kappa,
        np.minimum(xs, a), np.minimum(np.maximum(d, 0.0), p.c), np.maximum(d - p.c, 0.0), xp=np,
    )
