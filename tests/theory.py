"""Classification-theory functions that only the tests use.

``char_g`` (the sign surrogate for the a-derivative of ``char_f``), the
linear-in-beta0 coefficients behind ``beta0_star``, and the rational forms
of the Neumann/Dirichlet limit equations.  ``robineig.characteristic`` keeps
what its commands run: ``char_f``, the hypothesis report and the
pole-free ``limit_root``.
"""

from __future__ import annotations

import math

from robineig.characteristic import LIMIT_KINDS
from robineig.model import Params


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
