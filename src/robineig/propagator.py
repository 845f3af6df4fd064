"""Closed-form propagation of u'' + lambda*m*u = 0 across the three constant pieces.

On a piece where the weight m is constant, the state w = (u, u') evolves as
w(x0+s) = exp(s*Q) w(x0) with the trace-free generator Q = [[0, 1], [-lambda*m, 0]]:
the trigonometric block on the favourable piece (m = kappa > 0), the
hyperbolic one where m = -1.  ``propagate`` is the only place these blocks
are written; the shooting residual and the sampled profile are each one
call of it with their own piece lengths.
"""

from __future__ import annotations

import math

import numpy as np

from .model import Params, check_placement


def propagate(u, du, lam: float, kappa: float, left, mid, right, xp=math):
    """Carry the state ``(u, u')`` across ``left`` of weight -1, then ``mid``
    of weight ``kappa``, then ``right`` of weight -1.

    A zero length is exactly the identity (cos 0 = cosh 0 = 1 and sin 0 =
    sinh 0 = 0), so callers pass lengths, not branches.  Each rate multiplies
    its sine before the state does, as in ``u * (sq * sh)``, so a zero length
    stays the identity even for a state next to overflow, where ``u * sq``
    alone would be inf and ``inf * 0`` nan.  With ``xp=numpy`` the lengths
    (all >= 0) and the result may be arrays.
    """
    sq = math.sqrt(lam)
    ch, sh = xp.cosh(sq * left), xp.sinh(sq * left)
    u, du = u * ch + du * sh / sq, u * (sq * sh) + du * ch
    om = math.sqrt(lam * kappa)
    cs, sn = xp.cos(om * mid), xp.sin(om * mid)
    u, du = u * cs + du * sn / om, du * cs - u * (om * sn)
    ch, sh = xp.cosh(sq * right), xp.sinh(sq * right)
    return u * ch + du * sh / sq, u * (sq * sh) + du * ch


def shooting_residual(a: float, p: Params, lam: float) -> float:
    """Defect of the right Robin condition, u'(1) + beta1*u(1), after
    propagating the normalised left boundary state (1, beta0) across (0,1).

    Zero exactly at the eigenvalues for placement a.
    """
    u, du = propagate(1.0, p.beta0, lam, p.kappa, a, p.c, 1.0 - a - p.c)
    return du + p.beta1 * u


def eigenfunction_profile(
    a: float, p: Params, lam: float, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(u, u') of the solution shot from (1, beta0) at x = 0, over sample
    points xs in [0,1]: the pieces up to each x, as arrays of lengths."""
    xs = np.asarray(xs, dtype=float)
    if xs.size and (xs.min() < 0.0 or xs.max() > 1.0):
        raise ValueError("sample points outside [0,1]")
    check_placement(a, p.c)
    d = xs - a
    return propagate(
        1.0, p.beta0, lam, p.kappa,
        np.minimum(xs, a), np.minimum(np.maximum(d, 0.0), p.c), np.maximum(d - p.c, 0.0), xp=np,
    )
