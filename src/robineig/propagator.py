"""Closed-form propagation of u'' + lambda*m*u = 0 across the three constant pieces.

On a piece where the weight m is constant, the state w = (u, u') evolves as
w(x0+s) = exp(s*Q) w(x0) with the trace-free generator Q = [[0, 1], [-lambda*m, 0]]:
the trigonometric block on the favourable piece (m = kappa > 0), the
hyperbolic one where m = -1.  ``propagate`` carries a state across all three
pieces for the shooting residual, on one lambda or on arrays of lanes.  The
sampled profile applies each block only on the samples of its own piece,
through ``_hyperbolic`` and ``_trig``.  The eigensolver's lane positivity
check takes the same blocks for the start states and samples the right
piece only, the one piece where the shot solution can change sign.
``propagate`` keeps the blocks inline, because a call per block would slow
the scalar residual by a third.
"""

from __future__ import annotations

import math

import numpy as np

from .model import Params, check_placement


def propagate(u, du, lam, kappa: float, left, mid, right, xp=math):
    """Carry the state ``(u, u')`` across ``left`` of weight -1, then ``mid``
    of weight ``kappa``, then ``right`` of weight -1.

    A zero length is exactly the identity (cos 0 = cosh 0 = 1 and sin 0 =
    sinh 0 = 0), so callers pass lengths, not branches.  Each rate multiplies
    its sine before the state does, as in ``u * (sq * sh)``, so a zero length
    stays the identity even for a state next to overflow, where ``u * sq``
    alone would be inf and ``inf * 0`` nan.  With ``xp=numpy`` lambda, the
    lengths (all >= 0) and the result may be arrays.
    """
    sq = xp.sqrt(lam)
    ch, sh = xp.cosh(sq * left), xp.sinh(sq * left)
    u, du = u * ch + du * sh / sq, u * (sq * sh) + du * ch
    om = xp.sqrt(lam * kappa)
    cs, sn = xp.cos(om * mid), xp.sin(om * mid)
    u, du = u * cs + du * sn / om, du * cs - u * (om * sn)
    ch, sh = xp.cosh(sq * right), xp.sinh(sq * right)
    return u * ch + du * sh / sq, u * (sq * sh) + du * ch


def shooting_residual(a, p: Params, lam):
    """Defect of the right Robin condition, u'(1) + beta1*u(1), after
    propagating the normalised left boundary state (1, beta0) across (0,1).

    Zero exactly at the eigenvalues for placement a.  With ``lam`` a numpy
    array (and ``a`` a float or an array of the same shape) it is evaluated
    lane by lane; a float ``lam`` stays on ``math``, which is several times
    faster than numpy on one value.
    """
    xp = np if isinstance(lam, np.ndarray) else math
    u, du = propagate(1.0, p.beta0, lam, p.kappa, a, p.c, 1.0 - a - p.c, xp)
    return du + p.beta1 * u


def _hyperbolic(u, du, sq, s):
    """``propagate``'s block of weight -1 over the lengths s, for the samples."""
    ch, sh = np.cosh(sq * s), np.sinh(sq * s)
    return u * ch + du * sh / sq, u * (sq * sh) + du * ch


def _trig(u, du, om, s):
    """``propagate``'s block of weight kappa over the lengths s, for the samples."""
    cs, sn = np.cos(om * s), np.sin(om * s)
    return u * cs + du * sn / om, du * cs - u * (om * sn)


def eigenfunction_profile(
    a: float, p: Params, lam: float, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(u, u') of the solution shot from (1, beta0) at x = 0, over ascending
    sample points xs in [0,1].

    Each sample is propagated only across the piece that holds it, from that
    piece's start state: ``x <= a`` on the left piece, ``a < x <= a + c`` on
    the favourable one, the rest on the right one.  The start states are
    numpy scalars, so every value equals the three-piece ``propagate`` over
    the lengths up to x, bit for bit, at one cosh/sinh or cos/sin pair per
    sample instead of three.
    """
    xs = np.asarray(xs, dtype=float)
    if not (xs[1:] >= xs[:-1]).all():
        raise ValueError("sample points must be ascending")
    if xs.size and (xs[0] < 0.0 or xs[-1] > 1.0):
        raise ValueError("sample points outside [0,1]")
    check_placement(a, p.c)
    d = xs - a
    i0, i1 = np.searchsorted(d, (0.0, p.c), side="right")
    sq, om = np.sqrt(lam), np.sqrt(lam * p.kappa)
    u, du = np.empty_like(xs), np.empty_like(xs)
    u[:i0], du[:i0] = _hyperbolic(1.0, p.beta0, sq, xs[:i0])
    ua, dua = _hyperbolic(1.0, p.beta0, sq, a)
    u[i0:i1], du[i0:i1] = _trig(ua, dua, om, d[i0:i1])
    ub, dub = _trig(ua, dua, om, p.c)
    u[i1:], du[i1:] = _hyperbolic(ub, dub, sq, d[i1:] - p.c)
    return u, du
