"""Principal eigenvalue solver: one bisection on the sign of the shooting residual.

Inside the quarter-period window ``(0, pi^2/(4 c^2 kappa))`` the residual is
positive exactly below the principal eigenvalue (see ``principal_eigenvalue``),
so its sign is a monotone predicate.  The solver evaluates it once at the
window cap, refuses if it is still positive there, and otherwise bisects the
whole window.  A curve bisects all its placements in lockstep, one array
residual per step, and checks its lanes' positivity on the right piece
alone, the one piece where the eigenfunction can change sign
(``_positive_lanes``), with the float solve's verdicts.  ``bisect`` also
finds the limit-equation roots, on a zero-count predicate for the
``neumann`` and ``dirichlet`` kinds and from a ``bracket_scan`` (one array
evaluation of a residual on a uniform grid) for the ``lou_*`` reductions;
the scan serves the oracles too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .characteristic import char_f
from .model import Params, SolverConfig, check_placement, validate_params
from .propagator import _hyperbolic, _trig, eigenfunction_profile, shooting_residual

_POSITIVITY_XS = np.linspace(0.0, 1.0, 1001)  # built once, not per positivity check
_POSITIVITY_XS.flags.writeable = False
# lanes per array pass of _positive_lanes: about 8000 samples, so its
# temporaries stay small
_LANES_PER_PASS = 8
# below this upper end the bisection splits the bracket at its geometric mean
_GEOMETRIC_BELOW = 1e-6


class SolverError(RuntimeError):
    """Raised when no certified principal eigenvalue can be produced."""


@dataclass(frozen=True)
class SpectralWindow:
    lambda_min: float
    lambda_max: float


@dataclass(frozen=True)
class Bracket:
    """The final bisection bracket; arrays, one entry per lane, for a
    placement array."""

    lo: float | np.ndarray
    hi: float | np.ndarray
    r_lo: float | np.ndarray
    r_hi: float | np.ndarray


@dataclass(frozen=True)
class EigenResult:
    """``lam`` and ``char_f_residual`` are arrays for a placement array, and
    ``iterations`` counts its lockstep steps."""

    lam: float | np.ndarray
    bracket: Bracket
    iterations: int
    char_f_residual: float | np.ndarray
    positive_ok: bool


def spectral_window(c: float, kappa: float) -> SpectralWindow:
    """Safe scan bounds inside (0, cap), cap = pi^2 / (4 c^2 kappa); a ValueError naming
    c and kappa unless the cap is positive with ``256 cap max(1, kappa)`` finite, the
    headroom for the multiples of the cap that the commands form (the h grid, the
    Dirichlet window of 4 caps, the rate ``cap kappa``, a midpoint's ``lo + hi``)."""
    den = 4.0 * c * c * kappa
    cap = math.pi ** 2 / den if den else math.inf
    if not (0.0 < cap and 256.0 * cap * max(1.0, kappa) < math.inf):
        raise ValueError(f"no spectral window: the cap pi^2/(4 c^2 kappa) = {cap} must be "
                         f"positive with 256 cap max(1, kappa) finite (c={c}, kappa={kappa})")
    return SpectralWindow(1e-6 * cap, (1.0 - 1e-9) * cap)


def bracket_scan(residual, w: SpectralWindow, n_lambda: int) -> Bracket | None:
    """The leftmost sign-change bracket of the residual on the uniform scan
    grid ``lambda_min + j * step``, ``j = 0..n_lambda``, or None when there
    is none.

    ``residual`` is called once, on the whole grid as a numpy array, and
    returns the array of its values there.  A sign change is found by
    comparing signs, so residuals whose products underflow are still
    bracketed.  A grid point where the residual is exactly zero yields a
    degenerate width-0 bracket (kept, not perturbed, for determinism);
    whichever event comes first on the grid wins.
    """
    step = (w.lambda_max - w.lambda_min) / n_lambda
    lam = w.lambda_min + np.arange(n_lambda + 1) * step
    r = residual(lam)
    s = np.sign(r)
    event = s == 0.0
    event[1:] |= s[:-1] * s[1:] < 0.0
    j = int(np.argmax(event))
    if not event[j]:
        return None
    if s[j] == 0.0:
        return Bracket(float(lam[j]), float(lam[j]), 0.0, 0.0)
    return Bracket(float(lam[j - 1]), float(lam[j]), float(r[j - 1]), float(r[j]))


def bisect(residual, b: Bracket, tol: float) -> float:
    """Midpoint of the bisected bracket once its width is <= tol * min(1, lo):
    absolute above 1, relative to the lower end below it."""
    return _bisect(residual, b, tol)[0]


def _bisect(residual, b: Bracket, tol: float) -> tuple[float, Bracket, int]:
    """Bisect on the predicate ``residual > 0``, deciding each step by sign
    comparison (a product of two small residuals can underflow to zero).

    Once the upper end is at or below ``_GEOMETRIC_BELOW``, the split point
    is the geometric mean ``sqrt(max(lo, 5e-324)) sqrt(hi)``, so a bracket
    that starts at 0 reaches a tiny root in a bounded number of steps
    (about 70 from the whole window) instead of halving down to it; the
    arithmetic midpoint would take one step per binary order of magnitude.
    A root above that floor never sees a geometric step."""
    if b.lo == b.hi:
        return b.lo, b, 0
    if not (b.lo < b.hi and (b.r_lo > 0.0 >= b.r_hi or b.r_hi > 0.0 >= b.r_lo)):
        raise ValueError(f"invalid bracket {b}")
    lo, hi, r_lo, r_hi = b.lo, b.hi, b.r_lo, b.r_hi
    iters = 0
    while hi - lo > (tol if lo >= 1.0 else tol * lo):  # tol * min(1, lo), without a call
        if hi > _GEOMETRIC_BELOW:
            mid = 0.5 * (lo + hi)
        else:
            mid = math.sqrt(max(lo, 5e-324)) * math.sqrt(hi)
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
    u, _ = eigenfunction_profile(a, p, lam, _POSITIVITY_XS)
    return bool((u > 0.0).all())


def _positive_lanes(a: np.ndarray, p: Params, lam: np.ndarray) -> np.ndarray:
    """``eigenfunction_positive(a[j], p, lam[j])`` for each lane j, from the
    right-piece samples only (``d > c``, the profile's own test): the lane
    passes when ``lam[j] > 0`` and u > 0 at each of them, NaN failing.

    The other samples cannot fail.  A lane reaches the check with ``lo > 0``
    and a finite residual there (``_lockstep`` raises on a non-finite one),
    so ``sinh(sq a)`` is finite; a lane at ``lo = 0`` reads False, and
    ``_certify`` refuses it first.  A left sample is ``cosh(sq x) + beta0
    sinh(sq x) / sq >= 1``.  A favourable one is ``ua cos(om s) + dua
    sin(om s) / om`` with ``ua >= 1``, ``dua >= 0`` and ``0 < om s <= om c <
    pi/2`` (the window cap), so at least ``ua cos(om c) > 0``.  A right one
    is ``_hyperbolic(ub, dub, sq, (x - a) - c)`` on the profile's doubles,
    bit for bit.  Off ``_lockstep``'s path, past overflow with ``beta0 = 0``,
    ``ua`` is NaN and so is every favourable sample: such a lane fails here
    too, right piece or not.  Each pass takes ``_LANES_PER_PASS`` lanes.
    """
    with np.errstate(all="ignore"):
        sq, om = np.sqrt(lam), np.sqrt(lam * p.kappa)
        ua, dua = _hyperbolic(1.0, p.beta0, sq, a)
        ub, dub = _trig(ua, dua, om, p.c)
        ok = (lam > 0.0) & ~np.isnan(ua)
        for j in range(0, a.size, _LANES_PER_PASS):
            s = slice(j, j + _LANES_PER_PASS)
            d = _POSITIVITY_XS - a[s, None]
            u, _ = _hyperbolic(ub[s, None], dub[s, None], sq[s, None], d - p.c)
            ok[s] &= ((u > 0.0) | (d <= p.c)).all(axis=1)
    return ok


def principal_eigenvalue(a: float | np.ndarray, p: Params, cfg: SolverConfig) -> EigenResult:
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
    bisected to width ``cfg.tol``, or ``cfg.tol * bracket.lo`` below
    lambda = 1, so a small lambda1 keeps its relative accuracy; a bracket
    that float resolution stops short of that width is refused.  The
    eigenfunction is then checked for positivity on 1001 samples at
    ``bracket.lo``, where the lemma makes it strictly positive; at the
    midpoint, the left-shot reconstruction of an eigenfunction that decays
    towards x = 1 is ill-conditioned.

    ``a`` may be a 1-D array of placements (see ``_lockstep``): the result
    then holds one lambda1 per placement, each the float solve's.
    """
    validate_params(p)
    if isinstance(a, np.ndarray):
        return _lockstep(a, p, cfg)
    check_placement(a, p.c)
    residual = partial(shooting_residual, a, p)
    w = spectral_window(p.c, p.kappa)
    r_cap = residual(w.lambda_max)
    _refuse_at_cap(a, p, w, r_cap)
    r_zero = p.beta0 + p.beta1 + p.beta0 * p.beta1
    lam, final, iters = _bisect(residual, Bracket(0.0, w.lambda_max, r_zero, r_cap), cfg.tol)
    return EigenResult(lam, final, iters, _certify(a, p, final.lo, final.hi, cfg.tol), True)


def _refuse_at_cap(a: float, p: Params, w: SpectralWindow, r_cap: float) -> None:
    """Refuse placement a unless its residual at the window cap is finite and <= 0."""
    if not math.isfinite(r_cap):
        raise SolverError(f"non-finite residual at lambda={w.lambda_max} (a={a}, p={p})")
    if r_cap > 0.0:
        raise SolverError(f"no bracket: lambda1 above the window cap {w.lambda_max:.6g} "
                          f"(a={a}, p={p})")


def _certify(a: float, p: Params, lo: float, hi: float, tol: float,
             positive: bool | None = None) -> float:
    """Refuse a final bracket ``[lo, hi]`` that is not a certified lambda1;
    otherwise return the scaled ``char_f`` residual at its midpoint.

    ``positive`` is the positivity verdict at ``lo`` when the caller already
    has it (the lanes); a float solve computes it here, after the two checks
    that refuse ``lo = 0``."""
    if lo == 0.0:
        raise SolverError(
            f"lambda1 not resolved from 0: the residual is not positive down to "
            f"lambda={hi:.3g} (a={a}, p={p})"
        )
    if hi - lo > tol * min(1.0, lo):
        raise SolverError(
            f"bracket [{lo:.6g}, {hi:.6g}] not narrowed to width {tol * min(1.0, lo):.3g}: "
            f"float resolution exhausted (a={a}, p={p})"
        )
    if positive is None:
        positive = eigenfunction_positive(a, p, lo)
    if not positive:
        raise SolverError(f"eigenfunction not positive at lambda={lo:.12g} (a={a}, p={p})")
    return char_f_residual(a, p, 0.5 * (lo + hi))


def _lockstep(a: np.ndarray, p: Params, cfg: SolverConfig) -> EigenResult:
    """``principal_eigenvalue`` on a 1-D array of placements, one lane each.

    One array residual at the cap refuses the whole array if any lane is
    positive (or non-finite) there.  Then every lane takes ``_bisect``'s
    steps (the same split points, width and sign rule) with one array
    residual per step, and freezes when its width is reached or float
    resolution is exhausted; a frozen lane's residual is not read, so its
    overflow raises nothing.  The geometric split is computed only on a step
    where some lane's upper end is at or below ``_GEOMETRIC_BELOW``.  Each
    lane is then certified as a float solve is, by ``_certify`` in lane
    order, with the positivity verdicts of all lanes from one
    ``_positive_lanes`` call: the float solve's ``eigenfunction_positive``
    verdicts, read from its right-piece samples alone.
    ``iterations`` counts the lockstep steps.

    A lane's bracket is the float solve's as long as every step sees the
    same residual sign.  numpy's and math's transcendentals may differ in
    the last bit, which flips a sign only where rounding already decides it,
    next to the root; the two brackets then still agree to the width.  Where
    the eigenfunction decays steeply towards x = 1, the positivity check at
    ``bracket.lo`` is itself decided by rounding, and can then pass on one
    of the two lower ends and fail on the other.
    """
    if a.ndim != 1:
        raise ValueError(f"placements must be a 1-D array, got shape {a.shape}")
    outside = ~((a >= 0.0) & (a <= 1.0 - p.c))
    if outside.any():
        check_placement(float(a[np.argmax(outside)]), p.c)
    w = spectral_window(p.c, p.kappa)
    tol = cfg.tol
    with np.errstate(over="ignore", invalid="ignore"):
        r_hi = shooting_residual(a, p, np.full(a.shape, w.lambda_max))
        j = int(np.argmin(np.isfinite(r_hi) & (r_hi <= 0.0)))  # first refused lane, else 0
        _refuse_at_cap(float(a[j]), p, w, float(r_hi[j]))
        lo, hi = np.zeros(a.shape), np.full(a.shape, w.lambda_max)
        r_lo = np.full(a.shape, p.beta0 + p.beta1 + p.beta0 * p.beta1)
        iters = 0
        while True:
            mid = 0.5 * (lo + hi)
            geometric = hi <= _GEOMETRIC_BELOW
            if geometric.any():
                mid = np.where(geometric, np.sqrt(np.maximum(lo, 5e-324)) * np.sqrt(hi), mid)
            active = (hi - lo > tol * np.minimum(1.0, lo)) & (mid > lo) & (mid < hi)
            if not active.any():
                break
            r_mid = shooting_residual(a, p, mid)
            bad = active & ~np.isfinite(r_mid)
            if bad.any():
                j = int(np.argmax(bad))
                raise SolverError(f"non-finite residual at lambda={mid[j]} (a={a[j]}, p={p})")
            iters += 1
            up = active & ((r_mid > 0.0) == (r_lo > 0.0))
            down = active & ~up
            lo, r_lo = np.where(up, mid, lo), np.where(up, r_mid, r_lo)
            hi, r_hi = np.where(down, mid, hi), np.where(down, r_mid, r_hi)
    positive = _positive_lanes(a, p, lo).tolist()
    residuals = np.array([_certify(aj, p, lj, hj, tol, ok) for aj, lj, hj, ok
                          in zip(a.tolist(), lo.tolist(), hi.tolist(), positive)])
    return EigenResult(0.5 * (lo + hi), Bracket(lo, hi, r_lo, r_hi), iters, residuals, True)


def char_f_residual(a: float, p: Params, lam: float) -> float:
    """``|char_f|`` divided by the size of its terms, ``cosh(mu (1-c))
    (kappa + 1 + 2 sqrt(kappa)) (lambda + beta0 beta1 + mu (beta0 + beta1))``
    with ``mu = sqrt(lambda)``.  Each of the four terms is at most of that
    order, because ``|2a + c - 1| <= 1 - c``.  So the ratio can be compared
    across instances, where ``|char_f|`` itself grows like ``e^{mu (1-c)}``
    and ``beta0 beta1``; it stays near 1e-11 or below.  Both are taken times
    ``s``, a power of two below ``1/(kappa+1)``: no bit of the ratio changes,
    and kappa near 1e308 overflows neither."""
    mu = math.sqrt(lam)
    s = math.ldexp(1.0, -math.frexp(p.kappa + 1.0)[1])
    scale = (math.cosh(mu * (1.0 - p.c)) * ((p.kappa + 1.0 + 2.0 * math.sqrt(p.kappa)) * s)
             * (lam + p.beta0 * p.beta1 + mu * (p.beta0 + p.beta1)))
    return abs(char_f(a, p, lam, s)) / scale


def a_grid(c: float, n_a: int) -> list[float]:
    """``n_a`` uniform placements from 0 to ``1 - c``.  The last is ``1 - c``
    itself: ``(1 - c) * j / j`` can round above it."""
    return [(1.0 - c) * j / (n_a - 1) for j in range(n_a - 1)] + [1.0 - c]


def lambda_curve(p: Params, cfg: SolverConfig) -> list[tuple[float, float]]:
    """The map a -> principal eigenvalue on the uniform placement grid, all
    placements solved in lockstep.

    Any point failure aborts the whole curve; sweep output never contains
    partial curves.
    """
    grid = a_grid(p.c, cfg.n_a)
    return list(zip(grid, principal_eigenvalue(np.array(grid), p, cfg).lam.tolist()))


def _sin2_integral(om: float, t: float) -> float:
    """Integral of sin^2(om s) over [0, t/om], (2t - sin 2t) / (4 om), with
    the Taylor series of x - sin x below x = 2t = 0.25 (truncation < 1e-15)."""
    x = 2.0 * t
    if x < 0.25:
        x2 = x * x
        d = x * x2 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0 * (1.0 - x2 / 72.0
                                                                  * (1.0 - x2 / 110.0))))
    else:
        d = x - math.sin(x)
    return d / (4.0 * om)


def _end_piece(beta: float, lam: float, length: float) -> tuple[float, float, float, float]:
    """Shoot ``y'' = lambda y`` inward across an end piece of length L from
    the boundary state ``(y, y') = (1, beta)``: the end state ``(y, y')``,
    ``int y'^2 + beta y(0)^2`` and ``int y^2``.  In the basis ``A e^{mu s} +
    B e^{-mu s}``, ``A, B = (1 +- beta/mu) / 2``, the state is divided by
    ``e^{mu L}`` and the sums by ``e^{2 mu L}``, so they need only ``q =
    e^{-2 mu L}`` and ``e1 = -expm1(-2 mu L) / (2 mu)``.  The end state is
    ``(1 + q)/2 + beta e1`` and ``lambda e1 + beta (1 + q)/2``, sums of
    positive terms: ``A + B q`` would cancel where beta/mu is large and q
    rounds to 1.  With ``beta >= 0`` the solution grows inward, so nothing
    overflows and no decaying mode is rebuilt from rounding."""
    mu = math.sqrt(lam)
    grow, decay = 0.5 * (1.0 + beta / mu), 0.5 * (1.0 - beta / mu)
    q = math.exp(-2.0 * mu * length)
    e1 = -math.expm1(-2.0 * mu * length) / (2.0 * mu)
    aa, bb, ab = grow * grow * e1, decay * decay * q * e1, 2.0 * grow * decay * length * q
    y, dy = 0.5 * (1.0 + q) + beta * e1, lam * e1 + 0.5 * beta * (1.0 + q)
    return y, dy, beta * q + lam * (aa + bb - ab), aa + bb + ab


def _energy_and_mass(a: float, p: Params, lam: float) -> tuple[float, float]:
    """Exact numerator and denominator of the Rayleigh quotient of the
    eigenfunction phi glued at ``b = a + c``, ``int phi'^2 + beta0 phi(0)^2 +
    beta1 phi(1)^2`` and ``int m phi^2``, both divided by ``e^{2 mu a}``.

    ``phi = u_L`` on ``[0, b]``: shot from ``(1, beta0)`` across the left
    piece (``_end_piece``), then ``u0 cos(om s) + (u0'/om) sin(om s)`` on the
    favourable piece.  ``phi = g v`` on ``[b, 1]``: v is shot from ``(1,
    beta1)`` at x = 1 towards b, and ``g = u_L(b) / v(b)`` (the matching
    point of Pryce 1993).  Each end is shot in its growing direction.
    """
    u, du, num, den = _end_piece(p.beta0, lam, a)
    v, _, num_right, den_right = _end_piece(p.beta1, lam, 1.0 - a - p.c)
    om = math.sqrt(lam * p.kappa)
    t = om * p.c
    cs, sn = math.cos(t), math.sin(t)
    w = du / om
    s2 = _sin2_integral(om, t)
    c2 = p.c - s2
    sc = sn * sn / (2.0 * om)
    g = (u * cs + w * sn) / v
    num = num + om * om * (u * u * s2 + w * w * c2 - 2.0 * u * w * sc) + g * g * num_right
    den = p.kappa * (u * u * c2 + w * w * s2 + 2.0 * u * w * sc) - den - g * g * den_right
    return num, den


def rayleigh_check(a: float, p: Params, result: EigenResult) -> float:
    """Relative defect ``|num/den - lambda| / lambda`` of the Rayleigh
    quotient at the computed eigenpair, with the piecewise integrals exact
    (``_energy_and_mass``).

    What it proves.  On the glued eigenfunction phi, integration by parts
    gives ``num/den - lambda = (u_L(b)/v(b)) r(lambda) / int m phi^2``, with
    r the shooting residual.  So the check re-tests the shooting residual,
    weighted by the mass; it is not an independent certificate.  The
    independent ones are ``char_f`` (``EigenResult.char_f_residual``) and,
    in the tests, the finite-element oracle.  A weighted mass that is not
    positive (or NaN) is a ``SolverError``.
    """
    lam = result.lam
    num, den = _energy_and_mass(a, p, lam)
    if not den > 0.0:
        raise SolverError(
            f"weighted mass of the eigenfunction is not positive at lambda={lam:.12g} "
            f"(a={a}, p={p})"
        )
    return abs(num / den - lam) / lam
