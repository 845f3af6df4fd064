"""Closed-form characteristic and auxiliary functions.

``char_f`` is the four-term determinant form whose smallest positive zero in
the admissible window is the principal eigenvalue; it serves as an oracle
independent of the closed-form shooting residual.  ``hypothesis_bounds``
reports the classification theorem's hypotheses (the admissibility threshold
``c_star``, the uniform bound ``beta0_star_bound`` and the amplitude bound
``h``), and ``limit_root`` solves the classical Neumann/Dirichlet limit
characteristic equations.

The ``neumann`` and ``dirichlet`` limit roots bisect ``_limit_predicate``, a
zero count of the shot solution in O(1) tanh/atan/tan calls, positive
exactly below the principal root (for ``neumann`` only when ``kappa c < 1 -
c``; otherwise there is no positive principal eigenvalue).  The ``lou_*``
reductions at a = 0 keep a 2001-point scan of their closed forms, so that
the two methods check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Params, check_instance, check_placement

LIMIT_KINDS = ("neumann", "dirichlet", "lou_neumann", "lou_dirichlet")
# the lou_* scan resolution and limit_root's bisection width
_LIMIT_N_LAMBDA = 2000
_LIMIT_TOL = 1e-12
# hypothesis_bounds' lambda samples of h
_H_SAMPLES = 256


def char_f(a: float, p: Params, lam: float) -> float:
    """Characteristic function; zero iff lam is an eigenvalue for placement a."""
    sq = math.sqrt(lam)
    k = p.kappa
    b0, b1 = p.beta0, p.beta1
    sn = math.sin(sq * math.sqrt(k) * p.c)
    cs = math.cos(sq * math.sqrt(k) * p.c)
    y = sq * (2.0 * a + p.c - 1.0)
    z = sq * (1.0 - p.c)
    return (
        (k + 1.0) * (lam - b0 * b1) * math.cosh(y) * sn
        + (k + 1.0) * (b0 - b1) * sq * math.sinh(y) * sn
        + math.cosh(z) * ((k - 1.0) * (lam + b0 * b1) * sn
                          - 2.0 * sq * math.sqrt(k) * (b0 + b1) * cs)
        + math.sinh(z) * ((k - 1.0) * (b0 + b1) * sq * sn
                          - 2.0 * math.sqrt(k) * (b0 * b1 + lam) * cs)
    )


def c_star(kappa: float) -> float | None:
    """Least admissible interval fraction, or None for kappa <= 1, where
    every c is admissible."""
    if kappa <= 1.0:
        return None
    rk = math.sqrt(kappa)
    return 1.0 / (1.0 + (2.0 * rk / math.pi) * math.log((rk + 1.0) / (rk - 1.0)))


def beta0_star_bound(c: float, kappa: float) -> float | None:
    """Uniform (a- and lambda-independent) upper bound on beta0_star, the
    zero in beta0 of the beta1-derivative of char_f.

    With ``t = pi (1-c) / (2 c sqrt(kappa))`` the bound is ``(sqrt(kappa)
    pi / c) sinh t / (kappa + 1 - (kappa - 1) cosh t)``.  It is evaluated
    divided through by ``cosh t``, with ``sech t = 2 e^{-t} / (1 + e^{-2t})``,
    so a large t (small c) does not overflow.

    None when the denominator is not positive, i.e. outside the certified
    c-range.
    """
    t = math.pi * (1.0 - c) / (2.0 * c * math.sqrt(kappa))
    e = math.exp(-t)
    den = (kappa + 1.0) * (2.0 * e / (1.0 + e * e)) - (kappa - 1.0)
    if den <= 0.0:
        return None
    return (math.sqrt(kappa) * math.pi / c) * math.tanh(t) / den


@dataclass(frozen=True)
class HypothesisReport:
    """Computable status of the classification theorem's hypotheses.

    ``c_star``/``beta0_star_bound`` are None when not applicable (kappa <= 1,
    respectively c outside the certified range).
    """

    c_star: float | None
    beta0_star_bound: float | None
    c_ok: bool
    beta0_ok: bool
    h_max: float

    def lines(self) -> list[str]:
        def fmt(v):
            return "not applicable" if v is None else f"{v:.6g}"
        return [
            f"c_star: {fmt(self.c_star)}",
            f"beta0_star_bound: {fmt(self.beta0_star_bound)}",
            f"c_ok: {str(self.c_ok).lower()}",
            f"beta0_ok: {str(self.beta0_ok).lower()}",
            f"h_max: {self.h_max:.6g}",
        ]


def hypothesis_bounds(p: Params, lambda_window: tuple[float, float]) -> HypothesisReport:
    """Evaluate the theorem's hypothesis quantities for one instance.

    h(lambda) is the threshold compared against cosh(sqrt(lambda)(2a+c-1))
    to decide the sign of the linear coefficient A(a) of the
    beta1-derivative of char_f; it is below 1 on the whole window under the
    c-constraint.  h_max is the largest of 256 uniform lambda samples of
    the window (h is smooth; the fixed resolution keeps reports
    reproducible), evaluated as one array expression.  With ``z =
    sqrt(lambda) (1-c)`` and ``theta = c sqrt(kappa lambda)``, h is written
    as ``e^z [(kappa-1) sin theta (1 + e^{-2z}) - 2 sqrt(kappa) cos theta
    (1 - e^{-2z})] / (2 (kappa+1) sin theta)``, so only the factor ``e^z``
    can overflow: an h beyond the double range reads as a signed infinity,
    so h_max is finite or ``+-inf`` on a spectral window (``-inf`` when h
    is below the double range at every sample, as at kappa = 1e-300).
    """
    lo, hi = lambda_window
    cs = c_star(p.kappa)
    c_ok = cs is None or p.c > cs
    bound = beta0_star_bound(p.c, p.kappa) if c_ok else None
    beta0_ok = bound is not None and p.beta0 > bound
    k = p.kappa
    lam = lo + (hi - lo) * np.arange(_H_SAMPLES) / (_H_SAMPLES - 1)
    th, z = p.c * np.sqrt(k * lam), np.sqrt(lam) * (1.0 - p.c)
    sn, q = np.sin(th), np.exp(-2.0 * z)
    ratio = (((k - 1.0) * sn * (1.0 + q) - 2.0 * math.sqrt(k) * np.cos(th) * (1.0 - q))
             / (2.0 * (k + 1.0) * sn))
    with np.errstate(over="ignore"):  # h beyond the double range reads +-inf
        h_max = float(np.max(np.exp(z) * ratio))
    return HypothesisReport(cs, bound, c_ok, beta0_ok, h_max)


def _lou_cleared(kind: str, c: float, kappa: float, lam, xp=math):
    """Denominator-cleared form of the ``lou_*`` (a = 0) limit equations.

    Continuous in lambda (no tan pole) and sharing the roots of the rational
    tan/tanh forms, so the scan+bisection machinery can be applied without
    pole bookkeeping.  With ``xp=numpy``, lam may be an array.
    """
    sq = xp.sqrt(lam)
    rk = math.sqrt(kappa)
    theta = sq * rk * c
    sn, cs = xp.sin(theta), xp.cos(theta)
    if kind == "lou_neumann":
        return rk * sn - xp.tanh(sq * (1.0 - c)) * cs
    return sn + rk * xp.tanh(sq * (1.0 - c)) * cs


def _limit_predicate(kind: str, a: float, c: float, kappa: float, lam: float) -> float:
    """Positive exactly below the principal root of the ``neumann`` or
    ``dirichlet`` limit equation: a zero count of the shot solution, carried
    as the ratio t = u'/u across the three pieces.

    The solution is shot from (u, u') = (1, 0) at x = 0 for ``neumann`` and
    from (0, 1) for ``dirichlet``.  With ``sq = sqrt(lam)``, ``om = sqrt(kappa
    lam)`` and ``T = tanh(sq (1-a-c))``:

    - On [0, a], u = cosh(sq x) or sinh(sq x)/sq has no zero in (0, a], and
      ``t_a = sq tanh(sq a)`` or ``sq / tanh(sq a)``.
    - On the favourable piece, u is a positive multiple of cos(om s -
      alpha), with ``alpha = atan(t_a / om)`` in [0, pi/2]; the Dirichlet
      one is written ``atan2(1, sqrt(kappa) tanh(sq a))``, so a = 0 gives
      pi/2 exactly.  Below both windows' caps om c < pi, so u has a zero on
      this piece iff ``om c - alpha >= pi/2``; otherwise ``t_b = -om tan(om
      c - alpha)`` at b = a + c.
    - On [b, 1], u(b + s) = u(b) cosh(sq s) (1 + (t_b/sq) tanh(sq s)), and
      tanh is increasing, so u has no zero there iff ``1 + (t_b/sq) T > 0``.
      For ``neumann`` the predicate also needs ``t_b/sq + T > 0``, the sign
      of u'(1).  As 0 <= T <= 1, that term positive makes the first one
      positive too, so the ``neumann`` term is ``t_b/sq + T`` alone.

    The returned value is -1 for a zero on the favourable piece, else the
    ``dirichlet`` or the ``neumann`` term.  Only tanh, atan and tan appear,
    so nothing overflows, even at c = 0.001.

    Why the sign is the predicate.  Let mu1(lambda) be the principal
    eigenvalue of -u'' - lambda m u under the limit's boundary conditions;
    it is concave in lambda.

    - ``dirichlet``: u has no zero in (0, 1] exactly when mu1(lambda) > 0.
      A first zero at x0 <= 1 makes 0 the principal eigenvalue on (0, x0),
      and by domain monotonicity mu1(lambda) <= 0; a u positive on (0, 1]
      is a positive supersolution, so mu1(lambda) > 0.  mu1(0) = pi^2 > 0,
      so by concavity mu1 > 0 exactly below the principal root.
    - ``neumann``: the predicate is u > 0 on [0, 1] together with the
      solver's shooting residual at beta0 = beta1 = 0, u'(1) > 0.  Inside
      the quarter-period window the lemma of
      ``eigensolver.principal_eigenvalue`` holds for it: it is positive
      exactly where mu1(lambda) > 0.  Here mu1(0) = 0 and mu1'(0) has the
      sign of -int m = (1 - c) - kappa c, so when ``kappa c < 1 - c``,
      concavity makes mu1 > 0 exactly below the principal root.  Otherwise
      mu1 < 0 for every lambda > 0: there is no positive principal
      eigenvalue, and ``limit_root`` refuses before any call.
    """
    sq = math.sqrt(lam)
    rk = math.sqrt(kappa)
    ta = math.tanh(sq * a)
    alpha = math.atan(ta / rk) if kind == "neumann" else math.atan2(1.0, rk * ta)
    phase = sq * rk * c - alpha
    if phase >= 0.5 * math.pi:
        return -1.0
    q = -rk * math.tan(phase)  # t_b / sq
    tr = math.tanh(sq * (1.0 - a - c))
    return q + tr if kind == "neumann" else 1.0 + q * tr


def limit_root(kind: str, a: float, c: float, kappa: float) -> float:
    """Smallest positive root of the selected limit equation, to width
    ``_LIMIT_TOL``.

    The window is the quarter-period window, extended to half a period for
    the Dirichlet kinds, whose first root lies beyond the quarter.

    - ``neumann`` and ``dirichlet`` bisect ``_limit_predicate`` from
      ``Bracket(0, window max, 1, predicate at the max)``, after one
      predicate call at the window maximum.  ``neumann`` is refused without
      a call when ``kappa c >= 1 - c``: then int m >= 0 and there is no
      positive principal eigenvalue.  A predicate still positive at the
      window maximum means the root lies above the cap.
    - ``lou_neumann`` and ``lou_dirichlet``, the a = 0 reductions, keep the
      scan: ``_lou_cleared`` on the 2001-point grid in one numpy pass, then
      a bisection of the leftmost bracket.  They are the closed-form check
      independent of the predicate, behind ``verify-limits``'
      ``neumann_vs_lou_gap``.  The scan starts at the window minimum, so
      one call there first compares the form's sign with its sign next to
      0, the closed-form limit of the form over sqrt(lambda) (``kappa c -
      (1 - c)`` and ``sqrt(kappa)``); if they differ, a root lies below
      the scan and ``(0, lambda_min]`` is bisected instead.  A limit of
      exactly 0 (``kappa c = 1 - c``) is the trivial root at 0 and is not
      taken.

    At a = 0, ``lou_neumann = -cos(theta)`` times the ``neumann`` predicate
    and ``lou_dirichlet = sin(theta)`` times the ``dirichlet`` one, theta = c
    sqrt(kappa lambda) (to 3e-12 relative on 2,000 random draws): so
    ``neumann_vs_lou_gap`` checks two searches of one equation, the scan
    against the predicate bisection, and cannot see the cancellation both
    forms share near ``kappa c = 1 - c``.

    Raises ValueError for an unknown kind, a ``lou_*`` kind at ``a != 0``,
    an invalid c or kappa (as ``validate_params``) or a (``check_placement``),
    or a window without a root; the last message starts with ``no root``.
    """
    from .eigensolver import Bracket, SpectralWindow, bisect, bracket_scan, spectral_window

    if kind not in LIMIT_KINDS:
        raise ValueError(f"unknown limit kind {kind!r}")
    if kind.startswith("lou_") and a != 0.0:
        raise ValueError(f"{kind} requires a = 0")
    check_instance(c, kappa)
    check_placement(a, c)
    w = spectral_window(c, kappa)
    if "dirichlet" in kind:
        # allow the trig piece a half period instead of a quarter
        w = SpectralWindow(w.lambda_min, (1.0 - 1e-9) * math.pi ** 2 / (c * c * kappa))

    if kind.startswith("lou_"):
        def residual(lam, xp=math):
            return _lou_cleared(kind, c, kappa, lam, xp)

        # the sign of the form next to 0, from its limit divided by sqrt(lam)
        near_zero = kappa * c - (1.0 - c) if kind == "lou_neumann" else math.sqrt(kappa)
        r_min = residual(w.lambda_min)
        if r_min > 0.0 > near_zero or near_zero > 0.0 > r_min:
            return bisect(residual, Bracket(0.0, w.lambda_min, near_zero, r_min), _LIMIT_TOL)
        bracket = bracket_scan(lambda lam: residual(lam, np), w, _LIMIT_N_LAMBDA)
        if bracket is None:
            raise ValueError(f"no root of {kind} limit equation found in the window")
        return bisect(residual, bracket, _LIMIT_TOL)

    if kind == "neumann" and kappa * c >= 1.0 - c:
        raise ValueError(f"no root of {kind} limit equation: "
                         "no positive principal eigenvalue (kappa c >= 1 - c)")

    def predicate(lam: float) -> float:
        return _limit_predicate(kind, a, c, kappa, lam)

    r_max = predicate(w.lambda_max)
    if r_max > 0.0:
        raise ValueError(f"no root of {kind} limit equation: "
                         f"root above the window cap {w.lambda_max:.6g}")
    return bisect(predicate, Bracket(0.0, w.lambda_max, 1.0, r_max), _LIMIT_TOL)
